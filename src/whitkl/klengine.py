"""Kazhdan-Lusztig bases and polynomials for the coset modules.

Two independent paths compute the basis phi on the global coset module:

* Path A (production): run the parabolic recursion once per model class
  (the models sharing one coset table), then transport along ind.
  `build_kl_table` keeps one basis psi per class, with every coefficient
  interned in one value -> object store (the polynomials take few
  distinct values: 1 691 among the 396 809 of F4 with Theta empty at
  -rho), and serves phi and the polynomial table as views over psi.
* Path B (cross-check): recurse directly on global cosets, using the
  T-operator for integral simple descents and label relabeling plus a
  weight move for non-integral ones.

At an integral descent both paths apply one T-operator to a shorter
basis element, getting xi, then subtract mu * basis(D) for every shorter
D whose coefficient in xi has a nonzero constant term mu, longest D
first.  `_subtract_mu` does this for both paths.  It walks only xi's
support, longest first and by id among equal lengths, with a heap that
gains the cosets each subtraction brings into the support (du Cloux,
"Computing Kazhdan-Lusztig polynomials for arbitrary Coxeter groups",
Experiment. Math. 11, 2002).  A coset outside the support has no
constant term, so the walk makes exactly the subtractions, in exactly
the order, of a scan over every shorter coset.

The two must agree everywhere; disagreement is the strongest available
bug detector and is surfaced, never patched.
"""

from __future__ import annotations

import heapq
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field

from .cosetlab import (
    CosetStep,
    IntegralData,
    IntegralModel,
    ThetaCosets,
    build_integral_model,
    build_theta_cosets,
    integral_data,
    subgroup_bruhat,
)
from .heckemodule import (
    HeckeElt,
    delta,
    global_tag,
    model_tag,
    right_mult_simple,
    t_alpha,
    t_alpha_model,
)
from .laurent import LaurentPoly
from .rootsystem import Weight, is_integer, pair
from .weylgroup import WeylGroup

__all__ = [
    "KLTable",
    "kl_basis_model",
    "phi_transport",
    "phi_direct",
    "build_models",
    "build_kl_table",
]


@dataclass
class KLTable:
    """Path A's table: one basis per model class, stored once in psi;
    `psi[u]` is u's class's basis, one dict shared by the class.

    `phi` and `polys` are read-only mappings over `psi`, each model's
    `ind` and a coset -> (model, model coset) index; they copy nothing,
    and `phi` builds each element when it is read.  Both iterate models in
    order and each model's cosets by length, as `phi_transport` does;
    each `polys` row gives its diagonal first, then the row's
    coefficients.  A key outside them (an unknown or negative coset id, a
    pair across two models) raises `KeyError`.
    """

    group: WeylGroup
    tc: ThetaCosets
    lam: Weight
    idata: IntegralData
    models: list[IntegralModel]
    psi: dict[int, dict[int, HeckeElt]]  # u -> class's model coset -> element
    # global coset -> element
    phi: Mapping[int, HeckeElt] = field(init=False, repr=False, compare=False)
    # (C, D) global ids -> P_{CD}, diagonal included
    polys: Mapping[tuple[int, int], LaurentPoly] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        where: list[tuple[IntegralModel, int] | None] = [None] * self.tc.n_cosets
        for model in self.models:
            for f, c in enumerate(model.ind):
                where[c] = (model, f)
        self._where = where
        self._tag = global_tag(self.tc)
        bases = [self.psi[model.u] for model in self.models]
        self.phi = _View(
            self._phi_pairs, self._phi_at, sum(len(psi) for psi in bases)
        )
        self.polys = _View(
            self._poly_pairs,
            self._poly_at,
            sum(len(elt.coeffs) for psi in bases for elt in psi.values()),
        )

    def model_of_coset(self, cid: int) -> IntegralModel:
        return self._locate(cid)[0]

    def _locate(self, cid) -> tuple[IntegralModel, int]:
        """(model, model coset) of the global coset cid."""
        if isinstance(cid, int) and 0 <= cid < len(self._where):
            hit = self._where[cid]
            if hit is not None:
                return hit
        raise KeyError(f"coset {cid} not in any model")

    def _phi_at(self, c: int) -> HeckeElt:
        model, f = self._locate(c)
        return _to_global(self._tag, model.ind, self.psi[model.u][f])

    def _phi_pairs(self):
        for model in self.models:
            ind = model.ind
            for f, elt in self.psi[model.u].items():
                yield ind[f], _to_global(self._tag, ind, elt)

    def _poly_at(self, key) -> LaurentPoly:
        try:
            c, d = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        model, f = self._locate(c)
        other, g = self._locate(d)
        poly = self.psi[model.u][f].coeffs.get(g) if other is model else None
        if poly is None:
            raise KeyError(key)
        return poly

    def _poly_pairs(self):
        for model in self.models:
            ind = model.ind
            for f, g, poly in _model_polys(self.psi[model.u]):
                yield (ind[f], ind[g]), poly


class _View(Mapping):
    """A read-only mapping given by its (key, value) pairs in order, a
    lookup that raises KeyError, and its length."""

    __slots__ = ("_pairs", "_lookup", "_len")

    def __init__(self, pairs, lookup, length: int):
        self._pairs = pairs
        self._lookup = lookup
        self._len = length

    def __getitem__(self, key):
        return self._lookup(key)

    def __iter__(self):
        return (key for key, _ in self._pairs())

    def __len__(self):
        return self._len

    def items(self):
        return _Items(self)

    def values(self):
        return _Values(self)


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._pairs()


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return (value for _, value in self._mapping._pairs())


def _model_polys(psi: dict[int, HeckeElt]):
    """(F, G, P_FG) over one model's basis: row by row in psi's order,
    the diagonal first, then the row's coefficients in their order."""
    for f, elt in psi.items():
        coeffs = elt.coeffs
        yield f, f, coeffs[f]
        for g, poly in coeffs.items():
            if g != f:
                yield f, g, poly


def _to_global(tag, ind, elt: HeckeElt) -> HeckeElt:
    return HeckeElt(tag, {ind[g]: poly for g, poly in elt.coeffs.items()})


def kl_basis_model(model: IntegralModel):
    """Kazhdan-Lusztig basis of one integral model.

    Returns (psi, polys) where psi maps model coset ids to basis elements
    and polys maps (F, G) model coset pairs, diagonal included.
    """
    psi = _kl_basis(model, {})
    polys = {(f, g): poly for f, g, poly in _model_polys(psi)}
    return psi, polys


def _kl_basis(model: IntegralModel, store: dict) -> dict[int, HeckeElt]:
    """The basis recursion on the model's coset table, by coset id: ids
    ascend by length, and coset 0 is W_lambda's own.

    Each finished element's coefficients are replaced by their canonical
    objects in store (value -> object), so an equal polynomial is held
    once however often it occurs; the diagonal 1 is one object.
    """
    quotient = model.quotient
    tag = model_tag(model)
    if 0 not in quotient.cosets[0].member_ids:
        raise AssertionError("base model coset does not contain the identity")
    psi: dict[int, HeckeElt] = {}
    for f in range(quotient.n_cosets):
        if f == 0:
            xi = delta(tag, 0)
        else:
            r, lower = quotient.descent(f)
            xi = t_alpha_model(model, r, psi[lower])
            xi = _subtract_mu(xi, quotient.length(f), psi.__getitem__, quotient.length)
            _assert_kl_shape(xi, f, quotient.leq)
        psi[f] = HeckeElt(
            xi.tag, {g: store.setdefault(p, p) for g, p in xi.coeffs.items()}
        )
    return psi


def _subtract_mu(xi: HeckeElt, top_length: int, basis, length) -> HeckeElt:
    """Clear the constant terms of xi below top_length.

    For each D in xi's support with length(D) < top_length, longest first
    and by id among equal lengths, whose coefficient has a nonzero
    constant term mu, subtract basis(D).scale(mu).  basis(D) lives on the
    lower interval of D, so each subtraction only brings in cosets that
    come later in the walk; they are pushed as they appear.
    """
    heap = [(-length(d), d) for d in xi.coeffs if length(d) < top_length]
    heapq.heapify(heap)
    queued = {d for _, d in heap}
    while heap:
        _, d = heapq.heappop(heap)
        mu = xi.coeff(d).coeff(0)
        if not mu:
            continue
        lower = basis(d)
        xi = xi - lower.scale(mu)
        for e in lower.coeffs:
            if e not in queued and length(e) < top_length:
                queued.add(e)
                heapq.heappush(heap, (-length(e), e))
    return xi


def _assert_kl_shape(elt: HeckeElt, top: int, leq) -> None:
    if elt.coeff(top) != LaurentPoly.one():
        raise AssertionError(f"leading coefficient at {top} is not 1")
    for cid, poly in elt.coeffs.items():
        if cid == top:
            continue
        if not poly.in_qZq():
            raise AssertionError(
                f"coefficient {poly.text()} at {cid} has a constant term"
            )
        if not leq(cid, top):
            raise AssertionError(f"support at {cid} escapes the lower interval")


def phi_transport(tc: ThetaCosets, models, psi_by_u) -> dict[int, HeckeElt]:
    """Path A: transport each model basis along ind."""
    tag = global_tag(tc)
    phi: dict[int, HeckeElt] = {}
    for model in models:
        for f, elt in psi_by_u[model.u].items():
            phi[model.ind[f]] = _to_global(tag, model.ind, elt)
    return phi


def phi_direct(tc: ThetaCosets, lam: Weight) -> dict[int, HeckeElt]:
    """Path B: direct recursion on global cosets across weight moves.

    A coset with a non-integral simple descent beta is reached from C s_beta
    at the weight s_beta(weight), by relabelling; otherwise an integral
    descent alpha gives T_alpha of the shorter element, which
    `_subtract_mu` turns into a basis element by walking its support.
    Weights are interned: each distinct weight gets a small int id on
    first sight, with its non-integral and integral simple roots, and each
    weight move (id, beta) -> id is computed once.  The memo is keyed on
    (weight id, coset).
    """
    group = tc.group
    rs = group.rs
    tag = global_tag(tc)
    ids: dict[Weight, int] = {}
    weights: list[Weight] = []
    simples: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    moves: dict[tuple[int, int], int] = {}
    memo: dict[tuple[int, int], HeckeElt] = {}

    def intern(weight: Weight) -> int:
        wid = ids.get(weight)
        if wid is None:
            wid = ids[weight] = len(weights)
            weights.append(weight)
            integral = [is_integer(pair(rs, i, weight)) for i in range(rs.rank)]
            simples.append(
                (
                    tuple(i for i in range(rs.rank) if not integral[i]),
                    tuple(i for i in range(rs.rank) if integral[i]),
                )
            )
        return wid

    def move(wid: int, beta: int) -> int:
        key = (wid, beta)
        moved = moves.get(key)
        if moved is None:
            moved = moves[key] = intern(
                group.act_on_weight(group.simple_ids[beta], weights[wid])
            )
        return moved

    def compute(wid: int, c: int) -> HeckeElt:
        key = (wid, c)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if c == 0:
            result = delta(tag, 0)
            memo[key] = result
            return result
        nonintegral, integral = simples[wid]
        result = None
        for beta in nonintegral:
            step, target = tc.times_simple(c, beta)
            if step is CosetStep.LOWER:
                moved = compute(move(wid, beta), target)
                result = right_mult_simple(tc, moved, beta)
                break
        if result is None:
            for alpha in integral:
                step, target = tc.times_simple(c, alpha)
                if step is CosetStep.LOWER:
                    xi = t_alpha(tc, alpha, compute(wid, target))
                    result = _subtract_mu(
                        xi, tc.length(c), lambda d: compute(wid, d), tc.length
                    )
                    break
        if result is None:
            raise AssertionError(f"coset {c} admits no simple descent")
        _assert_kl_shape(result, c, tc.leq)
        memo[key] = result
        return result

    start = intern(lam)
    return {c: compute(start, c) for c in range(tc.n_cosets)}


def build_models(group: WeylGroup, theta, lam: Weight):
    """(cosets, integral data, integral models): the pipeline before any basis."""
    tc = build_theta_cosets(group, theta)
    idata = integral_data(group, theta, lam)
    order = subgroup_bruhat(group, idata)
    models = [
        build_integral_model(tc, idata, u, order) for u in idata.a_theta_lambda
    ]
    return tc, idata, models


def build_kl_table(group: WeylGroup, theta, lam: Weight) -> KLTable:
    """Full Path-A pipeline: cosets, integral data, models, bases.

    The recursion runs once per distinct model coset table, and the bases
    share one polynomial store, so an equal coefficient is one object
    across the whole table.
    """
    tc, idata, models = build_models(group, theta, lam)
    store: dict[LaurentPoly, LaurentPoly] = {}
    bases: dict[ThetaCosets, dict[int, HeckeElt]] = {}
    for model in models:
        if model.quotient not in bases:
            bases[model.quotient] = _kl_basis(model, store)
    return KLTable(
        group=group,
        tc=tc,
        lam=lam,
        idata=idata,
        models=models,
        psi={model.u: bases[model.quotient] for model in models},
    )
