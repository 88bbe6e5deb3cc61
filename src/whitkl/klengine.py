"""Kazhdan-Lusztig bases and polynomials for the coset modules.

Two independent paths compute the basis phi on the global coset module:

* Path A (production): run the parabolic recursion inside each integral
  model, then transport along ind.
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
from dataclasses import dataclass

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
    "build_kl_table",
]


@dataclass
class KLTable:
    group: WeylGroup
    tc: ThetaCosets
    lam: Weight
    idata: IntegralData
    models: list[IntegralModel]
    psi: dict[int, dict[int, HeckeElt]]  # u -> model coset -> element
    phi: dict[int, HeckeElt]  # global coset -> element
    polys: dict[tuple[int, int], LaurentPoly]  # (C, D) global ids -> P_{CD}

    def model_of_coset(self, cid: int) -> IntegralModel:
        for model in self.models:
            if cid in model.restrict:
                return model
        raise KeyError(f"coset {cid} not in any model")


def kl_basis_model(model: IntegralModel):
    """Kazhdan-Lusztig basis of one integral model.

    Returns (psi, polys) where psi maps model coset ids to basis elements
    and polys maps (F, G) model coset pairs, diagonal included.
    """
    tag = model_tag(model)
    psi: dict[int, HeckeElt] = {}
    polys: dict[tuple[int, int], LaurentPoly] = {}
    order = sorted(range(model.n_cosets), key=lambda f: (model.length(f), f))
    base = order[0]
    if 0 not in model.cosets[base].member_ids:
        raise AssertionError("base model coset does not contain the identity")
    for f in order:
        if f == base:
            psi[f] = delta(tag, f)
            polys[(f, f)] = LaurentPoly.one()
            continue
        alpha = None
        for r in model.pi_lambda:
            step, lower = model.times_simple(f, r)
            if step is CosetStep.LOWER:
                alpha = (r, lower)
                break
        if alpha is None:
            raise AssertionError("non-base model coset admits no descent")
        r, lower = alpha
        xi = t_alpha_model(model, r, psi[lower])
        xi = _subtract_mu(xi, model.length(f), psi.__getitem__, model.length)
        _assert_kl_shape(xi, f, model.leq)
        psi[f] = xi
        polys[(f, f)] = LaurentPoly.one()
        for g, poly in xi.coeffs.items():
            if g != f:
                polys[(f, g)] = poly
    return psi, polys


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
        psi = psi_by_u[model.u]
        for f, elt in psi.items():
            coeffs = {model.ind[g]: poly for g, poly in elt.coeffs.items()}
            phi[model.ind[f]] = HeckeElt(tag, coeffs)
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


def build_kl_table(group: WeylGroup, theta, lam: Weight) -> KLTable:
    """Full Path-A pipeline: cosets, integral data, models, bases, phi."""
    tc = build_theta_cosets(group, theta)
    idata = integral_data(group, theta, lam)
    order = subgroup_bruhat(group, idata)
    models = [
        build_integral_model(tc, idata, u, order) for u in idata.a_theta_lambda
    ]
    psi_by_u = {}
    model_polys = {}
    for model in models:
        psi, polys = kl_basis_model(model)
        psi_by_u[model.u] = psi
        model_polys[model.u] = polys
    phi = phi_transport(tc, models, psi_by_u)
    global_polys: dict[tuple[int, int], LaurentPoly] = {}
    for model in models:
        for (f, g), poly in model_polys[model.u].items():
            global_polys[(model.ind[f], model.ind[g])] = poly
    return KLTable(
        group=group,
        tc=tc,
        lam=lam,
        idata=idata,
        models=models,
        psi=psi_by_u,
        phi=phi,
        polys=global_polys,
    )
