"""Kazhdan-Lusztig bases and polynomials for the coset modules.

Two independent paths compute the basis phi on the global coset module:

* Path A (production): run the parabolic recursion once per model class
  (the models sharing one coset table), then transport along ind.
  `build_kl_table` keeps one basis psi per class, with every coefficient
  interned in one value -> object store (the polynomials take few
  distinct values: 1 691 among the 396 809 of F4 with Theta empty at
  -rho), and serves phi and the polynomial table as views over psi.
* Path B (cross-check): recurse directly on global cosets, using the
  T-operator for integral simple descents and label relabeling for
  non-integral ones.  It reads lam only through its integral roots, and
  moves that root set, never a weight, across a non-integral wall.

Path A's recursion runs on packed ints.  Every polynomial it meets lies
in Z[q]: the basis coefficients off the diagonal are in qZ[q], and only
those meet T's q^-1.  So a polynomial is kept as its value at q = 2**B
(B = `_DIGIT_BITS`, 64), whose balanced base-2**B digits, each in
[-2**(B-1), 2**(B-1)), are its coefficients: q p is p << B, q^-1 p is
p >> B, mu is the balanced low digit, and p is in qZ[q] iff p & (2**B - 1)
is 0.  `_digit_cap` bounds every stored coefficient and every mu so that
no digit of any intermediate overflows; a larger one raises
AssertionError, so a width too small for a table fails and never yields
wrong values.  At the end each distinct value is decoded to one
`LaurentPoly`, and the table hands out `HeckeElt`s over those.

Path B's recursion runs on coefficient tuples: a polynomial in Z[q] is
the tuple of its coefficients of q^0, q^1, ..., without trailing zeros;
q p is (0,) + p, and q^-1 p is p[1:] once p[0] == 0 is checked.  Its
finished coefficients are interned by tuple, and each distinct one is
decoded to one `LaurentPoly` at the end.  The paths share no polynomial
arithmetic, so their agreement also checks the packing and the tuples.

At an integral descent both paths apply one T-operator to a shorter
basis element, getting xi, then subtract mu * basis(D) for every shorter
D whose coefficient in xi has a nonzero constant term mu, longest D
first.  `_subtract_mu` does this for both paths, given each ring's
constant term and "subtract mu * b".  Every row is KL-shaped, 1 at its
coset and in qZ[q] elsewhere (Kazhdan-Lusztig, Invent. Math. 53, 1979;
Deodhar, J. Algebra 111, 1987), as `_assert_kl_shape` checks before a
row is stored.  So a subtraction changes no other coset's constant term,
and every mu is read off xi in one pass, before the first subtraction.
Each path applies T in its own ring, reading every coset move C -> C s
and the lengths from the one table `ThetaCosets` builds and checks
(`targets`, `lengths`); Path B's relabelling and descent scan read the
same table.  Both keep each row as a plain dict, coset -> packed int or
tuple, and wrap only finished rows in `HeckeElt`s: psi's and
`phi_direct`'s values.

The two must agree everywhere; disagreement is the strongest available
bug detector and is surfaced, never patched.
"""

from __future__ import annotations

from itertools import compress
from operator import add, itemgetter, sub
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass

from .cosetlab import (
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
    _trusted_elt,
    global_tag,
    model_tag,
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

    def __post_init__(self):
        where: list[tuple[IntegralModel, int] | None] = [None] * self.tc.n_cosets
        for model in self.models:
            for f, c in enumerate(model.ind):
                where[c] = (model, f)
        self._where = where
        self._tag = global_tag(self.tc)
        bases = [self.psi[model.u] for model in self.models]
        self._n_phi = sum(len(psi) for psi in bases)
        self._n_polys = sum(len(elt.coeffs) for psi in bases for elt in psi.values())

    # views are made when read: a table holding views that hold its bound
    # methods would be a cycle, keeping psi until the cycle collector runs
    @property
    def phi(self) -> Mapping[int, HeckeElt]:
        """Global coset -> element."""
        return _View(self._phi_pairs, self._phi_at, self._n_phi)

    @property
    def polys(self) -> Mapping[tuple[int, int], LaurentPoly]:
        """(C, D) global ids -> P_{CD}, diagonal included."""
        return _View(self._poly_pairs, self._poly_at, self._n_polys)

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
        return _transported(self._tag, self.models, self.psi)

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
    return _trusted_elt(tag, {ind[g]: poly for g, poly in elt.coeffs.items()})


def _transported(tag, models, psi_by_u):
    """(global coset, element): each model's basis, in order, along its ind."""
    for model in models:
        ind = model.ind
        for f, elt in psi_by_u[model.u].items():
            yield ind[f], _to_global(tag, ind, elt)


def kl_basis_model(model: IntegralModel):
    """Kazhdan-Lusztig basis of one integral model.

    Returns (psi, polys) where psi maps model coset ids to basis elements
    and polys maps (F, G) model coset pairs, diagonal included.
    """
    psi = _kl_basis(model, {})
    polys = {(f, g): poly for f, g, poly in _model_polys(psi)}
    return psi, polys


# Path A's digit width B: a polynomial in Z[q] is the int it takes at q = 2**B
_DIGIT_BITS = 64
# a model has at most 2**16 cosets (the group-size cap is 51 840), so an
# element takes at most 2**16 subtractions
_COSET_BITS = 16


def _digit_cap() -> int:
    """The largest |coefficient| of a stored value, and the largest |mu|.

    With both at most 2**k, k = (B - 2 - 16) // 2, a digit of an
    intermediate sums one T-step's two stored digits, at most 2**(k+1),
    and fewer than 2**16 products of a mu and a stored digit, at most
    2**(16+2k) <= 2**(B-2).  So it stays below 2**(B-1) in size, and the
    balanced digits are the coefficients.  B must be at least 18 (k >= 0);
    at B = 64 the cap is 2**23.
    """
    k = (_DIGIT_BITS - 2 - _COSET_BITS) // 2
    if k < 0:
        raise AssertionError(f"digit width {_DIGIT_BITS} holds no coefficient")
    return 1 << k


def _decode(packed: int, cap: int) -> LaurentPoly:
    """The polynomial whose balanced base-2**B digits are packed's; a digit
    above cap in size raises AssertionError."""
    bits = _DIGIT_BITS
    base = 1 << bits
    terms = {}
    e = 0
    while packed:
        digit = packed & base - 1
        if digit >= base >> 1:
            digit -= base
        if digit:
            if not -cap <= digit <= cap:
                raise AssertionError(
                    f"coefficient {digit} of q^{e} is above the cap {cap} "
                    f"of {bits}-bit digits"
                )
            terms[e] = digit
        packed = (packed - digit) >> bits
        e += 1
    return LaurentPoly(terms)


def _kl_basis(model: IntegralModel, store: dict) -> dict[int, HeckeElt]:
    """The basis recursion on the model's coset table, by coset id: ids
    ascend by length, and coset 0 is W_lambda's own.

    The recursion runs on rows, model coset -> packed int (see
    `_digit_cap`): q p is p << B, and q^-1 p, met only on coefficients in
    qZ[q], is p >> B.  Each finished row's coefficients are interned.  At
    the end each value new to store (packed int -> LaurentPoly, shared by
    the table) is decoded once and checked against the cap, and each row
    is handed back as a `HeckeElt` on the decoded objects, so an equal
    polynomial is held once however often it occurs.  Every mu is checked
    as it is read.  Checking stored values at the end suffices: the first
    one above the cap was computed from values within it, so its digits
    are exact and its check fails.
    """
    quotient = model.quotient
    n = quotient.n_cosets
    tag = model_tag(model)
    if 0 not in quotient.members[0]:
        raise AssertionError("base model coset does not contain the identity")
    if n > 1 << _COSET_BITS:
        raise AssertionError(f"{n} cosets in one model")
    bits = _DIGIT_BITS
    mask = (1 << bits) - 1
    cap = _digit_cap()
    lengths = quotient.lengths
    length = lengths.__getitem__
    low = mask.__and__  # nonzero iff the balanced constant term is

    def constant(p: int) -> int:
        mu = p & mask
        if mu >> bits - 1:
            mu -= mask + 1
        if not -cap <= mu <= cap:
            raise AssertionError(f"mu {mu} is above the cap {cap}")
        return mu

    def in_qzq(p: int) -> bool:
        return not p & mask

    canon: dict[int, int] = {}
    rows: dict[int, dict[int, int]] = {}
    for f in range(n):
        if f == 0:
            xi = {0: 1}
        else:
            r, lower = quotient.descent(f)
            targets = quotient.targets(r)
            out: dict[int, int] = {}
            for cid, p in rows[lower].items():
                target = targets[cid]
                if target == cid:
                    continue
                if lengths[target] > lengths[cid]:
                    shifted = p << bits
                elif p & mask:
                    raise AssertionError(f"q^-1 meets a constant term at {cid}")
                else:
                    shifted = p >> bits
                out[cid] = out.get(cid, 0) + shifted
                out[target] = out.get(target, 0) + p
            xi = _subtract_mu(
                out, lengths[f], rows.__getitem__, length, low, constant, _submul
            )
            _assert_kl_shape(xi, f, quotient.ideal(f), 1, in_qzq)
        rows[f] = {g: canon.setdefault(p, p) for g, p in xi.items()}
    for p in canon:
        if p not in store:
            store[p] = _decode(p, cap)
    return {
        f: _trusted_elt(tag, {g: store[p] for g, p in rows.pop(f).items()})
        for f in range(n)
    }


def _submul(a, b, mu):
    """a - mu * b, for `LaurentPoly` and for Path A's packed ints."""
    return a - b * mu


def _subtract_mu(
    xi: dict,
    top_length: int,
    basis,
    length,
    low,
    constant,
    submul,
) -> dict:
    """The row xi (coset -> coefficient) with its constant terms below
    top_length cleared.

    For each D in xi's support with length(D) < top_length whose
    coefficient has a nonzero constant term mu, longest first and by id
    among equal lengths, subtract mu * basis(D), the row of D.  The rows
    must be KL-shaped (see the module docstring), so the D and their mu
    are read off xi in one pass: low(p), a C-level map, is nonzero iff
    p's constant term is, and the ring's checked constant(p) runs only
    where it is.  On rows not KL-shaped the result can keep an
    off-diagonal constant term, which `_assert_kl_shape` rejects.

    The walk runs in any ring, given its submul(a, b, mu) = a - mu * b,
    where a = 0 stands for an absent coefficient: Path A's packed ints or
    Path B's coefficient tuples.  It drops xi's zero coefficients, and
    works on xi itself, which the caller gives up, when it has none.
    """
    coeffs = xi if all(xi.values()) else {d: p for d, p in xi.items() if p}
    # D of length ell is keyed D - ell * 2**32, so the sort puts the
    # longest first and the smallest id among equal lengths: coset ids are
    # below the group-size cap, far below 2**32
    keys = sorted(
        d - (ell << 32)
        for d in compress(coeffs, map(low, coeffs.values()))
        if (ell := length(d)) < top_length
    )
    mus = [(d, constant(coeffs[d])) for d in (key & 0xFFFFFFFF for key in keys)]
    for d, mu in mus:
        for e, poly in basis(d).items():
            value = submul(coeffs.get(e, 0), poly, mu)
            if value:
                coeffs[e] = value
            else:
                del coeffs[e]
    return coeffs


def _assert_kl_shape(coeffs: dict, top: int, ideal: int, one, in_qzq) -> None:
    """The row's coefficient at top is one and the others pass in_qzq,
    both given in the caller's ring, and its support lies in ideal, top's
    lower ideal."""
    if coeffs.get(top) != one:
        raise AssertionError(f"leading coefficient at {top} is not 1")
    for cid, poly in coeffs.items():
        if not ideal >> cid & 1:
            raise AssertionError(f"support at {cid} escapes the lower interval")
        if cid != top and not in_qzq(poly):
            raise AssertionError(f"coefficient at {cid} is not in qZ[q]")


def phi_transport(tc: ThetaCosets, models, psi_by_u) -> dict[int, HeckeElt]:
    """Path A: transport each model basis along ind."""
    return dict(_transported(global_tag(tc), models, psi_by_u))


# Path B's ring: a polynomial in Z[q] is the tuple of its coefficients of
# q^0, q^1, ..., trimmed of trailing zeros, so 0 is ().


def _trimmed(p: tuple) -> tuple:
    """p without its trailing zeros."""
    while p and not p[-1]:
        p = p[:-1]
    return p


def _tuple_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    n = len(b)
    if len(a) == n:
        return _trimmed(tuple(map(add, a, b)))
    return (*map(add, a, b), *a[n:])


def _tuple_submul(a, b: tuple, mu: int) -> tuple:
    """a - mu * b for mu != 0 (the walk skips a zero mu), with a = 0
    standing for () as `_subtract_mu` passes it."""
    if mu != 1:
        b = tuple([mu * y for y in b])
    if not a:
        return tuple([-y for y in b])
    n = len(b)
    if len(a) == n:
        return _trimmed(tuple(map(sub, a, b)))
    if len(a) < n:
        a += (0,) * (n - len(a))
    return (*map(sub, a, b), *a[n:])


def _tuple_times_q(p: tuple) -> tuple:
    return (0,) + p if p else p


def _tuple_over_q(p: tuple) -> tuple:
    """q^-1 p, for p in qZ[q]; a nonzero constant term raises
    AssertionError."""
    if p and p[0]:
        raise AssertionError("q^-1 meets a constant term")
    return p[1:]


# the constant term of a nonzero tuple, a C-level call
_tuple_constant = itemgetter(0)


def _tuple_in_qzq(p: tuple) -> bool:
    return not p[0]


def _tuple_decode(p: tuple) -> LaurentPoly:
    return LaurentPoly({e: c for e, c in enumerate(p) if c})


def phi_direct(tc: ThetaCosets, lam: Weight) -> dict[int, HeckeElt]:
    """Path B: direct recursion on global cosets across weight moves.

    A coset with a non-integral simple descent beta is reached from C s_beta
    at the weight s_beta(weight), by relabelling; otherwise an integral
    descent alpha gives T_alpha of the shorter element, which
    `_subtract_mu` turns into a basis element by walking its support.
    The recursion reads a weight mu only through its integral roots
    Sigma_mu = {r : <r^vee, mu> in Z}: simple root i is integral iff it is
    in Sigma_mu, and Sigma_{s_beta mu} = s_beta(Sigma_mu).  So it runs on
    integral-root classes, each a bitmask over `rs.roots` with a small int
    id: lam's takes one pass of `pair` over the roots, and each move
    (id, beta) -> id permutes bits by `rs.simple_reflections[beta]` once.
    The memo is keyed on (class id, coset).

    The recursion runs on rows, coset -> coefficient tuple (see
    `_tuple_add`).  The descent scan, the T-step and the relabelling read
    each move C -> C s from tc's move table (`ThetaCosets.targets`), whose
    build checked that it is a bijection, and compare `tc.lengths`.
    Finished coefficients are interned by tuple, and each
    distinct one met in the result is decoded once to a `LaurentPoly`.
    """
    rs = tc.group.rs
    n = tc.n_cosets
    tag = global_tag(tc)
    lengths = tc.lengths
    length = lengths.__getitem__
    targets = {s: tc.targets(s) for s in range(rs.rank)}
    ids: dict[int, int] = {}
    # class id -> (integral roots, non-integral simples, integral simples)
    classes: list[tuple[int, list[int], list[int]]] = []
    moves: dict[tuple[int, int], int] = {}
    memo: dict[tuple[int, int], dict[int, tuple]] = {}
    canon: dict[tuple, tuple] = {}
    one = (1,)

    def intern(roots: int) -> int:
        k = ids.get(roots)
        if k is None:
            k = ids[roots] = len(classes)
            split = ([], [])  # non-integral, integral simple roots
            for i in range(rs.rank):
                split[roots >> i & 1].append(i)
            classes.append((roots, *split))
        return k

    def move(k: int, beta: int) -> int:
        moved = moves.get((k, beta))
        if moved is None:
            # r is integral at s_beta mu iff s_beta r is integral at mu
            roots = classes[k][0]
            image = rs.simple_reflections[beta]
            moved = intern(sum((roots >> s & 1) << r for r, s in enumerate(image)))
            moves[k, beta] = moved
        return moved

    def relabel(x: dict, beta: int) -> dict:
        """The row x with each label C moved to C s_beta, a bijection."""
        table = targets[beta]
        return {table[cid]: p for cid, p in x.items()}

    def t_step(x: dict, alpha: int) -> dict:
        """T_alpha x: q d_C + d_{C s} / 0 / q^-1 d_C + d_{C s}."""
        table = targets[alpha]
        out: dict[int, tuple] = {}
        for cid, p in x.items():
            target = table[cid]
            if target == cid:
                continue
            if lengths[target] > lengths[cid]:
                shifted = _tuple_times_q(p)
            else:
                shifted = _tuple_over_q(p)
            prev = out.get(cid)
            out[cid] = shifted if prev is None else _tuple_add(prev, shifted)
            prev = out.get(target)
            out[target] = p if prev is None else _tuple_add(prev, p)
        return out

    def compute(k: int, c: int) -> dict:
        key = (k, c)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if c == 0:
            result = memo[key] = {0: one}
            return result
        _, nonintegral, integral = classes[k]
        result = None
        for beta in nonintegral:
            target = targets[beta][c]
            if lengths[target] < lengths[c]:
                result = relabel(compute(move(k, beta), target), beta)
                break
        if result is None:
            for alpha in integral:
                target = targets[alpha][c]
                if lengths[target] < lengths[c]:
                    xi = _subtract_mu(
                        t_step(compute(k, target), alpha),
                        lengths[c],
                        lambda d: compute(k, d),
                        length,
                        _tuple_constant,
                        _tuple_constant,
                        _tuple_submul,
                    )
                    result = {d: canon.setdefault(p, p) for d, p in xi.items()}
                    break
        if result is None:
            raise AssertionError(f"coset {c} admits no simple descent")
        _assert_kl_shape(result, c, tc.ideal(c), one, _tuple_in_qzq)
        memo[key] = result
        return result

    start = intern(sum(is_integer(pair(rs, r, lam)) << r for r in range(rs.n_roots)))
    basis = [compute(start, c) for c in range(n)]
    memo.clear()
    store: dict[tuple, LaurentPoly] = {}
    for row in basis:
        for p in row.values():
            if p not in store:
                store[p] = _tuple_decode(p)
    return {
        c: _trusted_elt(tag, {d: store[p] for d, p in row.items()})
        for c, row in enumerate(basis)
    }


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
    store: dict[int, LaurentPoly] = {}
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
