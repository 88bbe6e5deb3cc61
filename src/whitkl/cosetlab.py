"""Right cosets and their order, integral data, cross-sections, integral
models, conjugation transport, descent-chain search, and stabilizer data.

One class, ThetaCosets, holds W_J \\ W' for a Coxeter system (W', S')
inside the Weyl group and a subset J of S': the global cosets are
(W, simple reflections, Theta), and an integral model's cosets are
(W_lambda, reflections of Pi_lambda, Theta(u,lambda)).  Coset ids are
assigned by sorting on (length of longest element, element id), so all
derived tables are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .rootsystem import (
    RootSystem,
    Weight,
    antidominance_witness,
    is_integer,
    is_zero,
    pair,
)
from .weylgroup import WeylGroup

__all__ = [
    "CosetStep",
    "CosetRecord",
    "ThetaCosets",
    "IntegralData",
    "IntegralModel",
    "IntegralSystem",
    "StabilizerData",
    "build_theta_cosets",
    "integral_data",
    "build_integral_model",
    "conjugate_model",
    "descent_chain",
    "stabilizer_data",
    "subgroup_bruhat",
]


class CosetStep(Enum):
    RAISE = "raise"
    FIX = "fix"
    LOWER = "lower"


@dataclass(frozen=True)
class CosetRecord:
    id: int
    member_ids: tuple[int, ...]
    longest: int
    shortest: int


class ThetaCosets:
    """W_J \\ W', the right cosets of a standard parabolic subgroup W_J of a
    Coxeter system (W', S') inside the Weyl group, with their Bruhat order
    and simple-step moves.

    W' is given by its member ids, S' by a dict from each generator label
    s to its right-step table (steps[s][w] is the id of w s), its length
    function by a table of lengths by id, and J by a subset of the
    generator labels.
    ``build_theta_cosets`` makes (W, simple reflections, Theta), and
    ``IntegralSystem.cosets`` makes (W_lambda, reflections of Pi_lambda,
    Theta(u,lambda)) for the integral models.  ``theta`` holds J.

    The order is the Bruhat order of (W', S') on longest coset elements.
    It is kept as one lower ideal per coset: an int bitset over coset ids
    with bit C set iff C <= D.  Ideals are built on first use and memoised,
    from the subword property [e, w] = [e, ws] u [e, ws] s for ws < w
    (Bjorner and Brenti, Combinatorics of Coxeter Groups, Sec. 2.2) read
    on cosets: ideal(0) = {0}, and for a LOWER step C s,
    ideal(C) = ideal(Cs) u {D s : D in ideal(Cs)}.  Coset ids ascend with
    length, so ideal(C) has no bit above C.  All ideals together take at
    most n^2/8 bytes for n cosets (0.46 MB for D5 with Theta empty).
    """

    def __init__(self, group: WeylGroup, members, steps, lengths, theta):
        self.group = group
        self.theta = tuple(theta)
        self._steps = steps
        self._build(members, lengths)

    def _build(self, members, lengths):
        # W_J w = (w^-1 W_J)^-1, and w^-1 W_J is a right-step orbit
        inverse = self.group.inverse
        theta_steps = [self._steps[j] for j in self.theta]
        seen = set()
        raw = []
        for start in members:
            if start in seen:
                continue
            orbit = {inverse[start]}
            queue = [inverse[start]]
            while queue:
                x = queue.pop()
                for step in theta_steps:
                    y = step[x]
                    if y not in orbit:
                        orbit.add(y)
                        queue.append(y)
            coset = sorted(inverse[x] for x in orbit)
            seen.update(coset)
            raw.append(coset)
        # coset 0 holds the identity and is the unique minimum
        raw.sort(key=lambda coset: max((lengths[x], x) for x in coset))
        coset_of: list[int | None] = [None] * self.group.size
        cosets = []
        for c, coset in enumerate(raw):
            top = max(lengths[x] for x in coset)
            longest = [x for x in coset if lengths[x] == top]
            if len(longest) != 1:
                raise AssertionError(f"coset {c} has no unique longest element")
            shortest = min(coset, key=lambda x: (lengths[x], x))
            cosets.append(CosetRecord(c, tuple(coset), longest[0], shortest))
            for x in coset:
                coset_of[x] = c
        self.cosets = cosets
        self.coset_of = coset_of
        self.n_cosets = len(cosets)
        self.w_theta_ids = frozenset(cosets[0].member_ids)
        self._longest = [c.longest for c in cosets]
        self._lengths = [lengths[c.longest] for c in cosets]
        self._ideals: list[int | None] = [1] + [None] * (len(cosets) - 1)

    def ideal(self, c: int) -> int:
        """The lower ideal of C: bit D is set iff D <= C."""
        ideal = self._ideals[c]
        if ideal is None:
            s, lower = self.descent(c)
            below = self.ideal(lower)
            right = self._steps[s]
            coset_of, longest = self.coset_of, self._longest
            ideal = below
            for d in _bits(below):
                ideal |= 1 << coset_of[right[longest[d]]]
            self._ideals[c] = ideal
        return ideal

    def leq(self, c: int, d: int) -> bool:
        return self.ideal(d) >> c & 1 == 1

    def below(self, c: int) -> list[int]:
        """Ascending ids of the cosets strictly below C."""
        return [d for d in _bits(self.ideal(c)) if d != c]

    def length(self, c: int) -> int:
        return self._lengths[c]

    def times_simple(self, c: int, s) -> tuple[CosetStep, int]:
        """Classify C s against C, for a generator s, and return the target."""
        x = self._steps[s][self._longest[c]]
        target = self.coset_of[x]
        if target == c:
            return (CosetStep.FIX, c)
        # in the moving cases the longest element of the target is w^C s
        if self._longest[target] != x:
            raise AssertionError("coset step does not move the longest element")
        if self._lengths[target] > self._lengths[c]:
            return (CosetStep.RAISE, target)
        return (CosetStep.LOWER, target)

    def descent(self, c: int) -> tuple[int, int]:
        """(s, C s) for the first generator s that lowers C."""
        for s in self._steps:
            step, lower = self.times_simple(c, s)
            if step is CosetStep.LOWER:
                return s, lower
        raise AssertionError(f"coset {c} admits no simple descent")

    def times_element(self, c: int, w: int) -> int:
        """Coset of C w (well-defined from any member)."""
        return self.coset_of[self.group.mult(self._longest[c], w)]


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> list[int]:
    """Ascending positions of the set bits of mask.

    The binary digits, lowest first, become a bytes of 0/1 flags that
    `compress` reads, so no Python-level step runs per bit.
    """
    flags = bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)
    return list(itertools.compress(range(len(flags)), flags))


def build_theta_cosets(group: WeylGroup, theta) -> ThetaCosets:
    """W_Theta \\ W for a set Theta of simple indices."""
    theta = tuple(sorted(theta))
    rank = group.rs.rank
    if any(not 0 <= i < rank for i in theta):
        raise ValueError(f"theta {theta} not a subset of simple indices")
    steps = {i: [row[i] for row in group.right_table] for i in range(rank)}
    lengths = [w.length for w in group.elements]
    return ThetaCosets(group, range(group.size), steps, lengths, theta)


@dataclass(frozen=True)
class IntegralData:
    lam: Weight
    sigma_lambda_pos: tuple[int, ...]
    pi_lambda: tuple[int, ...]
    w_lambda_ids: frozenset[int]
    a_lambda: tuple[int, ...]
    a_theta_lambda: tuple[int, ...]


def _integral_positive_roots(rs: RootSystem, lam: Weight) -> tuple[int, ...]:
    return tuple(
        r for r in range(rs.positive_root_count) if is_integer(pair(rs, r, lam))
    )


def _simple_roots_of(rs: RootSystem, positive_indices) -> tuple[int, ...]:
    coords = {rs.roots[r]: r for r in positive_indices}
    simple = []
    for r in positive_indices:
        target = rs.roots[r]
        decomposable = any(
            tuple(t - s for t, s in zip(target, other)) in coords
            for other in coords
            if other != target
        )
        if not decomposable:
            simple.append(r)
    return tuple(simple)


def _cartan_inverse(cartan):
    """Exact inverse of a Cartan matrix, via Gauss-Jordan elimination."""
    n = len(cartan)
    a = [[Fraction(cartan[i][j]) for j in range(n)] for i in range(n)]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = 1 / a[col][col]
        a[col] = [x * scale for x in a[col]]
        inv[col] = [x * scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


@functools.cache
def _integer_cartan_inverse(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(e, e * cartan^-1) for the least e making it an integer matrix; one
    elimination per Cartan matrix."""
    inv = _cartan_inverse(cartan)
    e = math.lcm(*(x.denominator for row in inv for x in row))
    return e, tuple(tuple(int(x * e) for x in row) for row in inv)


def _root_lattice_stabilizer(group: WeylGroup, lam: Weight) -> frozenset[int]:
    """{w : w lam - lam in Z.Sigma}, read off the integer orbit of lam.

    With rows[w] = den * (coroot values of w lam) as in
    ``WeylGroup.weight_orbit``, let d = rows[w] - rows[0].  Then
    w lam - lam lies in Z.Sigma iff the transcendental parts of d vanish
    and cartan^-1 applied to its rational parts, divided by den, is
    integral: iff e * cartan^-1 * d is divisible by e * den, for the least
    e making e * cartan^-1 an integer matrix.
    """
    e, e_inv = _integer_cartan_inverse(group.rs.cartan_matrix)
    den, rows = group.weight_orbit(lam)
    modulus = e * den
    stride = 1 + lam.n_transcendentals
    base = rows[0]
    base_rational = base[::stride]
    base_t = [base[t::stride] for t in range(1, stride)]
    members = []
    for w, row in enumerate(rows):
        if any(row[t::stride] != bt for t, bt in enumerate(base_t, 1)):
            continue
        d = [x - b for x, b in zip(row[::stride], base_rational)]
        if all(sum(map(operator.mul, e_row, d)) % modulus == 0 for e_row in e_inv):
            members.append(w)
    return frozenset(members)


def integral_data(group: WeylGroup, theta, lam: Weight) -> IntegralData:
    """Integral roots, W_lambda and the cross-sections A_lambda, A_Theta_lambda.

    W_lambda is generated by the reflections of Pi_lambda and checked on
    every call against its lattice description {w : w lam - lam in Z.Sigma},
    which is read off the integer orbit rows of ``WeylGroup.weight_orbit``
    (den * coroot values of w lam, rational part then transcendental
    coefficients per simple coroot); see ``_root_lattice_stabilizer``.
    """
    rs = group.rs
    if lam.rank != rs.rank:
        raise ValueError("weight rank does not match root system")
    sigma_pos = _integral_positive_roots(rs, lam)
    pi_lambda = _simple_roots_of(rs, sigma_pos)
    w_lambda = group.subgroup_closure([group.reflection(r) for r in pi_lambda])
    lattice_stab = _root_lattice_stabilizer(group, lam)
    if lattice_stab != w_lambda:
        raise AssertionError(
            "integral Weyl group disagrees with its lattice description"
        )
    # u(Sigma_lambda^+) > 0 iff u(Pi_lambda) > 0; ids ascend with length
    a_lambda = tuple(group.positive_on(pi_lambda))
    if len(a_lambda) * len(w_lambda) != group.size:
        raise AssertionError("|A_lambda| * |W_lambda| != |W|")
    theta = tuple(sorted(theta))
    shortest_reps = _shortest_coset_reps(group, theta)
    a_theta_lambda = tuple(u for u in a_lambda if u in shortest_reps)
    return IntegralData(
        lam=lam,
        sigma_lambda_pos=sigma_pos,
        pi_lambda=pi_lambda,
        w_lambda_ids=w_lambda,
        a_lambda=a_lambda,
        a_theta_lambda=a_theta_lambda,
    )


def _shortest_coset_reps(group: WeylGroup, theta) -> frozenset[int]:
    """w_Theta . ^Theta W = {w : w^-1 Theta inside positive roots}."""
    inverse = group.inverse
    return frozenset(inverse[x] for x in group.positive_on(theta))


class IntegralSystem:
    """The Coxeter system (W_lambda, Pi_lambda), with its length ell_lambda
    and the right-step table of each reflection in Pi_lambda.

    Its order is not the restriction of the Bruhat order of W: e.g. in B2
    with an A1 x A1 integral system, the two orthogonal simple reflections
    are incomparable here although one is a subword of the other in W.
    ``cosets(J)`` hands out one ThetaCosets per subset J of Pi_lambda, so
    every integral model with the same Theta(u,lambda) shares it.
    """

    def __init__(self, group: WeylGroup, idata: "IntegralData"):
        self.group = group
        self.members = sorted(idata.w_lambda_ids)
        self.steps = {
            r: {w: group.mult(w, group.reflection(r)) for w in self.members}
            for r in idata.pi_lambda
        }
        # ell_lambda is the length of (W_lambda, Pi_lambda): the distance
        # from e over the right steps by the reflections of Pi_lambda
        self.lengths = lengths = {0: 0}
        layer = [0]
        while layer:
            nxt = []
            for w in layer:
                for step in self.steps.values():
                    x = step[w]
                    if x not in lengths:
                        lengths[x] = lengths[w] + 1
                        nxt.append(x)
            layer = nxt
        self._cosets: dict[tuple[int, ...], ThetaCosets] = {}

    def cosets(self, theta) -> ThetaCosets:
        """W_{lambda,J} \\ W_lambda for J = theta inside Pi_lambda."""
        theta = tuple(theta)
        tc = self._cosets.get(theta)
        if tc is None:
            tc = self._cosets[theta] = ThetaCosets(
                self.group, self.members, self.steps, self.lengths, theta
            )
        return tc

    def leq(self, v: int, w: int) -> bool:
        """Bruhat order of (W_lambda, Pi_lambda) on element ids."""
        elements = self.cosets(())
        return elements.leq(elements.coset_of[v], elements.coset_of[w])


def subgroup_bruhat(group: WeylGroup, idata: "IntegralData") -> IntegralSystem:
    return IntegralSystem(group, idata)


class IntegralModel:
    """Right W_{lambda,Theta(u,lambda)}-cosets of W_lambda for one double
    coset, with the transport bijections ind / restrict.

    The cosets and their order are ``quotient``, the ThetaCosets of
    (W_lambda, Pi_lambda, Theta(u,lambda)), shared by every model of the
    same IntegralSystem with the same Theta(u,lambda).
    """

    def __init__(
        self,
        tc: ThetaCosets,
        idata: IntegralData,
        u: int,
        order: IntegralSystem | None = None,
    ):
        group = tc.group
        if u not in idata.a_theta_lambda:
            raise ValueError(f"element {u} is not in A_Theta_lambda")
        self.tc = tc
        self.idata = idata
        self.group = group
        self.u = u
        rs = group.rs
        theta_set = set(tc.theta)
        self.theta_u_lambda = tuple(
            r
            for r in idata.pi_lambda
            if _root_supported_on(rs, group.act_on_root(u, r), theta_set)
        )
        self.pi_lambda = idata.pi_lambda
        self.order = order if order is not None else subgroup_bruhat(group, idata)
        self.quotient = self.order.cosets(self.theta_u_lambda)
        self.cosets = self.quotient.cosets
        self.coset_of = self.quotient.coset_of
        self.n_cosets = self.quotient.n_cosets
        self._build_transport()

    def _build_transport(self):
        group = self.group
        tc = self.tc
        ind = []
        for f in self.cosets:
            targets = {tc.coset_of[group.mult(self.u, x)] for x in f.member_ids}
            if len(targets) != 1:
                raise AssertionError("ind is not well defined on a model coset")
            ind.append(targets.pop())
        if len(set(ind)) != len(ind):
            raise AssertionError("ind is not injective")
        self.ind = tuple(ind)
        self.restrict = {c: f for f, c in enumerate(ind)}

    def length(self, f: int) -> int:
        return self.quotient.length(f)

    def leq(self, f: int, g: int) -> bool:
        """Model order: the Bruhat order of (W_lambda, Pi_lambda) on the
        longest coset elements."""
        return self.quotient.leq(f, g)

    def times_simple(self, f: int, alpha_root: int) -> tuple[CosetStep, int]:
        """Classify F s_alpha for alpha in Pi_lambda."""
        if alpha_root not in self.pi_lambda:
            raise ValueError(f"root {alpha_root} is not in Pi_lambda")
        return self.quotient.times_simple(f, alpha_root)

    def __repr__(self):
        return f"IntegralModel(u={self.u}, cosets={self.n_cosets})"


def _root_supported_on(rs: RootSystem, root_index: int, theta_set) -> bool:
    coords = rs.roots[root_index]
    return all(c == 0 or i in theta_set for i, c in enumerate(coords))


def build_integral_model(
    tc: ThetaCosets,
    idata: IntegralData,
    u: int,
    order: IntegralSystem | None = None,
) -> IntegralModel:
    return IntegralModel(tc, idata, u, order)


def conjugate_model(model: IntegralModel, beta: int):
    """Transport a model through the non-integral simple reflection s_beta.

    Returns (model for (r, s_beta lam), mapping old model coset id -> new
    model coset id) where the mapping is F |-> s_beta F s_beta.
    """
    group = model.group
    tc = model.tc
    lam = model.idata.lam
    if is_integer(pair(group.rs, beta, lam)):
        raise ValueError(f"simple root {beta} is integral to lambda")
    s_b = group.simple_ids[beta]
    new_lam = group.act_on_weight(s_b, lam)
    new_idata = integral_data(group, tc.theta, new_lam)
    j = group.mult(model.u, s_b)
    r = tc.cosets[tc.coset_of[j]].shortest
    if r not in new_idata.a_theta_lambda:
        raise AssertionError("conjugated representative escaped A_Theta_lambda")
    new_model = IntegralModel(tc, new_idata, r)
    mapping = {}
    for f in model.cosets:
        x = group.mult(group.mult(s_b, f.longest), s_b)
        mapping[f.id] = new_model.coset_of[x]
    if len(set(mapping.values())) != model.n_cosets or model.n_cosets != new_model.n_cosets:
        raise AssertionError("conjugation did not give a coset bijection")
    return new_model, mapping


def descent_chain(tc: ThetaCosets, idata: IntegralData, c: int):
    """Find alpha in Pi_lambda and a chain of non-integral simple roots
    realizing a model descent of C, per the descent-search procedure.

    Returns (alpha_root_index, chain) with chain a list of simple indices.
    """
    group = tc.group
    rs = group.rs
    rep = _double_coset_rep(tc, idata, c)
    if tc.coset_of[rep] == c:
        raise ValueError(
            "coset is the smallest in its double coset; no descent chain exists"
        )
    chain: list[int] = []
    z = 0
    cur_c = c
    cur_lam = idata.lam
    cur_pi = set(idata.pi_lambda)
    # the chain strictly shortens the coset, so this terminates
    while True:
        found = None
        for i in range(rs.rank):
            if i not in cur_pi:
                continue
            step, target = tc.times_simple(cur_c, i)
            if step is CosetStep.LOWER:
                found = i
                break
        if found is not None:
            alpha = group.act_on_root(z, found)
            if alpha not in idata.pi_lambda:
                raise AssertionError("transported descent left Pi_lambda")
            return alpha, chain
        extended = False
        for b in range(rs.rank):
            if is_integer(pair(rs, b, cur_lam)):
                continue
            step, target = tc.times_simple(cur_c, b)
            if step is CosetStep.LOWER:
                chain.append(b)
                z = group.mult(z, group.simple_ids[b])
                cur_c = target
                cur_lam = group.act_on_weight(group.simple_ids[b], cur_lam)
                cur_pi = set(
                    _simple_roots_of(rs, _integral_positive_roots(rs, cur_lam))
                )
                extended = True
                break
        if not extended:
            raise AssertionError("descent-chain search is stuck; this contradicts "
                                 "the termination guarantee")


def _double_coset_rep(tc: ThetaCosets, idata: IntegralData, c: int) -> int:
    """The A_Theta_lambda representative of the double coset containing C."""
    group = tc.group
    for u in idata.a_theta_lambda:
        # C is in W_Theta u W_lambda iff the u-translate of some v hits C
        for v in idata.w_lambda_ids:
            if tc.coset_of[group.mult(u, v)] == c:
                return u
    raise AssertionError(f"coset {c} not covered by any double coset")


@dataclass(frozen=True)
class StabilizerData:
    w_stab_ids: frozenset[int]
    a_theta_stab: tuple[int, ...]


def stabilizer_data(group: WeylGroup, theta, lam: Weight) -> StabilizerData:
    """Stabilizer W^lambda and its double-coset cross-section A_Theta^lambda.

    Antidominance is checked in the weak sense (no positive-integer coroot
    pairing), which is the one compatible with singular weights.
    """
    rs = group.rs
    witness = antidominance_witness(rs, lam, allow_zero=True)
    if witness is not None:
        root, value = witness
        raise ValueError(
            f"lambda is not antidominant: coroot pairing {value} on root {root}"
        )
    _, rows = group.weight_orbit(lam)
    stab = frozenset(w for w, row in enumerate(rows) if row == rows[0])
    zero_pos = [
        r for r in range(rs.positive_root_count) if is_zero(pair(rs, r, lam))
    ]
    refl_subgroup = group.subgroup_closure([group.reflection(r) for r in zero_pos])
    if refl_subgroup != stab:
        raise AssertionError(
            "stabilizer is not the reflection subgroup of the zero roots"
        )
    # u(zero roots^+) > 0 iff u sends their simple roots to positive roots
    zero_simple = _simple_roots_of(rs, zero_pos)
    shortest_reps = _shortest_coset_reps(group, tuple(sorted(theta)))
    a_stab = tuple(u for u in group.positive_on(zero_simple) if u in shortest_reps)
    return StabilizerData(w_stab_ids=stab, a_theta_stab=a_stab)
