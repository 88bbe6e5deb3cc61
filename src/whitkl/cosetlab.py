"""Right cosets and their order, integral data, cross-sections, integral
models and stabilizer data.

One class, ThetaCosets, holds W_J \\ W' for a Coxeter system (W', S')
inside the Weyl group and a subset J of S': the global cosets are
(W, simple reflections, Theta), and an integral model's cosets are
(W_lambda, reflections of Pi_lambda, Theta(u,lambda)).  Coset ids are
assigned by sorting on (length of longest element, element id), so all
derived tables are deterministic.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field

from .rootsystem import (
    RootSystem,
    Weight,
    is_integer,
    is_zero,
    pair,
    require_antidominant,
)
from .weylgroup import WeylGroup

__all__ = [
    "ThetaCosets",
    "IntegralData",
    "IntegralModel",
    "IntegralSystem",
    "StabilizerData",
    "build_theta_cosets",
    "integral_data",
    "build_integral_model",
    "stabilizer_data",
    "subgroup_bruhat",
]


class ThetaCosets:
    """W_J \\ W', the right cosets of a standard parabolic subgroup W_J of a
    Coxeter system (W', S') inside the Weyl group, with their Bruhat order
    and the moves C -> C s for s in S'.

    W' is given by its member ids, S' by a dict from each generator label
    s to its right-step table (steps[s][w] is the id of w s), its length
    function by a table of lengths by id, and J by a subset of the
    generator labels.
    ``build_theta_cosets`` makes (W, simple reflections, Theta), and
    ``IntegralSystem.cosets`` makes (W_lambda, reflections of Pi_lambda,
    Theta(u,lambda)) for the integral models.  ``theta`` holds J.

    The per-coset facts are columns indexed by coset id: ``members[C]``
    (C's member ids, ascending), ``longest[C]`` and ``shortest[C]`` (its
    unique longest and a shortest member, by ``lengths``) and
    ``lengths[C]`` (the length of ``longest[C]``); ``coset_of`` maps each
    member id back to its coset id.

    Every move C -> C s is read from one table of n ids per generator, for
    n cosets: targets(s)[C] is the coset of w^C s, for C's longest element
    w^C.  C s is C, or longer or shorter than C by ``lengths``.  The
    build checks, per generator and in C-level passes, that C -> C s is an
    involution, so a bijection, and that wherever it moves C, w^C s is the
    longest element of C s; the element step tables are not kept.

    The order is the Bruhat order of (W', S') on longest coset elements.
    It is kept as one lower ideal per coset: an int bitset over coset ids
    with bit C set iff C <= D.  Ideals are built on first use and memoised.
    For C s shorter than C,

        ideal(C) = ideal(Cs) u {C} u U ideal(D s),

    over the lower covers D of C s with D s longer than D.  This is the
    lifting property (Bjorner and Brenti, Combinatorics of Coxeter Groups,
    Prop. 2.2.7) on a quotient graded by length (Thm 2.5.5; Deodhar,
    Invent. Math. 39, 1977): a coatom E of C other than C s lies below C s
    unless E s is shorter than E, and then it is D s for the lower cover
    D = E s of C s; and every such D s lies below C.  Coset ids ascend
    with length, so ideal(C) has no bit above C, and the lower covers of
    C s are the bits of ideal(Cs) in one band of ids, the length below C s.
    One mask per generator and length marks the D there with D s longer
    than D; an ideal takes one join per cover it keeps, at most the number
    of reflections.  All ideals together take at most n^2/8 bytes for n
    cosets (0.46 MB for D5 with Theta empty).
    """

    def __init__(self, group: WeylGroup, members, steps, lengths, theta):
        self.group = group
        self.theta = tuple(theta)
        self._build(members, steps, lengths)

    def _build(self, members, steps, lengths):
        # W_J w = (w^-1 W_J)^-1, and w^-1 W_J is a right-step orbit
        inverse = self.group.inverse
        theta_steps = [steps[j] for j in self.theta]
        # marks each member with the place its coset is found at, until
        # the sort gives the ids
        coset_of: list[int | None] = [None] * self.group.size
        cosets, tops, bottoms, crowded = [], [], [], []
        for start in members:
            if coset_of[start] is not None:
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
            coset = sorted(map(inverse.__getitem__, orbit))
            for x in coset:
                coset_of[x] = len(cosets)
            # stable, so ascending by (length, id): shortest first, longest last
            by_length = sorted(coset, key=lengths.__getitem__)
            top = by_length[-1]
            if len(coset) > 1 and lengths[by_length[-2]] == lengths[top]:
                crowded.append(top)
            cosets.append(tuple(coset))
            tops.append(top)
            bottoms.append(by_length[0])
        # ids ascend by (length, longest element), both sorts being stable;
        # coset 0 holds the identity and is the unique minimum
        top_lengths = list(map(lengths.__getitem__, tops))
        order = sorted(range(len(cosets)), key=tops.__getitem__)
        order.sort(key=top_lengths.__getitem__)
        self.members, self.longest, self.shortest, self.lengths = (
            tuple(map(column.__getitem__, order))
            for column in (cosets, tops, bottoms, top_lengths)
        )
        if crowded:
            c = min(map(self.longest.index, crowded))
            raise AssertionError(f"coset {c} has no unique longest element")
        ids = list(range(len(order)))
        # one int object per id, shared by coset_of and the move tables
        self.coset_of = list(map(dict(zip(order, ids)).get, coset_of))
        self.n_cosets = len(ids)
        self.w_theta_ids = frozenset(self.members[0])
        self._ideals: list[int | None] = [1] + [None] * (len(ids) - 1)
        self._targets = {s: self._moves(s, step, ids) for s, step in steps.items()}
        # starts[l] is the first id of length l; the last entry is n
        heights = range(self.lengths[-1] + 2)
        self._starts = [bisect.bisect_left(self.lengths, l) for l in heights]
        self._ascent_masks: dict = {}

    def _moves(self, s, step, ids) -> tuple[int, ...]:
        """targets(s), from the element step table of s, after the two
        checks the class docstring names; ids lists the coset ids."""
        longest = self.longest
        moved = list(map(step.__getitem__, longest))  # w^C s
        targets = list(map(self.coset_of.__getitem__, moved))
        if list(map(targets.__getitem__, targets)) != ids:
            raise AssertionError(f"C -> C s_{s} is not an involution")
        tops = list(map(longest.__getitem__, targets))
        if tops != moved:
            # only a C with C s = C may keep w^C s off the longest element
            off = list(itertools.compress(ids, map(operator.ne, tops, moved)))
            if list(map(targets.__getitem__, off)) != off:
                raise AssertionError(f"C -> C s_{s} does not move the longest element")
        return tuple(targets)

    def ideal(self, c: int) -> int:
        """The lower ideal of C: bit D is set iff D <= C."""
        ideal = self._ideals[c]
        if ideal is None:
            s, lower = self.descent(c)
            below = self.ideal(lower)
            ideal = below | 1 << c
            if lower:  # coset 0, the minimum, has no lower cover
                # the lower covers D of C s with D s > D, as offsets from
                # the first id of their length
                band = self.lengths[lower] - 1
                start = self._starts[band]
                covers = below >> start & self._ascents(s)[band]
                targets = self._targets[s]
                for d in _bits(covers):
                    ideal |= self.ideal(targets[start + d])
            self._ideals[c] = ideal
        return ideal

    def _ascents(self, s) -> list[int]:
        """Per length l, the bitset over the cosets D of length l, by offset
        from the first of them, of those with D s longer than D; empty below
        the length of coset 0."""
        ascents = self._ascent_masks.get(s)
        if ascents is None:
            lengths = self.lengths
            moved = map(lengths.__getitem__, self._targets[s])
            flags = bytes(map(operator.lt, lengths, moved)).translate(_FLAG_BITS)
            starts = self._starts
            ascents = self._ascent_masks[s] = [
                int(flags[a:b][::-1] or b"0", 2) for a, b in zip(starts, starts[1:])
            ]
        return ascents

    def leq(self, c: int, d: int) -> bool:
        return self.ideal(d) >> c & 1 == 1

    def below(self, c: int) -> list[int]:
        """Ascending ids of the cosets strictly below C."""
        return _bits(self.ideal(c) ^ 1 << c)

    def length(self, c: int) -> int:
        return self.lengths[c]

    def targets(self, s) -> tuple[int, ...]:
        """The move table of the generator s: targets(s)[C] is the id of C s."""
        return self._targets[s]

    def descent(self, c: int) -> tuple[int, int]:
        """(s, C s) for the first generator s that lowers C."""
        lengths = self.lengths
        for s, targets in self._targets.items():
            lower = targets[c]
            if lengths[lower] < lengths[c]:
                return s, lower
        raise AssertionError(f"coset {c} admits no simple descent")


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _flags(mask: int) -> bytes:
    """The binary digits of mask, lowest first, as bytes of 0/1 flags that
    `compress` reads, so no Python-level step runs per bit."""
    return bin(mask)[:1:-1].encode().translate(_BIT_FLAGS)


def _bits(mask: int) -> list[int]:
    """Ascending positions of the set bits of mask."""
    flags = _flags(mask)
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
    # (W_lambda, Pi_lambda) as ``_reflection_subgroup`` gives it
    lengths: dict[int, int] = field(compare=False, repr=False)
    steps: dict[int, list[int | None]] = field(compare=False, repr=False)


def _positive_roots(rs: RootSystem, lam: Weight, test) -> tuple[int, ...]:
    """The positive roots r with test(<r^vee, lam>): is_integer or is_zero."""
    return tuple(r for r in range(rs.positive_root_count) if test(pair(rs, r, lam)))


def _simple_roots_of(rs: RootSystem, positive_indices) -> tuple[int, ...]:
    """The positive roots given that are no sum of two of them."""
    coords = {rs.roots[r] for r in positive_indices}
    return tuple(
        r
        for r in positive_indices
        if not any(tuple(map(operator.sub, rs.roots[r], c)) in coords for c in coords)
    )


def _reflection_subgroup(group: WeylGroup, simple_roots):
    """(lengths, steps) of the subgroup generated by the reflections s_r of
    simple_roots, by one breadth-first pass from e over w -> w s_r: lengths[w]
    is w's length over them, and steps[r][w] = w s_r, by id (None outside)."""
    reflections = {r: group.reflection(r) for r in simple_roots}
    steps = {r: [None] * group.size for r in reflections}
    lengths = {0: 0}
    layer = [0]
    while layer:
        nxt = []
        for w in layer:
            for r, s_r in reflections.items():
                x = steps[r][w] = group.mult(w, s_r)
                if x not in lengths:
                    lengths[x] = lengths[w] + 1
                    nxt.append(x)
        layer = nxt
    return lengths, steps


def _reflection_data(group: WeylGroup, theta, positive_roots):
    """For the positive roots of a root subsystem: (its simple roots, their
    ``_reflection_subgroup``'s lengths and steps, the cross-section
    {u : u(positive_roots) > 0}, its members shortest in W_Theta u)."""
    simple = _simple_roots_of(group.rs, positive_roots)
    lengths, steps = _reflection_subgroup(group, simple)
    # u(positive_roots) > 0 iff u(simple) > 0; ids ascend with length
    cross = tuple(group.positive_on(simple))
    # u is shortest in W_Theta u iff u^-1 Theta > 0
    shortest = {group.inverse[x] for x in group.positive_on(sorted(theta))}
    return simple, lengths, steps, cross, tuple(u for u in cross if u in shortest)


def integral_data(group: WeylGroup, theta, lam: Weight) -> IntegralData:
    """Integral roots, W_lambda and the cross-sections A_lambda, A_Theta_lambda.

    W_lambda = {w : w lam - lam in Z.Sigma} is the reflection subgroup of
    Pi_lambda (Humphreys, BGG Category O, on integral Weyl groups), built
    once by ``_reflection_subgroup``.  Only |A_lambda| * |W_lambda| = |W|
    is checked here; ``oracle.recompute_subgroups`` checks the lattice.
    """
    rs = group.rs
    if lam.rank != rs.rank:
        raise ValueError("weight rank does not match root system")
    sigma_pos = _positive_roots(rs, lam, is_integer)
    pi, lengths, steps, a_lam, a_theta = _reflection_data(group, theta, sigma_pos)
    if len(a_lam) * len(lengths) != group.size:
        raise AssertionError("|A_lambda| * |W_lambda| != |W|")
    return IntegralData(
        lam=lam,
        sigma_lambda_pos=sigma_pos,
        pi_lambda=pi,
        w_lambda_ids=frozenset(lengths),
        a_lambda=a_lam,
        a_theta_lambda=a_theta,
        lengths=lengths,
        steps=steps,
    )


class IntegralSystem:
    """The Coxeter system (W_lambda, Pi_lambda), with its length ell_lambda
    and the right-step table of each reflection in Pi_lambda, both as
    ``integral_data`` got them from ``_reflection_subgroup``.

    Its order is not the restriction of the Bruhat order of W: e.g. in B2
    with an A1 x A1 integral system, the two orthogonal simple reflections
    are incomparable here although one is a subword of the other in W.
    ``cosets(J)`` hands out one ThetaCosets per subset J of Pi_lambda, so
    every integral model with the same Theta(u,lambda) shares it.
    """

    def __init__(self, group: WeylGroup, idata: "IntegralData"):
        self.group = group
        self.lengths = idata.lengths
        self.steps = idata.steps
        self._cosets: dict[tuple[int, ...], ThetaCosets] = {}

    def cosets(self, theta) -> ThetaCosets:
        """W_{lambda,J} \\ W_lambda for J = theta inside Pi_lambda."""
        theta = tuple(theta)
        tc = self._cosets.get(theta)
        if tc is None:
            tc = self._cosets[theta] = ThetaCosets(
                self.group, self.lengths, self.steps, self.lengths, theta
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
        self.coset_of = self.quotient.coset_of
        self.n_cosets = self.quotient.n_cosets
        self._build_transport()

    def _build_transport(self):
        group = self.group
        tc = self.tc
        ind = []
        for members in self.quotient.members:
            targets = {tc.coset_of[group.mult(self.u, x)] for x in members}
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


@dataclass(frozen=True)
class StabilizerData:
    w_stab_ids: frozenset[int]
    a_theta_stab: tuple[int, ...]


def stabilizer_data(group: WeylGroup, theta, lam: Weight) -> StabilizerData:
    """Stabilizer W^lambda and its double-coset cross-section A_Theta^lambda.

    W^lambda is the reflection subgroup of the simple roots among the
    positive roots vanishing on lam, built by ``_reflection_subgroup``;
    ``oracle.recompute_subgroups`` checks it against {w : w lam = lam}.
    Antidominance is checked in the weak sense (no positive-integer coroot
    pairing), which is the one compatible with singular weights.
    """
    require_antidominant(group.rs, lam, allow_zero=True)
    zero_pos = _positive_roots(group.rs, lam, is_zero)
    _, lengths, _, _, a_stab = _reflection_data(group, theta, zero_pos)
    return StabilizerData(w_stab_ids=frozenset(lengths), a_theta_stab=a_stab)
