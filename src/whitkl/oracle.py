"""Independent brute-force checks: subword Bruhat order, classical
Kazhdan-Lusztig polynomials via R-polynomials, definition-level
recomputation of cosets, cross-sections and integral models, and of
W_lambda and W^lambda by the lattice and the orbit of lambda; the action
of W on weights; and the devices the paper's Sec. 3 proofs use, as
references on the production tables: the three-case operators T_alpha,
restriction to the integral models, conjugation through non-integral
walls and descent chains.  `verify` is the CLI's suite: it builds the
tables it checks and runs the checks in a fixed order, each within its
scope.

The checks deliberately avoid the production code paths (descent
recursions, lifting-property order, orbit-closure cosets) so that a shared
bug cannot hide.  The Sec. 3 devices read the coset tables the pipeline
builds (``ThetaCosets.targets``, ``lengths``, ``coset_of``) and apply
each device by its definition, element by element.  Neither the package
nor the pipeline imports this module, and the CLI loads it only for
`verify`; `kl_classical_relation_check` calls the engine, to compare its
output with `classical_kl`, and `recompute_subgroups` the pipeline's
subgroup routine.  Speed is a non-goal.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .cosetlab import (
    IntegralData,
    IntegralModel,
    ThetaCosets,
    _positive_roots,
    _reflection_data,
    _simple_roots_of,
    build_theta_cosets,
    integral_data,
)
from .heckemodule import HeckeElt, SpaceMismatchError, _trusted_elt, global_tag, model_tag
from .klengine import _DIGIT_BITS, build_kl_table, phi_direct
from .laurent import LaurentPoly
from .rootsystem import Weight, is_integer, is_zero, pair, weight_flags
from .weylgroup import WeylGroup, _simple_steps

__all__ = [
    "Check",
    "CosetStep",
    "OracleReport",
    "act_on_weight",
    "bruhat_subword",
    "classical_kl",
    "conjugate_model",
    "delta",
    "descent_chain",
    "inversion_set",
    "kl_classical_relation_check",
    "longest_element_of_parabolic",
    "recompute_cosets",
    "recompute_subgroups",
    "model_order_reflection_chains",
    "restrict_lambda",
    "right_mult_simple",
    "root_images",
    "subgroup_closure",
    "t_alpha",
    "t_alpha_model",
    "times_element",
    "times_simple",
    "verify",
    "weight_orbit",
]

# scope bounds, shared by `verify` and the checks that raise beyond them
SUBWORD_LENGTH_CAP = 12  # longest word bruhat_subword enumerates
CLASSICAL_KL_CAP = 1152  # largest |W| classical_kl solves
COSET_RANK_CAP = 3  # highest rank recompute_cosets takes
EXHAUSTIVE_BRUHAT_CAP = 48  # largest |W| whose Bruhat order is checked on all pairs
BRUHAT_SAMPLE_PAIRS = 10_000  # pairs checked above EXHAUSTIVE_BRUHAT_CAP
PHI_PATHS_CAP = 1920  # largest |W| with Path A = Path B: rank <= 4, A5 and D5


@dataclass(frozen=True)
class Check:
    name: str
    scope: str
    passed: bool
    counterexample: str | None = None


@dataclass
class OracleReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, scope: str, passed: bool, counterexample=None):
        self.checks.append(Check(name, scope, passed, counterexample))


def verify(group: WeylGroup, theta, lam: Weight | None) -> OracleReport:
    """The `verify` suite; a check out of its scope passes, noting why."""
    rs = group.rs
    report = OracleReport()
    scope = f"{rs.type_letter}{rs.rank}"
    # at every rank, before the Theta-empty order below is built
    if lam is not None:
        subgroups = recompute_subgroups(group, lam)
        report.checks.extend(subgroups.checks)
    # the pipeline's Bruhat order (Theta-empty cosets) against the subword oracle
    if group.size <= EXHAUSTIVE_BRUHAT_CAP:
        pairs = [(v, w) for v in range(group.size) for w in range(group.size)]
        kind = "exhaustive"
    else:
        state = 1
        pairs = []
        while len(pairs) < BRUHAT_SAMPLE_PAIRS:
            state = (state * 48271) % 2147483647  # fixed-seed Lehmer stream
            v = state % group.size
            state = (state * 48271) % 2147483647
            w = state % group.size
            if len(group.elements[w].word) <= SUBWORD_LENGTH_CAP:
                pairs.append((v, w))
        kind = f"sampled-{BRUHAT_SAMPLE_PAIRS // 1000}k"
    order = build_theta_cosets(group, ())
    coset_of = order.coset_of
    for v, w in pairs:
        if bruhat_subword(group, v, w) != order.leq(coset_of[v], coset_of[w]):
            witness = f"(v={v}, w={w})"
            break
    else:
        witness = None
    report.add("bruhat-vs-subword", f"{scope} {kind}", witness is None, witness)
    # definition-level coset recomputation
    table = None
    if lam is not None and rs.rank <= COSET_RANK_CAP:
        table = build_kl_table(group, theta, lam)
        sub = recompute_cosets(group, theta, lam, table.tc, table.idata, table.models)
        report.checks.extend(sub.checks)
    else:
        report.add(
            "coset-recomputation",
            scope,
            True,
            f"skipped: exhaustive scope is rank <= {COSET_RANK_CAP} with a lambda",
        )
    # the two phi paths must agree; Path A would stop at its own count of a
    # W_lambda refuted above
    if lam is not None:
        ok, note = True, None
        if group.size > PHI_PATHS_CAP:
            note = f"skipped: |W| = {group.size} > {PHI_PATHS_CAP}"
        elif not subgroups.passed:
            note = "skipped: W_lambda or W^lambda failed its check"
        else:
            if table is None:
                table = build_kl_table(group, theta, lam)
            pd = phi_direct(table.tc, lam)
            ok = all(pd[c] == table.phi[c] for c in range(table.tc.n_cosets))
        report.add("phi-direct-vs-transport", scope, ok, note)
    # classical Kazhdan-Lusztig relation at -rho
    if group.size <= CLASSICAL_KL_CAP:
        ok = kl_classical_relation_check(group, Weight.minus_rho(rs.rank))
        report.add("classical-kl-relation", f"{scope} at -rho", ok)
    return report


def act_on_weight(group: WeylGroup, w: int, lam: Weight) -> Weight:
    """Coordinates of w(lam): alpha_i^vee(w lam) = (w^-1 alpha_i)^vee(lam)."""
    inv, rs = group.inverse[w], group.rs
    coords = tuple(pair(rs, group.act_on_root(inv, i), lam) for i in range(rs.rank))
    return Weight(coords, lam.n_transcendentals)


def root_images(group: WeylGroup, w: int) -> tuple[int, ...]:
    """w as a permutation of the root list: entry r is the index of
    w(roots[r]), composed from the tables ``rs.simple_reflections`` along
    w's word.  The oracle's own reference, independent of the group's
    keys."""
    simple = group.rs.simple_reflections
    images = tuple(range(group.rs.n_roots))
    # (v s_i)(r) = v(s_i(r))
    for i in group.elements[w].word:
        images = tuple(images[x] for x in simple[i])
    return images


def bruhat_subword(group: WeylGroup, v: int, w: int) -> bool:
    """Subword test: v <= w iff v is a product of some subword of a fixed
    reduced word of w."""
    word = group.elements[w].word
    if len(word) > SUBWORD_LENGTH_CAP:
        raise ValueError(
            f"length {len(word)} exceeds subword enumeration cap {SUBWORD_LENGTH_CAP}"
        )
    reachable = {0}
    for letter in word:
        reachable |= {group.right_table[x][letter] for x in reachable}
    return v in reachable


def _r_polynomials(group: WeylGroup):
    """R-polynomials in the Kazhdan-Lusztig normalization, R_{v,w} in Z[q]."""
    one = LaurentPoly.one()
    q = LaurentPoly.q()
    q_minus_1 = q - 1
    by_length = sorted(range(group.size), key=lambda x: group.length(x))
    r: dict[tuple[int, int], LaurentPoly] = {}
    for w in by_length:
        lw = group.length(w)
        if lw == 0:
            r[(0, 0)] = one
            continue
        s = min(group.descents_right(w))
        ws = group.right_table[w][s]
        for v in range(group.size):
            if group.length(v) > lw:
                continue
            vs = group.right_table[v][s]
            if group.length(vs) < group.length(v):
                val = r.get((vs, ws))
            else:
                a = r.get((v, ws))
                b = r.get((vs, ws))
                val = None
                if a or b:
                    val = LaurentPoly.zero()
                    if a:
                        val = val + q_minus_1 * a
                    if b:
                        val = val + q * b
            if val:
                r[(v, w)] = val
    return r


def classical_kl(group: WeylGroup) -> dict[tuple[int, int], LaurentPoly]:
    """Classical P_{v,w} via R-polynomials and the degree-bounded
    unitriangular solve; independent of the descent-recursion engine."""
    if group.size > CLASSICAL_KL_CAP:
        raise ValueError(
            f"group size {group.size} exceeds classical KL cap {CLASSICAL_KL_CAP}"
        )
    r = _r_polynomials(group)
    comparable: dict[int, list[int]] = {}
    for (v, w) in r:
        comparable.setdefault(w, []).append(v)
    p: dict[tuple[int, int], LaurentPoly] = {}
    one = LaurentPoly.one()
    for w in range(group.size):
        below = sorted(comparable.get(w, []), key=lambda x: -group.length(x))
        p[(w, w)] = one
        for v in below:
            if v == w:
                continue
            length_gap = group.length(w) - group.length(v)
            total = LaurentPoly.zero()
            for z in comparable.get(w, []):
                if z == v or (v, z) not in r:
                    continue
                total = total + r[(v, z)] * p[(z, w)]
            # q^L P(1/q) - P = sum_{v<z<=w} R_{v,z} P_{z,w}; the two sides of
            # the left live in disjoint degree ranges split at (L-1)/2
            candidate = -total.truncate_above((length_gap - 1) // 2)
            mirror = candidate.subst_q_power(-1) * LaurentPoly.monomial(length_gap)
            if mirror - candidate != total:
                raise AssertionError(f"bar-invariance solve failed at pair ({v}, {w})")
            p[(v, w)] = candidate
    return p


def kl_classical_relation_check(group: WeylGroup, lam: Weight) -> bool:
    """Check P_{wv}(q) = q^{l(w)-l(v)} P_{v,w}(q^-2) against the
    R-polynomial oracle, for Theta empty and integral regular lam."""
    flags = weight_flags(group.rs, lam)
    if not (flags.integral and flags.regular):
        raise ValueError("classical comparison needs an integral regular weight")
    table = build_kl_table(group, (), lam)
    coset_of_elt = {}
    for c, members in enumerate(table.tc.members):
        if len(members) != 1:
            raise AssertionError("cosets are not singletons with empty theta")
        coset_of_elt[members[0]] = c
    oracle_p = classical_kl(group)
    polys = table.polys
    for (v, w), poly in oracle_p.items():
        gap = group.length(w) - group.length(v)
        expected = poly.subst_q_power(-2) * LaurentPoly.monomial(gap)
        ours = polys.get((coset_of_elt[w], coset_of_elt[v]), LaurentPoly.zero())
        if ours != expected:
            return False
    # no extra support on the engine side
    for (cw, cv), poly in polys.items():
        w = table.tc.members[cw][0]
        v = table.tc.members[cv][0]
        if poly and (v, w) not in oracle_p:
            return False
    return True


def model_order_reflection_chains(group: WeylGroup, idata: IntegralData):
    """Order on W_lambda by chains of reflections of Sigma_lambda^+ that
    decrease ell_lambda; returns the set of pairs (x, y) with x <= y."""
    members = sorted(idata.w_lambda_ids)
    ell = {
        w: len(_sigma_u_plus(group, w) & set(idata.sigma_lambda_pos))
        for w in members
    }
    reflections = [group.reflection(r) for r in idata.sigma_lambda_pos]
    covers: dict[int, set[int]] = {w: set() for w in members}
    for w in members:
        for t in reflections:
            x = group.mult(w, t)
            if ell[x] < ell[w]:
                covers[w].add(x)
    pairs = set()
    for w in members:
        seen = {w}
        queue = [w]
        while queue:
            y = queue.pop()
            for x in covers[y]:
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
        pairs |= {(x, w) for x in seen}
    return pairs


def recompute_cosets(
    group: WeylGroup, theta, lam, tc: ThetaCosets, idata: IntegralData, models
) -> OracleReport:
    """Re-derive the coset structures by definition-level set operations and
    diff against the production tables."""
    if group.rs.rank > COSET_RANK_CAP:
        raise ValueError(
            f"coset recomputation is exhaustive-scope, rank <= {COSET_RANK_CAP} only"
        )
    rs = group.rs
    report = OracleReport()
    scope = f"{rs.type_letter}{rs.rank}, theta={list(theta)}"

    # right W_Theta-cosets by naive translation of the full subgroup
    w_theta = subgroup_closure(group, [group.simple_ids[i] for i in theta])
    naive_cosets = []
    assigned = {}
    for w in range(group.size):
        if w in assigned:
            continue
        members = frozenset(group.mult(a, w) for a in w_theta)
        for x in members:
            assigned[x] = len(naive_cosets)
        naive_cosets.append(members)
    production = set(map(frozenset, tc.members))
    ok = production == set(naive_cosets)
    report.add(
        "right-cosets-partition",
        scope,
        ok,
        None
        if ok
        else f"diff={[sorted(s) for s in production ^ set(naive_cosets)][:2]}",
    )

    # longest and shortest representative sets match their root-side
    # characterizations
    p = rs.positive_root_count
    longest_set = set()
    shortest_set = set()
    for w in range(group.size):
        inv_images = root_images(group, group.inverse[w])
        if all(inv_images[i] >= p for i in theta):
            longest_set.add(w)
        if all(inv_images[i] < p for i in theta):
            shortest_set.add(w)
    long_diff = set(tc.longest) ^ longest_set
    short_diff = set(tc.shortest) ^ shortest_set
    ok = not long_diff and not short_diff
    report.add(
        "coset-representatives",
        scope,
        ok,
        None
        if ok
        else f"longest diff={sorted(long_diff)}, shortest diff={sorted(short_diff)}",
    )

    # A_lambda by the Sigma_u^+ definition
    sigma_lambda = set(_positive_roots(rs, lam, is_integer))
    a_lambda_def = {
        u for u in range(group.size) if not (_sigma_u_plus(group, u) & sigma_lambda)
    }
    ok = a_lambda_def == set(idata.a_lambda)
    report.add(
        "A-lambda-definition",
        scope,
        ok,
        None if ok else f"diff={sorted(a_lambda_def ^ set(idata.a_lambda))}",
    )

    # double cosets by full enumeration, their unique smallest right coset,
    # and A_Theta_lambda
    w_lambda = set(idata.w_lambda_ids)
    dcosets = []
    seen = set()
    for w in range(group.size):
        if w in seen:
            continue
        dc = frozenset(
            group.mult(group.mult(a, w), b) for a in w_theta for b in w_lambda
        )
        seen |= dc
        dcosets.append(dc)
    reps = set()
    smallest_ok = True
    witness = None
    for dc in dcosets:
        coset_ids = {tc.coset_of[x] for x in dc}
        minima = [c for c in coset_ids if all(tc.leq(c, d) for d in coset_ids)]
        if len(minima) != 1:
            smallest_ok = False
            witness = f"double coset of {min(dc)} has minima {sorted(minima)}"
            continue
        cmin = minima[0]
        inside = set(idata.a_lambda) & dc
        if not inside <= set(tc.members[cmin]):
            smallest_ok = False
            witness = f"A_lambda leaks outside coset {cmin} in dc of {min(dc)}"
        short = tc.shortest[cmin]
        if short not in set(idata.a_lambda):
            smallest_ok = False
            witness = f"shortest {short} of coset {cmin} is not in A_lambda"
        reps.add(short)
    report.add("unique-smallest-right-coset", scope, smallest_ok, witness)
    ok = reps == set(idata.a_theta_lambda)
    report.add(
        "A-theta-lambda",
        scope,
        ok,
        None if ok else f"diff={sorted(reps ^ set(idata.a_theta_lambda))}",
    )

    # integral models: partition of u W_lambda by right W_Theta-cosets agrees
    # with the model cosets transported by left multiplication by u
    chain_pairs = model_order_reflection_chains(group, idata)
    for model in models:
        u = model.u
        fs = range(model.n_cosets)
        u_w_lambda = {group.mult(u, v) for v in w_lambda}
        blocks = {}
        for x in u_w_lambda:
            blocks.setdefault(tc.coset_of[x], set()).add(x)
        model_blocks = {
            model.ind[f]: {group.mult(u, v) for v in members}
            for f, members in enumerate(model.quotient.members)
        }
        ok = blocks == model_blocks
        report.add(
            f"integral-model-partition(u={u})",
            scope,
            ok,
            None if ok else f"blocks={blocks} vs model={model_blocks}",
        )
        bad = next(
            (
                (f, g)
                for f in fs
                for g in fs
                if model.leq(f, g) and not tc.leq(model.ind[f], model.ind[g])
            ),
            None,
        )
        report.add(
            f"ind-order-preserving(u={u})",
            scope,
            bad is None,
            None if bad is None else f"model pair {bad}",
        )
        # model order against the reflection-chain oracle inside W_lambda
        longest = model.quotient.longest
        bad = next(
            (
                (f, g)
                for f in fs
                for g in fs
                if model.leq(f, g) != ((longest[f], longest[g]) in chain_pairs)
            ),
            None,
        )
        report.add(
            f"model-order-vs-reflection-chains(u={u})",
            scope,
            bad is None,
            None if bad is None else f"model pair {bad}",
        )
    return report


def subgroup_closure(group: WeylGroup, generator_ids) -> frozenset[int]:
    """The subgroup generated by generator_ids, closed under products."""
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        for g in generator_ids:
            y = group.mult(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def weight_orbit(group: WeylGroup, lam: Weight) -> tuple[int, list[tuple[int, ...]]]:
    """The W-orbit of lam in integers: (den, rows), indexed by element id.

    den is the least common denominator of lam's parts, and
    rows[w][i * (1 + k) + j] is den times part j of alpha_i^vee(w lam): the
    rational part (j = 0), then the coefficients of the k transcendentals.
    rows[w] is one integer step from the row of s_i w, i = word[0].
    """
    if lam.rank != group.rs.rank:
        raise ValueError(
            f"weight rank {lam.rank} does not match system rank {group.rs.rank}"
        )
    stride = 1 + lam.n_transcendentals
    values = [x for rational, tvec in lam.coords for x in (rational, *tvec)]
    den = math.lcm(*(x.denominator for x in values))
    step = _simple_steps(group.rs.cartan_matrix, stride)
    rows = [tuple(x.numerator * (den // x.denominator) for x in values)]
    inverse, right = group.inverse, group.right_table
    for w in range(1, group.size):
        i = group.elements[w].word[0]
        rows.append(step(rows[inverse[right[inverse[w]][i]]], i))
    return den, rows


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
    """(e, e * cartan^-1) for the least e making it integral, once per matrix."""
    inv = _cartan_inverse(cartan)
    e = math.lcm(*(x.denominator for row in inv for x in row))
    return e, tuple(tuple(int(x * e) for x in row) for row in inv)


def _root_lattice_stabilizer(group: WeylGroup, lam: Weight) -> frozenset[int]:
    """{w : w lam - lam in Z.Sigma}, read off the integer orbit of lam.

    With d = rows[w] - rows[0] for the rows of ``weight_orbit``, w lam - lam
    lies in Z.Sigma iff the transcendental parts of d vanish and
    e * cartan^-1 times its rational parts is divisible by e * den, for the
    least e making e * cartan^-1 an integer matrix.
    """
    e, e_inv = _integer_cartan_inverse(group.rs.cartan_matrix)
    den, rows = weight_orbit(group, lam)
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


def recompute_subgroups(group: WeylGroup, lam: Weight) -> OracleReport:
    """W_lambda and W^lambda as the pipeline builds them, against
    {w : w lam - lam in Z.Sigma} and {w : w lam = lam}, at any rank."""
    rs = group.rs
    report = OracleReport()
    lattice = _root_lattice_stabilizer(group, lam)
    _, rows = weight_orbit(group, lam)
    fixed = frozenset(w for w, row in enumerate(rows) if row == rows[0])
    del rows  # |W| rows, freed before the subgroups are built
    for name, roots, definition in (
        ("w-lambda-vs-lattice", _positive_roots(rs, lam, is_integer), lattice),
        ("stabilizer-vs-zero-roots", _positive_roots(rs, lam, is_zero), fixed),
    ):
        diff = sorted(frozenset(_reflection_data(group, (), roots)[1]) ^ definition)
        witness = f"diff={diff[:4]}" if diff else None
        report.add(name, f"{rs.type_letter}{rs.rank}", not diff, witness)
    return report


def _sigma_u_plus(group: WeylGroup, u: int) -> frozenset[int]:
    p = group.rs.positive_root_count
    images = root_images(group, u)
    return frozenset(r for r in range(p) if images[r] >= p)


# -- the Sec. 3 devices, on the production tables ----------------------


class CosetStep(Enum):
    RAISE = "raise"
    FIX = "fix"
    LOWER = "lower"


def times_simple(tc: ThetaCosets, c: int, s) -> tuple[CosetStep, int]:
    """Classify C s against C, for a generator s, and return the target,
    reading only the move table of s and the lengths."""
    target = tc.targets(s)[c]
    if target == c:
        return (CosetStep.FIX, c)
    if tc.lengths[target] > tc.lengths[c]:
        return (CosetStep.RAISE, target)
    return (CosetStep.LOWER, target)


def times_element(tc: ThetaCosets, c: int, w: int) -> int:
    """Coset of C w (well-defined from any member)."""
    return tc.coset_of[tc.group.mult(tc.longest[c], w)]


def inversion_set(group: WeylGroup, w: int) -> frozenset[int]:
    """The positive roots beta with w(beta) < 0, by the signs of
    <beta^vee, w^-1 rho> on the group's key of w."""
    key = group._keys[w]
    positive = group.rs.coroot_coords[: group.rs.positive_root_count]
    return frozenset(
        r for r, c in enumerate(positive) if sum(map(operator.mul, c, key)) < 0
    )


def longest_element_of_parabolic(group: WeylGroup, subset) -> int:
    w = 0
    while True:
        for i in sorted(subset):
            if group._keys[w][i] > 0:
                w = group.right_table[w][i]
                break
        else:
            return w


def delta(tag, cid: int) -> HeckeElt:
    return HeckeElt(tag, {cid: LaurentPoly.one()})


def _own_tag(x: HeckeElt, tag):
    """x's tag, after checking that it equals tag.  The operators give
    their result this tag object, so the elements derived from one `delta`
    share it and pass the tag check in `+`/`-` on identity."""
    if x.tag is not tag and x.tag != tag:
        raise SpaceMismatchError(f"element tagged {x.tag} is not in {tag}")
    return x.tag


def _apply_three_case(x: HeckeElt, tc: ThetaCosets, s, tag) -> HeckeElt:
    out: dict[int, LaurentPoly] = {}
    for cid, poly in x.coeffs.items():
        step, target = times_simple(tc, cid, s)
        if step is CosetStep.FIX:
            continue
        shifted = poly.shift(1 if step is CosetStep.RAISE else -1)
        prev = out.get(cid)
        out[cid] = shifted if prev is None else prev + shifted
        prev = out.get(target)
        out[target] = poly if prev is None else prev + poly
    return HeckeElt(tag, out)


def t_alpha(tc: ThetaCosets, alpha: int, x: HeckeElt) -> HeckeElt:
    """T_alpha on the global module: q d_C + d_{C s} / 0 / q^-1 d_C + d_{C s}."""
    tag = _own_tag(x, global_tag(tc))
    return _apply_three_case(x, tc, alpha, tag)


def t_alpha_model(model: IntegralModel, alpha_root: int, x: HeckeElt) -> HeckeElt:
    """The same three-case operator inside one integral model."""
    if alpha_root not in model.pi_lambda:
        raise ValueError(f"root {alpha_root} is not in Pi_lambda")
    tag = _own_tag(x, model_tag(model))
    return _apply_three_case(x, model.quotient, alpha_root, tag)


def right_mult_simple(tc: ThetaCosets, x: HeckeElt, i: int) -> HeckeElt:
    """Relabel basis indices by C -> C s_i (the right W-action on labels).

    ``ThetaCosets`` checks at build that C -> C s_i is an involution, so no
    two coefficients meet.
    """
    tag = _own_tag(x, global_tag(tc))
    targets = tc.targets(i)
    return _trusted_elt(tag, {targets[cid]: poly for cid, poly in x.coeffs.items()})


def restrict_lambda(
    tc: ThetaCosets,
    idata: IntegralData,
    models: list[IntegralModel],
    x: HeckeElt,
) -> list[HeckeElt]:
    """Split along double cosets and relabel into each integral model."""
    _own_tag(x, global_tag(tc))
    pieces = []
    seen: set[int] = set()
    for model in models:
        coeffs = {}
        for cid, poly in x.coeffs.items():
            f = model.restrict.get(cid)
            if f is not None:
                coeffs[f] = poly
                seen.add(cid)
        pieces.append(HeckeElt(model_tag(model), coeffs))
    missing = set(x.coeffs) - seen
    if missing:
        raise ValueError(f"coset ids {sorted(missing)} not covered by any model")
    return pieces


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
    new_lam = act_on_weight(group, s_b, lam)
    new_idata = integral_data(group, tc.theta, new_lam)
    j = group.mult(model.u, s_b)
    r = tc.shortest[tc.coset_of[j]]
    if r not in new_idata.a_theta_lambda:
        raise AssertionError("conjugated representative escaped A_Theta_lambda")
    new_model = IntegralModel(tc, new_idata, r)
    mapping = {}
    for f, top in enumerate(model.quotient.longest):
        x = group.mult(group.mult(s_b, top), s_b)
        mapping[f] = new_model.coset_of[x]
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
        for i in range(rs.rank):
            if i in cur_pi and times_simple(tc, cur_c, i)[0] is CosetStep.LOWER:
                alpha = group.act_on_root(z, i)
                if alpha not in idata.pi_lambda:
                    raise AssertionError("transported descent left Pi_lambda")
                return alpha, chain
        for b in range(rs.rank):
            if is_integer(pair(rs, b, cur_lam)):
                continue
            step, target = times_simple(tc, cur_c, b)
            if step is CosetStep.LOWER:
                chain.append(b)
                z = group.mult(z, group.simple_ids[b])
                cur_c = target
                cur_lam = act_on_weight(group, group.simple_ids[b], cur_lam)
                cur_pi = set(
                    _simple_roots_of(rs, _positive_roots(rs, cur_lam, is_integer))
                )
                break
        else:
            raise AssertionError(
                "descent-chain search is stuck; this contradicts the "
                "termination guarantee"
            )


def _double_coset_rep(tc: ThetaCosets, idata: IntegralData, c: int) -> int:
    """The A_Theta_lambda representative of the double coset containing C."""
    group = tc.group
    for u in idata.a_theta_lambda:
        # C is in W_Theta u W_lambda iff the u-translate of some v hits C
        for v in idata.w_lambda_ids:
            if tc.coset_of[group.mult(u, v)] == c:
                return u
    raise AssertionError(f"coset {c} not covered by any double coset")


def _encode(poly: LaurentPoly) -> int:
    """poly, in Z[q], at q = 2**B: the packing ``klengine`` decodes."""
    if any(e < 0 for e, _ in poly.items()):
        raise ValueError(f"{poly.text()} is not in Z[q]")
    return sum(c << _DIGIT_BITS * e for e, c in poly.items())
