"""Independent brute-force checks: subword Bruhat order, classical
Kazhdan-Lusztig polynomials via R-polynomials, and definition-level
recomputation of cosets, cross-sections and integral models.

Everything here deliberately avoids the production code paths (descent
recursions, lifting-property order, orbit-closure cosets) so that a shared
bug cannot hide.  The KL engine does not import this module; only
`kl_classical_relation_check` calls the engine, to compare its output
with `classical_kl`.  Speed is a non-goal.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

from .cosetlab import IntegralData, ThetaCosets
from .klengine import build_kl_table
from .laurent import LaurentPoly
from .rootsystem import RootSystem, Weight, is_integer, pair, weight_flags
from .weylgroup import WeylGroup

__all__ = [
    "Check",
    "OracleReport",
    "bruhat_subword",
    "classical_kl",
    "kl_classical_relation_check",
    "recompute_cosets",
    "model_order_reflection_chains",
    "root_images",
]

SUBWORD_LENGTH_CAP = 12
CLASSICAL_KL_CAP = 1152


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "passed": self.passed,
                "checks": [
                    {
                        "name": c.name,
                        "scope": c.scope,
                        "passed": c.passed,
                        "counterexample": c.counterexample,
                    }
                    for c in self.checks
                ],
            },
            indent=2,
        )


@functools.lru_cache(maxsize=None)
def _simple_reflection_images(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(rs.reflect(i, r) for r in range(rs.n_roots)) for i in range(rs.rank)
    )


def root_images(group: WeylGroup, w: int) -> tuple[int, ...]:
    """w as a permutation of the root list: entry r is the index of
    w(roots[r]), composed from the simple reflections along w's word.  The
    oracle's own reference, independent of the group's keys."""
    simple = _simple_reflection_images(group.rs)
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
    for c in table.tc.cosets:
        if len(c.member_ids) != 1:
            raise AssertionError("cosets are not singletons with empty theta")
        coset_of_elt[c.member_ids[0]] = c.id
    oracle_p = classical_kl(group)
    for (v, w), poly in oracle_p.items():
        gap = group.length(w) - group.length(v)
        expected = poly.subst_q_power(-2) * LaurentPoly.monomial(gap)
        ours = table.polys.get((coset_of_elt[w], coset_of_elt[v]), LaurentPoly.zero())
        if ours != expected:
            return False
    # no extra support on the engine side
    for (cw, cv), poly in table.polys.items():
        w = table.tc.cosets[cw].member_ids[0]
        v = table.tc.cosets[cv].member_ids[0]
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
    if group.rs.rank > 3:
        raise ValueError("coset recomputation is exhaustive-scope, rank <= 3 only")
    rs = group.rs
    report = OracleReport()
    scope = f"{rs.type_letter}{rs.rank}, theta={list(theta)}"

    # right W_Theta-cosets by naive translation of the full subgroup
    w_theta = group.subgroup_closure([group.simple_ids[i] for i in theta])
    naive_cosets = []
    assigned = {}
    for w in range(group.size):
        if w in assigned:
            continue
        members = frozenset(group.mult(a, w) for a in w_theta)
        for x in members:
            assigned[x] = len(naive_cosets)
        naive_cosets.append(members)
    production = {frozenset(c.member_ids) for c in tc.cosets}
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
    long_diff = {c.longest for c in tc.cosets} ^ longest_set
    short_diff = {c.shortest for c in tc.cosets} ^ shortest_set
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
    a_lambda_def = {
        u
        for u in range(group.size)
        if not (_sigma_u_plus(group, u) & _sigma_lambda_all(group, lam))
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
        if not inside <= set(tc.cosets[cmin].member_ids):
            smallest_ok = False
            witness = f"A_lambda leaks outside coset {cmin} in dc of {min(dc)}"
        short = tc.cosets[cmin].shortest
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
        u_w_lambda = {group.mult(u, v) for v in w_lambda}
        blocks = {}
        for x in u_w_lambda:
            blocks.setdefault(tc.coset_of[x], set()).add(x)
        model_blocks = {
            model.ind[f.id]: {group.mult(u, v) for v in f.member_ids}
            for f in model.cosets
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
                (f.id, g.id)
                for f in model.cosets
                for g in model.cosets
                if model.leq(f.id, g.id)
                and not tc.leq(model.ind[f.id], model.ind[g.id])
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
        bad = next(
            (
                (f.id, g.id)
                for f in model.cosets
                for g in model.cosets
                if model.leq(f.id, g.id) != ((f.longest, g.longest) in chain_pairs)
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


def _sigma_u_plus(group: WeylGroup, u: int) -> frozenset[int]:
    p = group.rs.positive_root_count
    images = root_images(group, u)
    return frozenset(r for r in range(p) if images[r] >= p)


def _sigma_lambda_all(group: WeylGroup, lam) -> frozenset[int]:
    rs = group.rs
    return frozenset(
        r for r in range(rs.positive_root_count) if is_integer(pair(rs, r, lam))
    )
