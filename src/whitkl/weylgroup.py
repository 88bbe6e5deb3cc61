"""Weyl group enumeration, actions, length, descents, and Bruhat order.

An element w is keyed by the integer vector w^-1 rho in simple-coroot
values, which is injective because rho is regular.  One breadth-first pass
over the keys, from the identity with ascending simple indices, assigns
the ids and fills the right-multiplication table; ids are stable across
runs and usable in golden files.  Products and inverses walk words through
that table.  No root permutation is built: every root sign is read off the
key by w(beta) > 0 iff <beta^vee, w^-1 rho> = ht((w beta)^vee) > 0, and
the image of a root walks the word through the simple reflections.
The action on a weight, the integer W-orbit of a weight and the closure
of a set of elements under products are definition-level references and
live in ``oracle``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .rootsystem import RootSystem

__all__ = ["WeylElt", "WeylGroup", "enumerate_group", "GROUP_SIZE_CAP"]

GROUP_SIZE_CAP = 51840


@dataclass(frozen=True, slots=True)
class WeylElt:
    id: int
    word: tuple[int, ...]
    length: int


def _simple_steps(cartan, stride: int):
    """step(row, i) is s_i on a flat integer row holding ``stride`` values
    per simple coroot j: alpha_j^vee(s_i mu) = mu_j - cartan[j][i] * mu_i.
    """
    rank = len(cartan)
    # for s_i: the (start of coroot j's values, cartan[j][i]) it changes
    moves = [
        [(j * stride, cartan[j][i]) for j in range(rank) if cartan[j][i]]
        for i in range(rank)
    ]

    def step(row: tuple[int, ...], i: int) -> tuple[int, ...]:
        mu_i = row[i * stride : (i + 1) * stride]
        out = list(row)
        for start, c in moves[i]:
            for t, m in enumerate(mu_i, start):
                out[t] -= c * m
        return tuple(out)

    return step


class WeylGroup:
    """Enumerated Weyl group with multiplication and Bruhat order.

    An element is its id, a reduced word and its length.  The tables of the
    enumeration (elements, right_table, inverse and the keys) are immutable
    after construction; only the Bruhat memo fills lazily.  The pipeline
    orders cosets by ``ThetaCosets.leq``; ``bruhat_leq`` stays as the
    tests' reference and for the benchmark's
    ``weylgroup.bruhat_leq_calls`` counter.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._enumerate()
        self._bruhat_memo: dict[tuple[int, int], bool] = {}

    # -- enumeration ---------------------------------------------------

    def _enumerate(self):
        rs = self.rs
        n = rs.rank
        step = _simple_steps(rs.cartan_matrix, 1)
        rho = (1,) * n
        keys = [rho]  # keys[w] = w^-1 rho
        by_key = {rho: 0}
        elements = [WeylElt(0, (), 0)]
        right_table = []
        # ids in BFS order: keys grows while it is walked
        for wid, key in enumerate(keys):
            w = elements[wid]
            row = []
            for i in range(n):
                child = step(key, i)
                cid = by_key.get(child)
                if cid is None:
                    cid = len(keys)
                    if cid >= GROUP_SIZE_CAP:
                        raise ValueError(f"group size exceeds cap {GROUP_SIZE_CAP}")
                    by_key[child] = cid
                    keys.append(child)
                    elements.append(WeylElt(cid, w.word + (i,), w.length + 1))
                row.append(cid)
            right_table.append(row)
        self.elements = elements
        self.size = len(elements)
        self.right_table = right_table
        self._keys = keys
        self._by_key = by_key
        self.simple_ids = list(right_table[0])
        inverse = []
        for w in elements:
            x = 0
            for i in reversed(w.word):
                x = right_table[x][i]
            inverse.append(x)
        self.inverse = inverse
        self.longest_id = max(elements, key=lambda w: w.length).id

    # -- basic operations ------------------------------------------------

    def mult(self, a: int, b: int) -> int:
        """Product ab (a after b on roots: (ab)(r) = a(b(r))): b's word
        walked through the right-multiplication table from a."""
        right = self.right_table
        for i in self.elements[b].word:
            a = right[a][i]
        return a

    def length(self, w: int) -> int:
        return self.elements[w].length

    def act_on_root(self, w: int, root_index: int) -> int:
        """Index of w(roots[root_index]): w's word applied right to left."""
        reflections = self.rs.simple_reflections
        for i in reversed(self.elements[w].word):
            root_index = reflections[i][root_index]
        return root_index

    def reflection(self, root_index: int) -> int:
        """The reflection in the given root, as a group element id."""
        # s_beta is its own inverse and s_beta rho = rho - <beta^vee, rho> beta,
        # so alpha_j^vee(s_beta rho) = 1 - ht(beta^vee) * alpha_j^vee(beta)
        rs = self.rs
        beta = rs.roots[root_index]
        height = sum(rs.coroot_coords[root_index])
        key = tuple(
            1 - height * sum(a * b for a, b in zip(row, beta))
            for row in rs.cartan_matrix
        )
        return self._by_key[key]

    # -- root signs and descents -----------------------------------------

    def positive_on(self, roots) -> list[int]:
        """Ids w, ascending and so by length, with w(beta) > 0 for beta in roots."""
        coroots = [self.rs.coroot_coords[r] for r in roots]
        return [
            w
            for w, key in enumerate(self._keys)
            if all(sum(map(operator.mul, c, key)) > 0 for c in coroots)
        ]

    def descents_right(self, w: int) -> frozenset[int]:
        """{i : w s_i < w} = {i : w(alpha_i) < 0}: the negative key entries."""
        return frozenset(i for i, x in enumerate(self._keys[w]) if x < 0)

    # -- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, v: int, w: int) -> bool:
        """Bruhat order via the memoized lifting recursion."""
        if v == w:
            return True
        lv, lw = self.elements[v].length, self.elements[w].length
        if lv >= lw:
            return False
        memo = self._bruhat_memo
        key = (v, w)
        cached = memo.get(key)
        if cached is not None:
            return cached
        # pick the smallest right descent s of w
        s = min(self.descents_right(w))
        ws = self.right_table[w][s]
        vs = self.right_table[v][s]
        if self.elements[vs].length < lv:
            result = self.bruhat_leq(vs, ws)
        else:
            result = self.bruhat_leq(v, ws)
        memo[key] = result
        return result

    def __repr__(self):
        return f"WeylGroup({self.rs.type_letter}{self.rs.rank}, |W|={self.size})"


def enumerate_group(rs: RootSystem) -> WeylGroup:
    """Enumerate the full Weyl group of rs (size capped at 51840)."""
    return WeylGroup(rs)
