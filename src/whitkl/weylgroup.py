"""Weyl group enumeration, actions, length, descents, and Bruhat order.

Elements are stored as permutations of the root list; ids are assigned in
breadth-first order from the identity with ascending simple indices, so
they are stable across runs and usable in golden files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .rootsystem import RootSystem, Weight, pair

__all__ = ["WeylElt", "WeylGroup", "enumerate_group", "GROUP_SIZE_CAP"]

GROUP_SIZE_CAP = 51840


@dataclass(frozen=True)
class WeylElt:
    id: int
    images: tuple[int, ...]
    word: tuple[int, ...]
    length: int


class WeylGroup:
    """Enumerated Weyl group with multiplication and Bruhat order.

    The enumeration tables are immutable after construction.  Two caches
    fill lazily: the reflection table, which holds the element id of the
    reflection in each root from its first use on, and the Bruhat memo.
    Both only ever gain immutable entries (single list or dict
    assignments), so concurrent readers always observe consistent values.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._enumerate()
        self._reflections: list[int | None] = [None] * rs.n_roots
        self._bruhat_memo: dict[tuple[int, int], bool] = {}

    # -- enumeration ---------------------------------------------------

    def _enumerate(self):
        rs = self.rs
        n = rs.rank
        n_roots = rs.n_roots
        simple_images = [
            tuple(rs.reflect(i, r) for r in range(n_roots)) for i in range(n)
        ]
        identity = tuple(range(n_roots))
        elements = [WeylElt(0, identity, (), 0)]
        by_images = {identity: 0}
        frontier = [0]
        while frontier:
            new_frontier = []
            for wid in frontier:
                w = elements[wid]
                for i in range(n):
                    # (w s_i)(r) = w(s_i(r))
                    images = tuple(w.images[x] for x in simple_images[i])
                    if images not in by_images:
                        new_id = len(elements)
                        if new_id >= GROUP_SIZE_CAP:
                            raise ValueError(
                                f"group size exceeds cap {GROUP_SIZE_CAP}"
                            )
                        by_images[images] = new_id
                        elements.append(
                            WeylElt(new_id, images, w.word + (i,), w.length + 1)
                        )
                        new_frontier.append(new_id)
            frontier = new_frontier
        self.elements = elements
        self._by_images = by_images
        self.size = len(elements)
        self.simple_ids = [
            by_images[simple_images[i]] for i in range(n)
        ]
        self.right_table = [
            [by_images[tuple(w.images[x] for x in simple_images[i])] for i in range(n)]
            for w in elements
        ]
        self.left_table = [
            [by_images[tuple(simple_images[i][x] for x in w.images)] for i in range(n)]
            for w in elements
        ]
        inverse = [0] * self.size
        for w in elements:
            inv = [0] * len(w.images)
            for r, img in enumerate(w.images):
                inv[img] = r
            inverse[w.id] = by_images[tuple(inv)]
        self.inverse = inverse
        self.longest_id = max(elements, key=lambda w: w.length).id

    # -- basic operations ------------------------------------------------

    def mult(self, a: int, b: int) -> int:
        """Product ab (a after b on roots: (ab)(r) = a(b(r)))."""
        wa = self.elements[a].images
        wb = self.elements[b].images
        return self._by_images[tuple(wa[x] for x in wb)]

    def length(self, w: int) -> int:
        return self.elements[w].length

    def act_on_root(self, w: int, root_index: int) -> int:
        return self.elements[w].images[root_index]

    def act_on_weight(self, w: int, lam: Weight) -> Weight:
        """Coordinates of w(lam): alpha_i^vee(w lam) = (w^-1 alpha_i)^vee(lam)."""
        inv = self.elements[self.inverse[w]].images
        coords = tuple(pair(self.rs, inv[i], lam) for i in range(self.rs.rank))
        return Weight(coords, lam.n_transcendentals)

    def weight_orbit(self, lam: Weight) -> tuple[int, list[tuple[int, ...]]]:
        """The W-orbit of lam in integers: (den, rows), indexed by element id.

        den is the least common denominator of every rational and
        transcendental part of lam's coordinates.  rows[w] is one flat
        tuple holding den * alpha_i^vee(w lam) for each simple coroot i in
        turn: its rational part, then its coefficient on each
        transcendental, so rows[w][i * (1 + k) + j] with k transcendentals.
        Ids are in BFS order, so for w = s_i w' with i = word[0] the row of
        w' = left_table[w][i] is filled first, and
        alpha_j^vee(s_i mu) = mu_j - cartan[j][i] * mu_i
        gives w's row from it with integer work only.  Nothing is cached.
        """
        if lam.rank != self.rs.rank:
            raise ValueError(
                f"weight rank {lam.rank} does not match system rank {self.rs.rank}"
            )
        stride = 1 + lam.n_transcendentals
        values = [x for rational, tvec in lam.coords for x in (rational, *tvec)]
        den = math.lcm(*(x.denominator for x in values))
        cartan = self.rs.cartan_matrix
        # for s_i: the (start of coroot j's values, cartan[j][i]) it changes
        moves = [
            [(j * stride, cartan[j][i]) for j in range(self.rs.rank) if cartan[j][i]]
            for i in range(self.rs.rank)
        ]
        rows = [tuple(x.numerator * (den // x.denominator) for x in values)]
        left = self.left_table
        for w in range(1, self.size):
            i = self.elements[w].word[0]
            parent = rows[left[w][i]]
            mu_i = parent[i * stride : (i + 1) * stride]
            row = list(parent)
            for start, c in moves[i]:
                for t, m in enumerate(mu_i, start):
                    row[t] -= c * m
            rows.append(tuple(row))
        return den, rows

    def reflection(self, root_index: int) -> int:
        """The reflection in the given root, as a group element id."""
        cached = self._reflections[root_index]
        if cached is None:
            rs = self.rs
            alpha = rs.roots[root_index]
            images = []
            for r, beta in enumerate(rs.roots):
                c = rs.root_pairing(root_index, r)
                images.append(
                    rs.root_index[tuple(b - c * a for b, a in zip(beta, alpha))]
                )
            cached = self._reflections[root_index] = self._by_images[tuple(images)]
        return cached

    # -- descents and inversions -----------------------------------------

    def descents_right(self, w: int) -> frozenset[int]:
        images = self.elements[w].images
        p = self.rs.positive_root_count
        return frozenset(i for i in range(self.rs.rank) if images[i] >= p)

    def inversion_set(self, w: int) -> frozenset[int]:
        images = self.elements[w].images
        p = self.rs.positive_root_count
        return frozenset(r for r in range(p) if images[r] >= p)

    def longest_element_of_parabolic(self, subset) -> int:
        w = 0
        p = self.rs.positive_root_count
        while True:
            for i in sorted(subset):
                if self.elements[w].images[i] < p:
                    w = self.right_table[w][i]
                    break
            else:
                return w

    def subgroup_closure(self, generator_ids) -> frozenset[int]:
        seen = {0}
        queue = [0]
        while queue:
            x = queue.pop()
            for g in generator_ids:
                y = self.mult(x, g)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

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
