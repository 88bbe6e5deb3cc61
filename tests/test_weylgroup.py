import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from whitkl import Weight, build_root_system, enumerate_group, pair
from whitkl.oracle import (
    act_on_weight,
    bruhat_subword,
    inversion_set,
    longest_element_of_parabolic,
    root_images,
    weight_orbit,
)
from whitkl.weylgroup import GROUP_SIZE_CAP

from conftest import get_group


def test_enumerate_sizes():
    assert get_group("A", 1).size == 2
    a3 = get_group("A", 3)
    assert a3.size == 24
    assert a3.length(a3.longest_id) == 6
    b2 = get_group("B", 2)
    assert b2.size == 8  # 2^2 * 2!
    assert b2.length(b2.longest_id) == 4
    assert get_group("G", 2).size == 12
    assert get_group("B", 3).size == 48


def test_ids_deterministic_bfs():
    g = get_group("A", 2)
    words = [g.elements[w].word for w in range(g.size)]
    assert words == [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)]


def test_element_invariants():
    for letter, rank in [("A", 3), ("B", 2), ("G", 2)]:
        g = get_group(letter, rank)
        p = g.rs.positive_root_count
        for w in g.elements:
            assert w.length == len(w.word)
            assert w.length == len(inversion_set(g, w.id))
            # images commute with negation
            images = root_images(g, w.id)
            for r in range(p):
                assert images[r + p] == g.rs.negate(images[r])
            # the word reproduces the permutation
            x = 0
            for i in w.word:
                x = g.right_table[x][i]
            assert x == w.id


def test_act_on_weight_examples(a3_group, lam_g):
    g = a3_group
    assert act_on_weight(g, 0, lam_g) == lam_g
    s_alpha = g.simple_ids[0]
    moved = act_on_weight(g, s_alpha, lam_g)
    assert moved.coords[0] == (Fraction(5), (Fraction(4),))
    w0 = g.longest_id
    assert act_on_weight(g, w0, Weight.minus_rho(3)) == Weight.rho(3)


def test_length_changes_by_one():
    for letter, rank in [("A", 3), ("B", 2)]:
        g = get_group(letter, rank)
        for w in range(g.size):
            for i in range(rank):
                assert abs(g.length(g.right_table[w][i]) - g.length(w)) == 1


def test_bruhat_identity_below_everything(a3_group):
    for w in range(a3_group.size):
        assert a3_group.bruhat_leq(0, w)


def test_bruhat_subword_example(a3_group):
    g = a3_group
    s_beta = g.simple_ids[1]
    aba = g.mult(g.mult(g.simple_ids[0], g.simple_ids[1]), g.simple_ids[0])
    assert g.bruhat_leq(s_beta, aba)


def test_bruhat_length_monotone(a3_group):
    g = a3_group
    for v in range(g.size):
        for w in range(g.size):
            if g.length(w) > g.length(v):
                assert not g.bruhat_leq(w, v)


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("A", 3), ("B", 3)])
def test_bruhat_agrees_with_subword_oracle(letter, rank):
    g = get_group(letter, rank)
    for v in range(g.size):
        for w in range(g.size):
            assert g.bruhat_leq(v, w) == bruhat_subword(g, v, w), (v, w)


def test_bruhat_random_pairs_on_f4():
    g = get_group("F", 4)
    rng = random.Random(99)
    checked = 0
    while checked < 10_000:
        v = rng.randrange(g.size)
        w = rng.randrange(g.size)
        if g.length(w) > 12:
            continue
        assert g.bruhat_leq(v, w) == bruhat_subword(g, v, w), (v, w)
        checked += 1


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_bruhat_partial_order_axioms(letter, rank):
    g = get_group(letter, rank)
    leq = [[g.bruhat_leq(v, w) for w in range(g.size)] for v in range(g.size)]
    for v in range(g.size):
        assert leq[v][v]
        for w in range(g.size):
            if leq[v][w] and leq[w][v]:
                assert v == w
            for x in range(g.size):
                if leq[v][w] and leq[w][x]:
                    assert leq[v][x]


def test_descents_and_inversions(a3_group):
    g = a3_group
    assert g.descents_right(0) == frozenset()
    assert inversion_set(g, 0) == frozenset()
    # s_gamma s_beta sends beta and beta+gamma negative
    sgsb = g.mult(g.simple_ids[2], g.simple_ids[1])
    roots = {g.rs.roots[r] for r in inversion_set(g, sgsb)}
    assert roots == {(0, 1, 0), (0, 1, 1)}
    w0 = g.longest_id
    assert g.descents_right(w0) == frozenset(range(3))
    assert inversion_set(g, w0) == frozenset(range(g.rs.positive_root_count))


def test_longest_element_of_parabolic(a3_group):
    g = a3_group
    assert longest_element_of_parabolic(g, ()) == 0
    w = longest_element_of_parabolic(g, (0, 1))
    assert g.elements[w].word == (0, 1, 0)
    assert g.length(w) == 3
    assert longest_element_of_parabolic(g, (0, 1, 2)) == g.longest_id


def test_group_cap():
    import whitkl.weylgroup as wg

    old = wg.GROUP_SIZE_CAP
    wg.GROUP_SIZE_CAP = 10
    try:
        with pytest.raises(ValueError):
            get_group.__wrapped__("A", 3)
    finally:
        wg.GROUP_SIZE_CAP = old


def test_mult_and_inverse(a3_group):
    g = a3_group
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randrange(g.size)
        b = rng.randrange(g.size)
        ab = g.mult(a, b)
        assert g.mult(ab, g.inverse[b]) == a
        assert g.mult(g.inverse[a], ab) == b


def test_action_is_group_action(a3_group, lam_g):
    g = a3_group
    rng = random.Random(4)
    for _ in range(50):
        a = rng.randrange(g.size)
        b = rng.randrange(g.size)
        assert act_on_weight(g, g.mult(a, b), lam_g) == act_on_weight(
            g, a, act_on_weight(g, b, lam_g)
        )


@pytest.mark.parametrize("letter, rank", [("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_reflection_in_every_root(letter, rank):
    g = get_group(letter, rank)
    rs = g.rs
    for i in range(rs.rank):
        assert g.reflection(i) == g.simple_ids[i]
    for r in range(rs.n_roots):
        s = g.reflection(r)
        assert s != 0 and g.mult(s, s) == 0
        assert g.act_on_root(s, r) == rs.negate(r)
        assert g.reflection(rs.negate(r)) == s
        assert g.length(s) % 2 == 1
        assert g.reflection(r) == s
        # it fixes the roots orthogonal to r
        for q in range(rs.n_roots):
            if rs.root_pairing(r, q) == 0:
                assert g.act_on_root(s, q) == q


def _orbit_weights(rank):
    """A rational, a half-integral and a two-transcendental weight."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    return [
        Weight.from_values([-(i + 1) * third for i in range(rank)]),
        Weight.from_values([-half if i % 2 == 0 else -1 for i in range(rank)]),
        Weight.from_values(
            [
                (-1 - i * half, (Fraction(i - 1), Fraction(1, i + 2)))
                for i in range(rank)
            ],
            n_transcendentals=2,
        ),
    ]


def _scaled(mu, den):
    return tuple(den * x for rational, tvec in mu.coords for x in (rational, *tvec))


@pytest.mark.parametrize(
    "letter, rank",
    [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("B", 4), ("D", 4), ("D", 5)],
)
def test_weight_orbit_matches_act_on_weight(letter, rank):
    g = get_group(letter, rank)
    for lam in _orbit_weights(rank):
        den, rows = weight_orbit(g, lam)
        assert len(rows) == g.size
        assert all(type(x) is int for x in rows[0])
        # den is the least common denominator of lam's parts
        assert den == math.lcm(*(x.denominator for x in _scaled(lam, 1)))
        for w in range(g.size):
            assert rows[w] == _scaled(act_on_weight(g, w, lam), den), (lam, w)


def test_weight_orbit_f4_minus_rho():
    g = get_group("F", 4)
    lam = Weight.minus_rho(4)
    den, rows = weight_orbit(g, lam)
    assert den == 1
    for w in range(g.size):
        assert rows[w] == _scaled(act_on_weight(g, w, lam), 1)
    assert rows[g.longest_id] == (1, 1, 1, 1)


def test_weight_orbit_golden_a3_layout(a3_group, lam_g):
    # per simple coroot: rational part, then each transcendental coefficient
    den, rows = weight_orbit(a3_group, lam_g)
    assert den == 1
    assert rows[0] == (-5, -4, -5, 4, -5, 0)
    assert rows[a3_group.simple_ids[0]] == (5, 4, -10, 0, -5, 0)


def test_weight_orbit_rank_mismatch(a3_group):
    with pytest.raises(ValueError):
        weight_orbit(a3_group, Weight.minus_rho(2))


def _image_tables(rs):
    """The group built from root-image tuples: each element is its
    permutation of the root list, found by a BFS over products with the
    simple reflections, and the tables are read off the permutations (mult
    is their composition, see test_mult_composes_root_images).  An
    independent reference for the integer-keyed tables."""
    n, n_roots = rs.rank, rs.n_roots
    simple = [tuple(rs.reflect(i, r) for r in range(n_roots)) for i in range(n)]
    identity = tuple(range(n_roots))
    images, words = [identity], [()]
    by_images = {identity: 0}
    frontier = [0]
    while frontier:
        new_frontier = []
        for w in frontier:
            for i in range(n):
                img = tuple(images[w][x] for x in simple[i])
                if img not in by_images:
                    by_images[img] = len(images)
                    new_frontier.append(len(images))
                    images.append(img)
                    words.append(words[w] + (i,))
        frontier = new_frontier

    def invert(img):
        inv = [0] * n_roots
        for r, x in enumerate(img):
            inv[x] = r
        return by_images[tuple(inv)]

    def reflection(r):
        alpha = rs.roots[r]
        return by_images[
            tuple(
                rs.root_index[
                    tuple(b - rs.root_pairing(r, q) * a for b, a in zip(beta, alpha))
                ]
                for q, beta in enumerate(rs.roots)
            )
        ]

    return {
        "images": images,
        "words": words,
        "right_table": [
            [by_images[tuple(img[x] for x in simple[i])] for i in range(n)]
            for img in images
        ],
        "inverse": [invert(img) for img in images],
        "simple_ids": [by_images[simple[i]] for i in range(n)],
        "longest_id": max(range(len(words)), key=lambda w: len(words[w])),
        "reflections": [reflection(r) for r in range(n_roots)],
    }


REFERENCE_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("F", 4), ("G", 2),
]  # fmt: skip


@pytest.mark.parametrize("letter, rank", REFERENCE_TYPES)
def test_tables_match_root_image_reference(letter, rank):
    g = get_group(letter, rank)
    ref = _image_tables(g.rs)
    assert [w.id for w in g.elements] == list(range(g.size))
    assert [root_images(g, w) for w in range(g.size)] == ref["images"]
    assert [w.word for w in g.elements] == ref["words"]
    assert [w.length for w in g.elements] == [len(w) for w in ref["words"]]
    assert g.right_table == ref["right_table"]
    assert g.inverse == ref["inverse"]
    assert g.simple_ids == ref["simple_ids"]
    assert g.longest_id == ref["longest_id"]
    assert [g.reflection(r) for r in range(g.rs.n_roots)] == ref["reflections"]


@pytest.mark.parametrize("letter, rank", REFERENCE_TYPES)
def test_simple_reflection_tables_follow_the_cartan_matrix(letter, rank):
    # act_on_root and oracle.root_images both read rs.simple_reflections,
    # so the table is checked here on its own
    rs = build_root_system(letter, rank)
    a = rs.cartan_matrix
    for i, row in enumerate(rs.simple_reflections):
        assert len(row) == rs.n_roots
        for r, root in enumerate(rs.roots):
            # s_i(r) = r - <alpha_i^vee, r> alpha_i
            coroot_value = sum(a[i][m] * root[m] for m in range(rank))
            image = list(root)
            image[i] -= coroot_value
            assert row[r] == rs.roots.index(tuple(image)), (i, r)
            assert row[row[r]] == r
        assert rs.roots[row[i]] == tuple(-c for c in rs.roots[i])


@pytest.mark.parametrize(
    "letter, rank, n_pairs",
    [("A", 3, None), ("B", 3, None), ("G", 2, None), ("F", 4, 2000), ("D", 5, 2000)],
)
def test_mult_composes_root_images(letter, rank, n_pairs):
    g = get_group(letter, rank)
    if n_pairs is None:
        pairs = itertools.product(range(g.size), repeat=2)
    else:
        rng = random.Random(17)
        pairs = [(rng.randrange(g.size), rng.randrange(g.size)) for _ in range(n_pairs)]
    for a, b in pairs:
        ia, ib = root_images(g, a), root_images(g, b)
        assert root_images(g, g.mult(a, b)) == tuple(ia[x] for x in ib), (a, b)


def test_e6_words_and_reflections_pinned():
    # sha256 of the BFS words and the reflection ids, taken from the
    # root-image enumeration; E6 fills the group-size cap exactly
    g = enumerate_group(build_root_system("E", 6))
    assert g.size == GROUP_SIZE_CAP == 51840
    text = "\n".join(",".join(map(str, w.word)) for w in g.elements)
    text += "\n" + ",".join(str(g.reflection(r)) for r in range(g.rs.n_roots))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ec99a3b8f56405ff502176afb2e9ae5bf6ad9b48c123416342e489b34c218bc1"
    )
