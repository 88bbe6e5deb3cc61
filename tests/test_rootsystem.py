import random
from fractions import Fraction

import pytest

from whitkl import (
    Weight,
    build_root_system,
    pair,
    weight_flags,
)
from whitkl.oracle import act_on_weight
from whitkl.rootsystem import is_integer, require_antidominant

from conftest import get_group, lambda_golden_a3, weight_catalog


def test_a1_has_two_roots():
    rs = build_root_system("A", 1)
    assert rs.n_roots == 2
    assert rs.roots == ((1,), (-1,))


def test_a3_roots_match_positive_list():
    rs = build_root_system("A", 3)
    assert rs.n_roots == 12
    assert rs.positive_root_count == 6
    positives = set(rs.roots[:6])
    assert positives == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (0, 1, 1),
        (1, 1, 1),
    }


def test_g2_closure_count():
    rs = build_root_system("G", 2)
    assert rs.n_roots == 12
    assert rs.positive_root_count == 6


@pytest.mark.parametrize(
    "letter,rank,count",
    [("B", 2, 8), ("C", 3, 18), ("D", 4, 24), ("F", 4, 48), ("E", 6, 72), ("A", 6, 42)],
)
def test_root_counts(letter, rank, count):
    assert build_root_system(letter, rank).n_roots == count


@pytest.mark.parametrize(
    "letter,rank", [("A", 0), ("B", 1), ("E", 3), ("F", 3), ("G", 3), ("A", 7), ("H", 3)]
)
def test_invalid_types_rejected(letter, rank):
    with pytest.raises(ValueError):
        build_root_system(letter, rank)


def test_cartan_invariants():
    for letter, rank in [("A", 3), ("B", 3), ("C", 2), ("G", 2), ("F", 4)]:
        rs = build_root_system(letter, rank)
        for i in range(rank):
            assert rs.cartan_matrix[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert rs.cartan_matrix[i][j] in (0, -1, -2, -3)
        # simple coroots are the standard basis
        for i in range(rank):
            assert rs.coroot_coords[i] == tuple(
                1 if j == i else 0 for j in range(rank)
            )
        # negation pairing
        for r in range(rs.n_roots):
            neg = rs.negate(r)
            assert rs.roots[neg] == tuple(-c for c in rs.roots[r])


def test_pair_golden_a3_values():
    rs = build_root_system("A", 3)
    lam = lambda_golden_a3()
    assert pair(rs, 0, lam) == (Fraction(-5), (Fraction(-4),))
    assert pair(rs, 2, lam) == (Fraction(-5), (Fraction(0),))


def test_pair_zero_weight():
    for letter, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(letter, rank)
        zero = Weight.zero(rank)
        for r in range(rs.n_roots):
            assert pair(rs, r, zero) == (Fraction(0), ())


def test_pair_rank_mismatch():
    rs = build_root_system("A", 3)
    with pytest.raises(ValueError):
        pair(rs, 0, Weight.zero(2))


def test_weight_flags_examples():
    rs = build_root_system("A", 3)
    lam = lambda_golden_a3()
    flags = weight_flags(rs, lam)
    assert (flags.antidominant, flags.regular, flags.integral) == (True, True, False)
    flags = weight_flags(rs, Weight.minus_rho(3))
    assert (flags.antidominant, flags.regular, flags.integral) == (True, True, True)
    flags = weight_flags(rs, Weight.zero(3))
    assert (flags.antidominant, flags.regular, flags.integral) == (False, False, True)


@pytest.mark.parametrize(
    "letter, rank",
    [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3),
     ("A", 4), ("B", 4), ("C", 4), ("D", 4), ("F", 4)],
)  # fmt: skip
def test_weight_flags_match_per_root_brute_force(letter, rank):
    rs = build_root_system(letter, rank)
    for lam in weight_catalog(rank):
        values = [pair(rs, r, lam) for r in range(rs.n_roots)]
        integer = [v[0].denominator == 1 and not any(v[1]) for v in values]
        positive = range(rs.positive_root_count)
        flags = weight_flags(rs, lam)
        assert flags.antidominant == all(
            not integer[r] or values[r][0] < 0 for r in positive
        )
        assert flags.regular == all(v[0] != 0 or any(v[1]) for v in values)
        assert flags.integral == all(integer)


_A2_WEIGHTS = {
    "zero": Weight.from_values([0, 0]),
    "positive": Weight.from_values([1, -1]),
    "non-integral": Weight.from_values([Fraction(-1, 2), -1]),
    # t1, 2 - t1 and 2 on the three positive roots
    "transcendental": Weight.from_values([(0, (1,)), (2, (-1,))]),
}


@pytest.mark.parametrize(
    "name, allow_zero, message",
    [
        ("zero", False, "coroot pairing 0 on root 0"),
        ("zero", True, None),
        ("positive", False, "coroot pairing 1 on root 0"),
        ("positive", True, "coroot pairing 1 on root 0"),
        ("non-integral", False, None),
        ("non-integral", True, None),
        ("transcendental", False, "coroot pairing 2 on root 2"),
        ("transcendental", True, "coroot pairing 2 on root 2"),
    ],
)
def test_require_antidominant_a2(name, allow_zero, message):
    rs = build_root_system("A", 2)
    lam = _A2_WEIGHTS[name]
    if message is None:
        require_antidominant(rs, lam, allow_zero)
        return
    with pytest.raises(ValueError) as info:
        require_antidominant(rs, lam, allow_zero)
    assert str(info.value) == f"lambda is not antidominant: {message}"


def _random_weight(rng, rank, k=1):
    return Weight.from_values(
        [
            (
                Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3])),
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(k)),
            )
            for _ in range(rank)
        ],
        n_transcendentals=k,
    )


def test_pair_negation_antisymmetry():
    rng = random.Random(5)
    for letter, rank in [("A", 3), ("B", 2), ("G", 2)]:
        rs = build_root_system(letter, rank)
        for _ in range(10):
            lam = _random_weight(rng, rank)
            for r in range(rs.n_roots):
                rational, tvec = pair(rs, r, lam)
                nrational, ntvec = pair(rs, rs.negate(r), lam)
                assert nrational == -rational
                assert ntvec == tuple(-c for c in tvec)


def test_integral_roots_form_subsystem():
    # closed under negation and its own reflections everywhere; additive
    # closure additionally holds in simply-laced types (it can fail when
    # two short roots sum to a long one, e.g. in G2)
    rng = random.Random(11)
    for letter, rank in [("A", 3), ("B", 2), ("G", 2)]:
        rs = build_root_system(letter, rank)
        simply_laced = letter in ("A", "D", "E")
        for _ in range(15):
            lam = _random_weight(rng, rank)
            integral_ids = {
                r for r in range(rs.n_roots) if is_integer(pair(rs, r, lam))
            }
            integral = {rs.roots[r] for r in integral_ids}
            for a in integral_ids:
                assert rs.negate(a) in integral_ids
                for b in integral_ids:
                    reflected = tuple(
                        rs.roots[b][m] - rs.root_pairing(a, b) * rs.roots[a][m]
                        for m in range(rank)
                    )
                    assert rs.root_index[reflected] in integral_ids
                    if simply_laced:
                        s = tuple(
                            x + y for x, y in zip(rs.roots[a], rs.roots[b])
                        )
                        if s in rs.root_index:
                            assert s in integral


def test_rho_pairs_to_one_on_simples():
    for letter, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(letter, rank)
        rho = Weight.rho(rank)
        for i in range(rank):
            assert pair(rs, i, rho) == (Fraction(1), ())


def test_action_compatibility():
    # pair(w r, w lam) = pair(r, lam) across the whole group
    rng = random.Random(23)
    for letter, rank in [("A", 2), ("B", 2)]:
        group = get_group(letter, rank)
        rs = group.rs
        for _ in range(5):
            lam = _random_weight(rng, rank)
            for w in range(group.size):
                wlam = act_on_weight(group, w, lam)
                for r in range(rs.n_roots):
                    assert pair(rs, group.act_on_root(w, r), wlam) == pair(rs, r, lam)


def test_weight_equality_is_exact():
    a = Weight.from_values([(Fraction(1, 2), (Fraction(1),))], n_transcendentals=1)
    b = Weight.from_values([(Fraction(1, 2), (Fraction(1),))], n_transcendentals=1)
    c = Weight.from_values([(Fraction(1, 2), (Fraction(2),))], n_transcendentals=1)
    assert a == b and hash(a) == hash(b)
    assert a != c
