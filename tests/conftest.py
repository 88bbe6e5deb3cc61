"""Shared fixtures: cached groups and the weight catalog used across the
suite and the acceptance criteria."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest

from whitkl import Weight, build_root_system, enumerate_group


def assert_same_text(got, expected, context: int = 60):
    """Fail unless got == expected, naming the first offset where they
    differ with up to context characters of each around it.

    Unlike a bare ``assert got == expected``, a failure does not make
    pytest diff two whole documents: the offset is found by bisection on
    prefixes, each compared in C.
    """
    if got == expected:
        return
    lo, hi = 0, min(len(got), len(expected))
    while lo < hi:  # got[:lo] == expected[:lo]; the first difference is <= hi
        mid = (lo + hi + 1) // 2
        if got[:mid] == expected[:mid]:
            lo = mid
        else:
            hi = mid - 1
    start = max(0, lo - context)
    raise AssertionError(
        f"texts differ at offset {lo} (lengths {len(got)} and {len(expected)}):\n"
        f"  got      {got[start:lo + context]!r}\n"
        f"  expected {expected[start:lo + context]!r}"
    )


@lru_cache(maxsize=None)
def get_group(type_letter: str, rank: int):
    return enumerate_group(build_root_system(type_letter, rank))


SMALL_TYPES = [("A", 1), ("A", 2), ("B", 2), ("A", 3), ("B", 3), ("G", 2)]


def weight_catalog(rank: int) -> list[Weight]:
    """At least five integrality patterns per rank: fully integral, fully
    non-integral, mixed with non-simple integral roots, half-integral
    rationals, and a singular integral point."""
    half = Fraction(1, 2)
    patterns = [
        Weight.from_values([-1] * rank),
        Weight.from_values(
            [(-1, (Fraction(i + 1),)) for i in range(rank)], n_transcendentals=1
        ),
    ]
    # mixed: opposite transcendental coefficients on the first two simples
    tcoeffs = [Fraction(0)] * rank
    if rank >= 2:
        tcoeffs[0], tcoeffs[1] = Fraction(-1), Fraction(1)
    else:
        tcoeffs[0] = Fraction(1)
    patterns.append(
        Weight.from_values(
            [(-1, (tcoeffs[i],)) for i in range(rank)], n_transcendentals=1
        )
    )
    patterns.append(Weight.from_values([-half] + [-1] * (rank - 1)))
    patterns.append(Weight.from_values([-half] * rank))
    patterns.append(Weight.from_values([0] + [-1] * (rank - 1)))
    patterns.append(Weight.from_values([-2] + [-1] * (rank - 1)))
    return patterns


def lambda_golden_a3() -> Weight:
    return Weight.from_values([(-5, (-4,)), (-5, (4,)), (-5, (0,))])


STABILIZER_CASES = [
    ("A", 3, Weight.zero(3)),
    ("A", 3, Weight.from_values([0, -1, 0])),
    ("B", 3, Weight.from_values([0, Fraction(-1, 2), 0])),
    ("C", 3, Weight.from_values([(0, (0,)), (-1, (1,)), 0])),
    ("G", 2, Weight.from_values([0, Fraction(-1, 3)])),
    ("B", 4, Weight.from_values([0, -1, 0, Fraction(-1, 2)])),
    ("D", 5, Weight.from_values([0, (-1, (1,)), Fraction(-1, 2), (-1, (-1,)), -1])),
]


@pytest.fixture
def wrong_reflection_subgroup(monkeypatch):
    """cosetlab._reflection_subgroup with the longest element toggled in or
    out of its lengths, for W_lambda and W^lambda alike."""
    from whitkl import cosetlab

    real = cosetlab._reflection_subgroup

    def wrong(group, simple_roots):
        lengths, steps = real(group, simple_roots)
        lengths = dict(lengths)
        if lengths.pop(group.longest_id, None) is None:
            lengths[group.longest_id] = group.length(group.longest_id)
        return lengths, steps

    monkeypatch.setattr(cosetlab, "_reflection_subgroup", wrong)


@pytest.fixture(scope="session")
def a3_group():
    return get_group("A", 3)


@pytest.fixture(scope="session")
def lam_g():
    return lambda_golden_a3()


def check_structural_invariants(table):
    """KL-table invariants: off-diagonal polynomials in qZ[q], block
    support, unitriangularity, and parity homogeneity."""
    from whitkl import LaurentPoly

    tc = table.tc
    for (c, d), poly in table.polys.items():
        if c == d:
            assert poly == LaurentPoly.one()
            continue
        assert poly.in_qZq(), (c, d, poly.text())
        model = table.model_of_coset(c)
        assert d in model.restrict, f"({c},{d}) crosses a block boundary"
        f, g = model.restrict[c], model.restrict[d]
        assert model.leq(g, f) and f != g
        assert tc.length(d) < tc.length(c)
        gap = model.length(f) - model.length(g)
        assert poly.parity_homogeneous(gap), (c, d, poly.text(), gap)
    # phi rows agree with the polynomial table
    for c, elt in table.phi.items():
        assert elt.coeff(c) == LaurentPoly.one()
        for d, poly in elt.coeffs.items():
            if d != c:
                assert table.polys.get((c, d)) == poly
