import random
from fractions import Fraction

import pytest

from whitkl import LaurentPoly
from whitkl.laurent import parse

Q = LaurentPoly.q()
ONE = LaurentPoly.one()
QINV = LaurentPoly.monomial(-1)


def test_add_examples():
    assert Q + QINV == LaurentPoly({1: 1, -1: 1})
    assert (Q + QINV).text() == "q + q^-1"


def test_mul_examples():
    assert Q * QINV == ONE
    assert (1 + Q) * (1 - Q) == 1 - Q * Q


def test_scale():
    assert 3 * Q == LaurentPoly({1: 3})
    assert 0 * Q == LaurentPoly.zero()
    assert not LaurentPoly.zero()


def test_coeff_and_eval():
    p = LaurentPoly({3: 2, 0: -1})
    assert p.coeff(3) == 2
    assert p.coeff(1) == 0
    assert Q.eval_minus_one() == -1
    assert (Q + Q * Q).eval_minus_one() == 0


def test_in_qzq():
    assert (Q + LaurentPoly.monomial(3)).in_qZq()
    assert not (1 + Q).in_qZq()
    assert LaurentPoly.zero().in_qZq()


def test_parity_homogeneous():
    assert (Q + LaurentPoly.monomial(3)).parity_homogeneous(1)
    assert not LaurentPoly.monomial(2).parity_homogeneous(1)
    assert LaurentPoly.monomial(2).parity_homogeneous(0)
    assert LaurentPoly.zero().parity_homogeneous(0)
    assert LaurentPoly.zero().parity_homogeneous(1)


def test_canonical_no_zero_terms():
    p = LaurentPoly({5: 0, 1: 2})
    assert p == LaurentPoly({1: 2})
    assert (Q - Q) == LaurentPoly.zero()


def test_equality_with_polys_ints_and_foreign_types():
    assert Q + ONE == LaurentPoly({0: 1, 1: 1})
    assert Q != ONE and Q != QINV
    # an int is the constant polynomial
    assert ONE * 3 == 3 and 3 == ONE * 3
    assert LaurentPoly.zero() == 0 and ONE != 0 and Q != 1
    # a foreign type compares unequal, and never as an int
    assert ONE != "1" and ONE != Fraction(1) and ONE != 1.0
    assert ONE.__eq__("1") is NotImplemented


def test_text_form():
    assert LaurentPoly({2: 1, 1: 3, 0: -1}).text() == "q^2 + 3*q - 1"
    assert LaurentPoly({-1: 1}).text() == "q^-1"
    assert LaurentPoly({0: -7}).text() == "-7"
    assert LaurentPoly({-3: -2, 4: 1}).text() == "q^4 - 2*q^-3"
    assert LaurentPoly.zero().text() == "0"


@pytest.mark.parametrize(
    "text",
    ["q^2 + 3*q - 1", "q^-1", "-7", "q^4 - 2*q^-3", "0", "1", "-q", "q + q^-1"],
)
def test_parse_round_trip(text):
    assert parse(text).text() == text


def test_parse_rejects_garbage():
    for bad in ["", "q^", "2**q", "q+", "*q"]:
        with pytest.raises(ValueError):
            parse(bad)


def _random_poly(rng):
    return LaurentPoly(
        {rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}
    )


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(1000):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_eval_is_ring_morphism():
    rng = random.Random(77)
    for _ in range(300):
        a, b = _random_poly(rng), _random_poly(rng)
        assert (a * b).eval_minus_one() == a.eval_minus_one() * b.eval_minus_one()
        assert (a + b).eval_minus_one() == a.eval_minus_one() + b.eval_minus_one()


def test_subst_q_power():
    p = LaurentPoly({2: 1, 1: 1})
    assert p.subst_q_power(-2) == LaurentPoly({-4: 1, -2: 1})


def test_results_stay_canonical_after_cancellation():
    p = (Q + 1) - (Q + 1)
    assert not p
    assert p.text() == "0"
    assert p == LaurentPoly.zero()
    assert hash(p) == hash(LaurentPoly.zero())
    assert not (Q * QINV - 1)
    assert not (Q + QINV + (-Q) + (-QINV))
    assert not ((1 + Q) * (1 - Q) - (1 - Q * Q))
    assert hash((Q + 2) - 2) == hash(Q)
    assert 1 - Q == -(Q - 1)


def test_scalar_multiplication():
    p = LaurentPoly({2: 3, -1: -1})
    assert not p * 0
    assert not 0 * p
    assert (p * 0).text() == "0"
    assert hash(p * 0) == hash(LaurentPoly.zero())
    assert p * -2 == LaurentPoly({2: -6, -1: 2})
    assert p * 1 == p
    assert p * 3 == p * LaurentPoly.monomial(0, 3)


def test_shift():
    p = LaurentPoly({2: 3, -1: -1})
    assert p.shift(1) == p * Q
    assert p.shift(-1) == p * QINV
    assert p.shift(0) == p
    assert p.shift(-2).text() == "3 - q^-3"
    assert not LaurentPoly.zero().shift(4)


def test_public_constructor_still_validates():
    for bad in [{1.0: 1}, {1: 1.5}, {"q": 1}, {0: Fraction(1, 2)}]:
        with pytest.raises(TypeError):
            LaurentPoly(bad)
