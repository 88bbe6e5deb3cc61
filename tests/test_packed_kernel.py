"""Path A's kernel runs on packed ints: q -> 2**B with balanced digits.

The encoding round-trips inside the digit cap (a property in
`test_properties`), a width too small for a table's coefficients raises
AssertionError (exit 3 from the CLI) instead of yielding wrong bytes, each distinct value is decoded once, and Path B,
on coefficient tuples of its own, agrees with the kernel at rank 4.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import whitkl.klengine as klengine
from whitkl import LaurentPoly, Weight, build_kl_table, phi_direct
from whitkl.cli import main
from whitkl.klengine import _decode, _digit_cap
from whitkl.oracle import _encode

from conftest import get_group

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def test_decode_reads_mixed_sign_digits_at_the_cap():
    cap = _digit_cap()
    poly = LaurentPoly({0: -cap, 1: cap, 2: -1, 5: 1, 7: cap})
    assert _decode(_encode(poly), cap) == poly
    assert _decode(_encode(-poly), cap) == -poly


def test_decode_raises_above_the_cap():
    cap = _digit_cap()
    with pytest.raises(AssertionError):
        _decode(_encode(LaurentPoly({3: cap + 1})), cap)
    with pytest.raises(ValueError):
        _encode(LaurentPoly({-1: 1}))


def _a4_args():
    return ["--type", "A4", "--theta", "", "--lambda=-1,-1,-1,-1", "klpolys"]


def test_small_width_still_exact_within_the_cap(monkeypatch):
    # 18-bit digits cap every coefficient and mu at 1, which A3 at -rho meets
    group = get_group("A", 3)
    lam = Weight.minus_rho(3)
    wide = build_kl_table(group, (), lam)
    monkeypatch.setattr(klengine, "_DIGIT_BITS", 18)
    assert _digit_cap() == 1
    narrow = build_kl_table(group, (), lam)
    assert list(narrow.polys.items()) == list(wide.polys.items())


def test_small_width_raises_on_a_coefficient_above_the_cap(monkeypatch, capsys):
    # A4 at -rho has a coefficient 2
    group = get_group("A", 4)
    lam = Weight.minus_rho(4)
    polys = build_kl_table(group, (), lam).polys.values()
    assert max(abs(c) for poly in polys for _, c in poly.items()) == 2
    monkeypatch.setattr(klengine, "_DIGIT_BITS", 18)
    with pytest.raises(AssertionError, match="above the cap 1"):
        build_kl_table(group, (), lam)
    assert main(_a4_args()) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("whitkl: internal error: ") and "above the cap 1" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_a_width_that_holds_no_digit_is_refused(monkeypatch):
    monkeypatch.setattr(klengine, "_DIGIT_BITS", 17)
    with pytest.raises(AssertionError):
        build_kl_table(get_group("A", 2), (), Weight.minus_rho(2))


def test_f4_decodes_each_distinct_polynomial_once():
    table = build_kl_table(get_group("F", 4), (), Weight.minus_rho(4))
    polys = list(table.polys.values())
    assert len(polys) == 396809
    assert len({id(poly) for poly in polys}) == 1691
    assert len(set(polys)) == 1691


RANK_4_CASES = {
    "B4": ("B", (), (-HALF, -1, -HALF, -1)),
    "C4": ("C", (), (-HALF, -1, -HALF, -1)),
    "D4": ("D", (), (-HALF, -1, -HALF, -HALF)),
    "F4-half": ("F", (), (-HALF, -1, -1, -HALF)),
    "F4-alpha": ("F", (0,), (-1, -1, -HALF, -HALF)),
    "F4-third": ("F", (), (-1, -THIRD, -1, -1)),
}


@pytest.mark.parametrize("name", list(RANK_4_CASES))
def test_path_b_agrees_with_path_a_at_rank_4(name):
    letter, theta, values = RANK_4_CASES[name]
    lam = Weight.from_values(list(values))
    table = build_kl_table(get_group(letter, 4), theta, lam)
    assert phi_direct(table.tc, lam) == table.phi
