"""invert_multiplicities on packed rows: the widening rule, entries past
64 bits, and the Kazhdan-Lusztig inversion formula at Theta empty."""

import random
from fractions import Fraction

import pytest

from whitkl import (
    CharacterFormula,
    Weight,
    build_kl_table,
    invert_multiplicities,
    regular_formula,
)
from whitkl import charformula

from conftest import get_group


def _dense_inverse(matrix):
    """Forward elimination on a dense lower unitriangular list of rows."""
    n = len(matrix)
    inverse = []
    for i in range(n):
        row = [1 if k == i else 0 for k in range(n)]
        for j in range(i):
            for k in range(n):
                row[k] -= matrix[i][j] * inverse[j][k]
        inverse.append(row)
    return inverse


def _at_one(poly):
    return sum(coeff for _, coeff in poly.items())


def _record_widths(monkeypatch):
    widths = []
    packed_inverse = charformula._packed_inverse

    def spy(cf, index, width, inv):
        widths.append(width)
        return packed_inverse(cf, index, width, inv)

    monkeypatch.setattr(charformula, "_packed_inverse", spy)
    return widths


def test_invert_widens_from_a_tiny_start_width(monkeypatch):
    cf = regular_formula(build_kl_table(get_group("B", 4), (), Weight.minus_rho(4)))
    expected = invert_multiplicities(cf)
    widths = _record_widths(monkeypatch)
    monkeypatch.setattr(charformula, "_START_WIDTH", 8)
    assert invert_multiplicities(cf) == expected
    # some B4 row bound reaches 2^7, none reaches 2^15
    assert widths == [8, 16]


def test_invert_entries_beyond_64_bits_match_dense_elimination(monkeypatch):
    rng = random.Random(7)
    n = 9
    labels = tuple(rng.sample(range(100, 200), n))
    matrix = [
        [rng.randint(-(2**20), 2**20) if j < i else int(i == j) for j in range(n)]
        for i in range(n)
    ]
    rows = {
        labels[i]: tuple((labels[j], matrix[i][j]) for j in range(i + 1))
        for i in range(n)
    }
    cf = CharacterFormula("regular", "coset", labels, rows)
    widths = _record_widths(monkeypatch)
    inverse = invert_multiplicities(cf)
    assert inverse == _dense_inverse(matrix)
    assert max(abs(x) for row in inverse for x in row) > 2**64
    assert widths[0] == 16 and widths[-1] > 64


@pytest.mark.parametrize("letter, rank", [("A", 3), ("B", 3), ("G", 2), ("B", 4)])
def test_verma_inverse_is_kl_inversion(letter, rank):
    # Theta empty, lambda = -rho: [M(y) : L(x)] = P_{w0 y, w0 x}(1)
    # (Kazhdan-Lusztig, Invent. Math. 53, 1979); here a coset is one
    # element, and sigma(C) is the coset of w0 times its element
    g = get_group(letter, rank)
    table = build_kl_table(g, (), Weight.minus_rho(rank))
    cf = regular_formula(table)
    inverse = invert_multiplicities(cf)
    tc = table.tc
    sigma = [tc.coset_of[g.mult(g.longest_id, top)] for top in tc.longest]
    n = tc.n_cosets
    assert cf.labels == tuple(range(n))
    for c in range(n):
        for d in range(n):
            poly = table.polys.get((sigma[d], sigma[c]))
            assert inverse[c][d] == (0 if poly is None else _at_one(poly))


def test_non_integral_inverse_stays_inside_each_model():
    g = get_group("B", 3)
    lam = Weight.from_values([Fraction(-1, 2), -1, Fraction(-1, 2)])
    table = build_kl_table(g, (), lam)
    inverse = invert_multiplicities(regular_formula(table))
    model_of = {c: k for k, model in enumerate(table.models) for c in model.restrict}
    assert len(set(model_of.values())) > 1
    n = table.tc.n_cosets
    for c in range(n):
        for d in range(n):
            if inverse[c][d]:
                assert model_of[c] == model_of[d]


class _CountedRows(dict):
    """cf.rows that counts the reads of each row, one per elimination."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = dict.fromkeys(rows, 0)

    def get(self, label, default=None):
        self.reads[label] += 1
        return super().get(label, default)


def test_widening_resumes_at_the_failing_row(monkeypatch):
    cf = regular_formula(build_kl_table(get_group("B", 4), (), Weight.minus_rho(4)))
    expected = invert_multiplicities(cf)
    rows = _CountedRows(cf.rows)
    counted = CharacterFormula(cf.mode, cf.label_kind, cf.labels, rows)
    widths = _record_widths(monkeypatch)
    monkeypatch.setattr(charformula, "_START_WIDTH", 8)
    assert invert_multiplicities(counted) == expected
    assert widths == [8, 16]
    # the rows decoded at 8 bits are packed again, not eliminated again;
    # only the row whose bound failed is eliminated twice
    assert max(rows.reads.values()) == 2
    assert list(rows.reads.values()).count(2) == 1
