from fractions import Fraction

import pytest

from whitkl import (
    CharacterFormula,
    Weight,
    build_kl_table,
    invert_multiplicities,
    regular_formula,
    singular_formula,
    stabilizer_data,
)
from whitkl.charformula import verma_formula

from conftest import get_group, lambda_golden_a3


@pytest.fixture(scope="module")
def table_g():
    return build_kl_table(get_group("A", 3), (0, 1), lambda_golden_a3())


@pytest.fixture(scope="module")
def cf_g(table_g):
    return regular_formula(table_g)


def test_golden_a3_character_rows(table_g, cf_g):
    g = table_g.group
    # cosets 0..3 topped by s_aba, s_abag, s_abagb, w_0
    assert cf_g.rows[0] == ((0, 1),)
    assert cf_g.rows[1] == ((0, -1), (1, 1))
    assert cf_g.rows[2] == ((2, 1),)
    assert cf_g.rows[3] == ((1, -1), (3, 1))
    assert cf_g.mode == "regular" and cf_g.label_kind == "coset"


def test_regular_requires_antidominant_regular():
    g = get_group("A", 3)
    table = build_kl_table(g, (0, 1), Weight.zero(3))
    with pytest.raises(ValueError, match="not antidominant"):
        regular_formula(table)


def test_invert_multiplicities_golden_a3(cf_g):
    inverse = invert_multiplicities(cf_g)
    # the u = 1 block is indexed 0, 1, 3; the correct inverse of the
    # unitriangular matrix [[1,0,0],[-1,1,0],[0,-1,1]] has third row
    # (1, 1, 1): note the (w_0, base) entry is 1, not 0
    assert inverse == [
        [1, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 1, 0, 1],
    ]


def test_invert_times_original_is_identity(cf_g):
    inverse = invert_multiplicities(cf_g)
    n = len(cf_g.labels)
    original = [[0] * n for _ in range(n)]
    for label, entries in cf_g.rows.items():
        for target, coeff in entries:
            original[label][target] = coeff
    for i in range(n):
        for j in range(n):
            total = sum(inverse[i][k] * original[k][j] for k in range(n))
            assert total == (1 if i == j else 0)


def test_invert_reads_sparse_rows_and_rejects_non_unitriangular():
    # labels need not be 0..n-1; rows list only nonzero entries
    rows = {7: ((7, 1),), 3: ((7, 2), (3, 1)), 5: ((7, -1), (3, 4), (5, 1))}
    cf = CharacterFormula("regular", "element", (7, 3, 5), rows)
    assert invert_multiplicities(cf) == [[1, 0, 0], [-2, 1, 0], [9, -4, 1]]
    rows = {0: ((0, 1), (1, 3)), 1: ((1, 1),)}
    above = CharacterFormula("regular", "coset", (0, 1), rows)
    with pytest.raises(AssertionError, match="unitriangular"):
        invert_multiplicities(above)
    missing = CharacterFormula("regular", "coset", (0, 1), {0: ((0, 1),)})
    with pytest.raises(AssertionError, match="unitriangular"):
        invert_multiplicities(missing)


def test_invert_rejects_singular_mode():
    g = get_group("A", 2)
    lam = Weight.from_values([0, -1])
    table = build_kl_table(g, (), lam)
    cf = singular_formula(table, stabilizer_data(g, (), lam))
    with pytest.raises(ValueError):
        invert_multiplicities(cf)


def test_singular_degenerates_to_regular(table_g, cf_g):
    g = table_g.group
    stab = stabilizer_data(g, (0, 1), table_g.lam)
    singular = singular_formula(table_g, stab)
    shortest_of = dict(enumerate(table_g.tc.shortest))
    assert set(singular.labels) == {shortest_of[c] for c in cf_g.labels}
    for c, entries in cf_g.rows.items():
        translated = tuple(
            sorted((shortest_of[d], coeff) for d, coeff in entries)
        )
        assert singular.rows[shortest_of[c]] == translated


def test_singular_a2_hand_computed():
    # A2, Theta empty, lambda with exactly one vanishing coroot value:
    # A^lambda = {e, s_b, s_a s_b}, W^lambda = {e, s_a}; the third row's
    # e-group coefficient is (+1) + (-1) = 0 and is dropped
    g = get_group("A", 2)
    lam = Weight.from_values([0, -1])
    table = build_kl_table(g, (), lam)
    stab = stabilizer_data(g, (), lam)
    cf = singular_formula(table, stab)
    by_word = {g.elements[x].word: x for x in range(g.size)}
    e, sb, sab = by_word[()], by_word[(1,)], by_word[(0, 1)]
    assert cf.labels == (e, sb, sab)
    assert cf.rows[e] == ((e, 1),)
    assert cf.rows[sb] == tuple(sorted([(e, -1), (sb, 1)]))
    assert cf.rows[sab] == tuple(sorted([(sb, -1), (sab, 1)]))


def test_singular_a2_matches_bruteforce_grouping():
    # independent grouping of the regular-style coefficients over
    # (W_Theta, W^lambda)-double cosets
    g = get_group("A", 2)
    lam = Weight.from_values([0, -1])
    table = build_kl_table(g, (), lam)
    stab = stabilizer_data(g, (), lam)
    cf = singular_formula(table, stab)
    tc = table.tc
    elt_of = {c: members[0] for c, members in enumerate(tc.members)}
    coset_of_elt = {v: k for k, v in elt_of.items()}
    for v in stab.a_theta_stab:
        acc = {}
        for (c, d), poly in table.polys.items():
            if elt_of[c] != v:
                continue
            d_elt = elt_of[d]
            group_of_d = next(
                z
                for z in stab.a_theta_stab
                if d_elt
                in {
                    g.mult(g.mult(a, z), b)
                    for a in tc.w_theta_ids
                    for b in stab.w_stab_ids
                }
            )
            acc[group_of_d] = acc.get(group_of_d, 0) + poly.eval_minus_one()
        expected = tuple(sorted((z, c) for z, c in acc.items() if c))
        assert cf.rows[v] == expected
    assert coset_of_elt  # silence unused warning path


def test_singular_full_theta():
    g = get_group("A", 2)
    lam = Weight.from_values([0, -1])
    table = build_kl_table(g, (0, 1), lam)
    stab = stabilizer_data(g, (0, 1), lam)
    cf = singular_formula(table, stab)
    assert cf.labels == (0,)
    assert cf.rows[0] == ((0, 1),)


def test_verma_mode_a2_integral():
    g = get_group("A", 2)
    cf = verma_formula(build_kl_table(g, (), Weight.minus_rho(2)))
    assert cf.label_kind == "element"
    by_word = {g.elements[x].word: x for x in range(g.size)}
    e = by_word[()]
    w0 = by_word[(0, 1, 0)]
    assert cf.rows[e] == ((e, 1),)
    row = dict(cf.rows[w0])
    assert len(row) == g.size
    for v in range(g.size):
        assert row[v] == (-1) ** (3 - g.length(v))


def test_verma_mode_golden_a3_block_support():
    g = get_group("A", 3)
    lam = lambda_golden_a3()
    cf = verma_formula(build_kl_table(g, (), lam))
    by_word = {g.elements[x].word: x for x in range(g.size)}
    sgsb = by_word[(2, 1)]
    assert cf.rows[sgsb] == ((sgsb, 1),)
    # entries of any row stay inside the block u W_lambda of the row label
    idata = __import__("whitkl").integral_data(g, (), lam)
    for w in cf.labels:
        block = next(
            {g.mult(u, v) for v in idata.w_lambda_ids}
            for u in idata.a_lambda
            if any(g.mult(u, v) == w for v in idata.w_lambda_ids)
        )
        for v, _ in cf.rows[w]:
            assert v in block


@pytest.mark.parametrize(
    "lam",
    [Weight.minus_rho(3), Weight.from_values([Fraction(-1, 2), -1, Fraction(-1, 2)])],
    ids=["minus-rho", "half-integral"],
)
def test_verma_formula_is_regular_formula_relabelled_by_element(lam):
    table = build_kl_table(get_group("B", 3), (), lam)
    cf = regular_formula(table)
    member = [members[0] for members in table.tc.members]
    verma = verma_formula(table)
    assert verma.mode == "regular" and verma.label_kind == "element"
    assert verma.labels == tuple(member[c] for c in cf.labels)
    assert list(verma.rows) == list(verma.labels)
    for c in cf.labels:
        assert verma.rows[member[c]] == tuple(
            sorted((member[d], coeff) for d, coeff in cf.rows[c])
        )


def test_blocks_depend_only_on_model_shape(table_g):
    # the A3 u=1 block equals the table of the standalone system with the
    # same abstract triple: A2 with the second simple root as theta
    g2 = get_group("A", 2)
    standalone = build_kl_table(g2, (1,), Weight.minus_rho(2))
    offdiag_standalone = {
        k: v for k, v in standalone.polys.items() if k[0] != k[1]
    }
    model = table_g.models[0]
    # align via ind and coset length
    block_offdiag = {}
    for (c, d), poly in table_g.polys.items():
        if c != d and c in model.restrict:
            f, gg = model.restrict[c], model.restrict[d]
            block_offdiag[(f, gg)] = poly
    base = standalone.tc.length(0)
    standalone_by_length = {
        (standalone.tc.length(c) - base, standalone.tc.length(d) - base): poly
        for (c, d), poly in offdiag_standalone.items()
    }
    base_model = model.length(0)
    block_by_length = {
        (model.length(f) - base_model, model.length(gg) - base_model): poly
        for (f, gg), poly in block_offdiag.items()
    }
    assert block_by_length == standalone_by_length
