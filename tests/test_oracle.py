from fractions import Fraction

import pytest

from whitkl import (
    LaurentPoly,
    Weight,
    build_integral_model,
    build_theta_cosets,
    integral_data,
)
from whitkl.oracle import (
    bruhat_subword,
    classical_kl,
    model_order_reflection_chains,
    recompute_cosets,
    recompute_subgroups,
)

from conftest import STABILIZER_CASES, get_group, lambda_golden_a3, weight_catalog

ONE = LaurentPoly.one()
ONE_PLUS_Q = LaurentPoly({0: 1, 1: 1})


def test_subword_identity_below_everything():
    g = get_group("A", 3)
    for w in range(g.size):
        assert bruhat_subword(g, 0, w)


def test_subword_letter_absent():
    g = get_group("A", 3)
    s_alpha = g.simple_ids[0]
    s_beta_s_gamma = g.mult(g.simple_ids[1], g.simple_ids[2])
    assert not bruhat_subword(g, s_alpha, s_beta_s_gamma)


def test_subword_agrees_on_b2():
    g = get_group("B", 2)
    for v in range(g.size):
        for w in range(g.size):
            assert bruhat_subword(g, v, w) == g.bruhat_leq(v, w)


def test_subword_length_cap():
    g = get_group("F", 4)
    with pytest.raises(ValueError):
        bruhat_subword(g, 0, g.longest_id)  # length 24 > 12


def test_classical_kl_diagonal_and_support():
    g = get_group("A", 2)
    p = classical_kl(g)
    for v in range(g.size):
        assert p[(v, v)] == ONE
        for w in range(g.size):
            if not g.bruhat_leq(v, w):
                assert (v, w) not in p


def test_classical_kl_s3_all_one():
    g = get_group("A", 2)
    p = classical_kl(g)
    assert len(p) == 19  # comparable pairs of S3, diagonal included
    assert all(poly == ONE for poly in p.values())


def test_classical_kl_dihedral_all_one():
    for letter in ("B", "G"):
        g = get_group(letter, 2)
        assert all(poly == ONE for poly in classical_kl(g).values())


def test_classical_kl_s4_known_values():
    # the two singular Schubert classes of S4: w = 3412 (word s2 s1 s3 s2)
    # with v in {e, s2}, and w = 4231 (word s1 s2 s3 s2 s1) with
    # v in {e, s1, s3, s1 s3}; every other polynomial is 1
    g = get_group("A", 3)
    p = classical_kl(g)
    assert len(p) == 213
    by_word = {g.elements[w].word: w for w in range(g.size)}
    w3412 = by_word[(1, 0, 2, 1)]
    w4231 = by_word[(0, 1, 2, 1, 0)]
    s1, s2, s3 = (g.simple_ids[i] for i in range(3))
    nontrivial = {
        (0, w3412),
        (s2, w3412),
        (0, w4231),
        (s1, w4231),
        (s3, w4231),
        (g.mult(s1, s3), w4231),
    }
    for (v, w), poly in p.items():
        if (v, w) in nontrivial:
            assert poly == ONE_PLUS_Q
        else:
            assert poly == ONE
    # degree bound deg <= (l(w) - l(v) - 1) / 2
    for (v, w), poly in p.items():
        if v != w:
            assert 2 * poly.max_exp() <= g.length(w) - g.length(v) - 1


def test_classical_kl_cap():
    import whitkl.oracle as om

    g = get_group("A", 3)
    old = om.CLASSICAL_KL_CAP
    om.CLASSICAL_KL_CAP = 10
    try:
        with pytest.raises(ValueError):
            classical_kl(g)
    finally:
        om.CLASSICAL_KL_CAP = old


def test_model_order_oracle_matches_bruhat():
    g = get_group("A", 3)
    idata = integral_data(g, (0, 1), lambda_golden_a3())
    pairs = model_order_reflection_chains(g, idata)
    members = sorted(idata.w_lambda_ids)
    for x in members:
        for y in members:
            assert ((x, y) in pairs) == g.bruhat_leq(x, y)


def _full_report(letter, rank, theta, lam):
    g = get_group(letter, rank)
    tc = build_theta_cosets(g, theta)
    idata = integral_data(g, theta, lam)
    models = [build_integral_model(tc, idata, u) for u in idata.a_theta_lambda]
    return recompute_cosets(g, theta, lam, tc, idata, models)


def test_recompute_cosets_golden_a3():
    report = _full_report("A", 3, (0, 1), lambda_golden_a3())
    assert report.passed, report.checks


def test_recompute_cosets_integral_empty_theta():
    report = _full_report("A", 2, (), Weight.minus_rho(2))
    assert report.passed, report.checks


def test_recompute_cosets_b2_catalog():
    for lam in weight_catalog(2):
        for theta in [(), (0,), (1,), (0, 1)]:
            report = _full_report("B", 2, theta, lam)
            assert report.passed, report.checks


def test_recompute_rejects_large_rank():
    g = get_group("F", 4)
    with pytest.raises(ValueError):
        recompute_cosets(g, (), Weight.minus_rho(4), None, None, [])


def test_report_json_shape():
    # a report is written as JSON by the verify command's document, whose
    # suite includes the checks of _full_report on this job
    import json

    from whitkl.cli import Job, render_json, run_verify

    data = json.loads(render_json(run_verify(Job("A", 2, (0,), Weight.minus_rho(2)))))
    assert data["passed"] is True
    assert all({"name", "scope", "passed", "counterexample"} <= set(c) for c in data["checks"])


SUBGROUP_CASES = STABILIZER_CASES + [
    ("A", 3, lambda_golden_a3()),
    ("B", 3, Weight.from_values([Fraction(-1, 2), -1, Fraction(-1, 2)])),
    ("F", 4, Weight.minus_rho(4)),
]


@pytest.mark.parametrize("letter, rank, lam", SUBGROUP_CASES)
def test_recompute_subgroups_passes_on_the_suite_weights(letter, rank, lam):
    g = get_group(letter, rank)
    report = recompute_subgroups(g, lam)
    assert [c.name for c in report.checks] == [
        "w-lambda-vs-lattice",
        "stabilizer-vs-zero-roots",
    ]
    assert report.passed, report.checks
