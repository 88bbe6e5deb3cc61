import itertools
from fractions import Fraction

import pytest

from whitkl import (
    LaurentPoly,
    Weight,
    build_integral_model,
    build_kl_table,
    build_theta_cosets,
    integral_data,
    kl_basis_model,
    phi_direct,
)
from whitkl.heckemodule import HeckeElt, model_tag
from whitkl.klengine import (
    _DIGIT_BITS,
    _assert_kl_shape,
    _decode,
    _digit_cap,
    _submul,
    _subtract_mu,
    _tuple_constant,
    _tuple_decode,
    _tuple_submul,
)
from whitkl.oracle import (
    CosetStep,
    _double_coset_rep,
    _encode,
    act_on_weight,
    delta,
    descent_chain,
    kl_classical_relation_check,
    t_alpha,
    t_alpha_model,
    times_element,
    times_simple,
)

from conftest import check_structural_invariants, get_group, lambda_golden_a3

Q = LaurentPoly.q()
ONE = LaurentPoly.one()


@pytest.fixture(scope="module")
def table_g():
    return build_kl_table(get_group("A", 3), (0, 1), lambda_golden_a3())


def test_golden_a3_p_table(table_g):
    # ids 0..3 are the cosets topped by s_aba, s_abag, s_abagb, w_0
    offdiag = {k: v for k, v in table_g.polys.items() if k[0] != k[1]}
    assert offdiag == {(1, 0): Q, (3, 1): Q}
    for c in range(4):
        assert table_g.polys[(c, c)] == ONE
    assert (3, 0) not in table_g.polys  # the zero entry of the 3x3 table


def test_golden_a3_phi(table_g):
    phi = table_g.phi
    assert phi[0].coeffs == {0: ONE}
    assert phi[1].coeffs == {0: Q, 1: ONE}
    assert phi[2].coeffs == {2: ONE}
    assert phi[3].coeffs == {1: Q, 3: ONE}


def test_single_coset_model_trivial(table_g):
    model = table_g.models[1]
    psi, polys = kl_basis_model(model)
    assert psi[0] == delta(model_tag(model), 0)
    assert polys == {(0, 0): ONE}


def test_a1_regular_hecke_module():
    # Theta empty on A1: psi(s) = delta_s + q delta_e
    g = get_group("A", 1)
    table = build_kl_table(g, (), Weight.minus_rho(1))
    assert table.polys[(1, 0)] == Q
    assert table.phi[1].coeffs == {0: Q, 1: ONE}


def test_full_theta_single_coset():
    g = get_group("A", 2)
    table = build_kl_table(g, (0, 1), Weight.minus_rho(2))
    assert table.tc.n_cosets == 1
    assert table.phi[0].coeffs == {0: ONE}


def test_phi_direct_equals_transport_golden_a3(table_g):
    pd = phi_direct(table_g.tc, table_g.lam)
    assert pd == table_g.phi


@pytest.mark.parametrize("letter,rank", [("A", 2), ("B", 2)])
def test_phi_direct_equals_transport_integral(letter, rank):
    g = get_group(letter, rank)
    lam = Weight.minus_rho(rank)
    for k in range(rank + 1):
        for theta in itertools.combinations(range(rank), k):
            table = build_kl_table(g, theta, lam)
            assert phi_direct(table.tc, lam) == table.phi


def test_kl_classical_relation_small():
    assert kl_classical_relation_check(get_group("A", 1), Weight.minus_rho(1))
    assert kl_classical_relation_check(get_group("A", 2), Weight.minus_rho(2))


def test_kl_classical_relation_nonsimply_laced():
    # B3 and G2 exercise unequal root lengths; B3 has 106 pairs with a
    # nontrivial classical polynomial
    from whitkl.oracle import classical_kl

    g = get_group("B", 3)
    assert kl_classical_relation_check(g, Weight.minus_rho(3))
    nontrivial = sum(1 for p in classical_kl(g).values() if p != ONE)
    assert nontrivial == 106
    assert kl_classical_relation_check(get_group("G", 2), Weight.minus_rho(2))


def test_kl_classical_relation_rejects_nonintegral():
    with pytest.raises(ValueError):
        kl_classical_relation_check(get_group("A", 3), lambda_golden_a3())


def test_classical_values_a2():
    # all classical P are 1 in S3, so P_{wv} = q^{l(w)-l(v)}
    g = get_group("A", 2)
    table = build_kl_table(g, (), Weight.minus_rho(2))
    elt_of = {c: members[0] for c, members in enumerate(table.tc.members)}
    for (c, d), poly in table.polys.items():
        gap = g.length(elt_of[c]) - g.length(elt_of[d])
        assert poly == LaurentPoly.monomial(gap)


def test_structural_invariants_golden_a3(table_g):
    check_structural_invariants(table_g)


def test_descent_independence_golden_a3(table_g):
    # recomputing psi(F) from any valid descent gives the same element
    for model in table_g.models:
        psi = table_g.psi[model.u]
        for f in range(model.n_cosets):
            for r in model.pi_lambda:
                step, lower = times_simple(model.quotient, f, r)
                if step is not CosetStep.LOWER:
                    continue
                xi = t_alpha_model(model, r, psi[lower])
                for g_id in sorted(
                    (
                        g
                        for g in range(model.n_cosets)
                        if model.length(g) < model.length(f)
                    ),
                    key=lambda g: (-model.length(g), g),
                ):
                    c = xi.coeff(g_id).coeff(0)
                    if c:
                        xi = xi - psi[g_id].scale(c)
                assert xi == psi[f], (model.u, f, r)


def test_phi_support_in_block(table_g):
    # coefficients vanish outside the double coset and the lower interval
    for c, elt in table_g.phi.items():
        model = table_g.model_of_coset(c)
        for d in elt.coeffs:
            assert d in model.restrict
            assert model.leq(model.restrict[d], model.restrict[c])


def test_mixed_weight_b2_paths_agree():
    g = get_group("B", 2)
    lam = Weight.from_values([(-1, (-1,)), (-1, (1,))], n_transcendentals=1)
    for theta in [(), (0,), (1,), (0, 1)]:
        table = build_kl_table(g, theta, lam)
        assert phi_direct(table.tc, lam) == table.phi
        check_structural_invariants(table)


# the benchmark's D5 base weight: Path B moves through 80 integral-root
# classes, met as 160 weights
D5_NONINTEGRAL = Weight.from_values(
    [0, (-1, (1,)), Fraction(-1, 2), (-1, (-1,)), -1], n_transcendentals=1
)


def test_phi_direct_equals_transport_d5_nonintegral():
    g = get_group("D", 5)
    table = build_kl_table(g, (), D5_NONINTEGRAL)
    assert table.tc.n_cosets == 1920
    assert phi_direct(table.tc, D5_NONINTEGRAL) == table.phi


MINUS_HALF = Fraction(-1, 2)


@pytest.mark.parametrize(
    "letter,values",
    [
        ("B", [MINUS_HALF, (-1, (1,)), MINUS_HALF, (-1, (-1,))]),
        ("F", [MINUS_HALF, (-1, (1,)), -1, MINUS_HALF]),
    ],
)
def test_phi_direct_equals_transport_rank_4_nonintegral(letter, values):
    # Theta empty: Path B crosses many non-integral walls
    lam = Weight.from_values(values, n_transcendentals=1)
    table = build_kl_table(get_group(letter, 4), (), lam)
    assert phi_direct(table.tc, lam) == table.phi


def test_phi_direct_pairs_lambda_once_and_moves_no_weight(monkeypatch):
    # Path B reads lambda through one pass of pair over the roots, then
    # moves only integral-root sets, never a weight
    from whitkl import klengine, oracle

    g = get_group("D", 5)
    table = build_kl_table(g, (), D5_NONINTEGRAL)
    calls = {"pair": 0, "act_on_weight": 0}
    real_pair, real_act = klengine.pair, oracle.act_on_weight

    def counted_pair(*args):
        calls["pair"] += 1
        return real_pair(*args)

    def counted_act(*args):
        calls["act_on_weight"] += 1
        return real_act(*args)

    monkeypatch.setattr(klengine, "pair", counted_pair)
    monkeypatch.setattr(oracle, "act_on_weight", counted_act)
    assert phi_direct(table.tc, D5_NONINTEGRAL) == table.phi
    assert calls["act_on_weight"] == 0
    assert 0 < calls["pair"] <= len(g.rs.roots)


def _laurent_constant(poly):
    return poly.coeff(0)


def _tuple_encode(poly):
    return tuple(poly.coeff(e) for e in range(poly.max_exp() + 1)) if poly else ()


def _packed_decode(p):
    return _decode(p, _digit_cap())


# each ring _subtract_mu runs on: (encode, decode, low, constant, submul),
# encode and decode to and from `LaurentPoly`s in Z[q]
RINGS = {
    "laurent": (
        lambda poly: poly,
        lambda poly: poly,
        _laurent_constant,
        _laurent_constant,
        _submul,
    ),
    "tuple": (
        _tuple_encode,
        _tuple_decode,
        _tuple_constant,
        _tuple_constant,
        _tuple_submul,
    ),
    "packed": (
        _encode,
        _packed_decode,
        ((1 << _DIGIT_BITS) - 1).__and__,
        lambda p: _packed_decode(p).coeff(0),
        _submul,
    ),
}


def _walk(ring, xi, top_length, basis, lengths):
    """_subtract_mu on rows of `LaurentPoly`s, run in the ring named."""
    encode, decode, low, constant, submul = RINGS[ring]
    rows = {d: {e: encode(poly) for e, poly in row.items()} for d, row in basis.items()}
    got = _subtract_mu(
        {d: encode(poly) for d, poly in xi.items()},
        top_length,
        rows.__getitem__,
        lengths.__getitem__,
        low,
        constant,
        submul,
    )
    return {d: decode(p) for d, p in got.items()}


def _subtract_mu_full_scan(xi, top_length, basis, lengths):
    """Reference: visit every shorter coset, longest first, reading each
    mu as it is reached; rows are dicts of `LaurentPoly`s."""
    elt = HeckeElt("t", xi)
    for d in sorted(
        (d for d in lengths if lengths[d] < top_length),
        key=lambda d: (-lengths[d], d),
    ):
        mu = elt.coeff(d).coeff(0)
        if mu:
            elt = elt - HeckeElt("t", basis[d]).scale(mu)
    return elt.coeffs


# a small length-graded order on cosets 0..6, with 5 as the top
LENGTHS = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3}


def _kl_shaped_case():
    """xi and KL-shaped rows: 2 * basis[3] brings cosets 2 and 1 into the
    support, and basis[4] then meets coset 1 again."""
    basis = {
        0: {0: ONE},
        1: {1: ONE, 0: Q},
        2: {2: ONE, 0: Q * Q},
        3: {3: ONE, 2: Q, 1: Q, 0: Q},
        4: {4: ONE, 1: Q * Q},
    }
    xi = {5: ONE, 3: ONE * 2 + Q, 4: ONE + Q, 0: ONE * 3, 6: ONE * 5}
    return xi, basis


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_subtract_mu_on_kl_shaped_rows_equals_a_full_scan(ring):
    xi, basis = _kl_shaped_case()
    got = _walk(ring, xi, LENGTHS[5], basis, LENGTHS)
    # coset 6 is as long as the top, so its constant term stays; the
    # subtractions run 3, 4, 0, so 2 comes into the row before 1
    assert list(got.items()) == [
        (5, ONE), (3, Q), (4, Q), (0, Q * -2), (6, ONE * 5),
        (2, Q * -2), (1, Q * -2 - Q * Q),
    ]
    reference = _subtract_mu_full_scan(xi, LENGTHS[5], basis, LENGTHS)
    assert list(got.items()) == list(reference.items())


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize(
    "bad_rows",
    [
        # 2 * basis[3] brings coset 2 in with the constant term -2
        {2: {2: ONE, 0: ONE * 2}, 3: {3: ONE, 2: ONE, 1: Q, 0: Q}},
        # 2 * basis[3] moves coset 0's constant term from 3 to 1 before
        # coset 0's turn, whose mu was read as 3
        {3: {3: ONE, 1: Q, 0: ONE}},
    ],
    ids=["brings-in-a-constant", "moves-a-later-mu"],
)
def test_subtract_mu_on_rows_not_kl_shaped_fails_the_shape_check(ring, bad_rows):
    xi, basis = _kl_shaped_case()
    del xi[6]  # as long as the top, it would keep its constant term

    def check(row):
        _assert_kl_shape(row, 5, (1 << len(LENGTHS)) - 1, ONE, LaurentPoly.in_qZq)

    check(_walk(ring, xi, LENGTHS[5], basis, LENGTHS))
    basis.update(bad_rows)
    got = _walk(ring, xi, LENGTHS[5], basis, LENGTHS)
    with pytest.raises(AssertionError, match="not in qZ"):
        check(got)


@pytest.mark.parametrize("ring", ["tuple", "packed"])
def test_subtract_mu_reads_only_the_rows_it_subtracts(ring):
    # xi has 300 cosets below the top, 4 of them with a nonzero constant term
    n, hits = 300, (17, 101, 102, 250)
    lengths = {d: d // 10 for d in range(n)}
    lengths[n] = n // 10
    basis = {d: {d: ONE, 0: Q} if d else {0: ONE} for d in range(n)}
    xi = {d: ONE * 7 + Q if d in hits else Q for d in range(n)}
    xi[n] = ONE
    encode, decode, low, constant, submul = RINGS[ring]
    rows = {d: {e: encode(poly) for e, poly in row.items()} for d, row in basis.items()}
    calls = {"basis": 0, "constant": 0}

    def counted_basis(d):
        calls["basis"] += 1
        return rows[d]

    def counted_constant(p):
        calls["constant"] += 1
        return constant(p)

    got = _subtract_mu(
        {d: encode(poly) for d, poly in xi.items()},
        lengths[n],
        counted_basis,
        lengths.__getitem__,
        low,
        counted_constant,
        submul,
    )
    assert calls["basis"] == len(hits)
    assert calls["constant"] <= len(hits)
    reference = _subtract_mu_full_scan(xi, lengths[n], basis, lengths)
    assert list(got) == list(reference)
    assert {d: decode(p) for d, p in got.items()} == reference


def test_phi_direct_holds_one_object_per_distinct_polynomial():
    lam = Weight.minus_rho(3)
    table = build_kl_table(get_group("B", 3), (), lam)
    phi = phi_direct(table.tc, lam)
    assert phi == table.phi
    values = [poly for elt in phi.values() for poly in elt.coeffs.values()]
    assert len(values) > len(set(values)) > 1
    assert len({id(poly) for poly in values}) == len(set(values))


def _expand_in_basis(x, basis, lengths):
    """Unique expansion of x in a unitriangular basis; returns {id: poly}."""
    coeffs = {}
    while x.coeffs:
        top = max(x.coeffs, key=lambda c: (lengths[c], c))
        poly = x.coeff(top)
        coeffs[top] = poly
        x = x - basis[top].scale(poly)
    return coeffs


def test_w2_realizability_golden_a3(table_g):
    # For each non-minimal coset, the descent-chain output converts a
    # direct verification of the T-operator condition at the translated
    # spot into the model-level condition at the original coset: both
    # expansions have identical integer coefficients, matched through
    # relabeling by the chain.
    g = table_g.group
    tc = table_g.tc
    idata = table_g.idata
    lam = table_g.lam
    checked = 0
    for c in range(tc.n_cosets):
        u = _double_coset_rep(tc, idata, c)
        if tc.coset_of[u] == c:
            continue
        alpha, chain = descent_chain(tc, idata, c)
        z = 0
        cur_lam = lam
        for b in chain:
            z = g.mult(z, g.simple_ids[b])
            cur_lam = act_on_weight(g, g.simple_ids[b], cur_lam)
        z_inv_alpha = g.act_on_root(g.inverse[z], alpha)
        assert z_inv_alpha < g.rs.rank
        # global condition at the translated coset Cz with weight z^-1 lam
        phi_prime = phi_direct(tc, cur_lam)
        cz = times_element(tc, c, z)
        cz_down = times_simple(tc, cz, z_inv_alpha)
        assert cz_down[0].value == "lower"
        xi = t_alpha(tc, z_inv_alpha, phi_prime[cz_down[1]])
        lengths = {d: tc.length(d) for d in range(tc.n_cosets)}
        global_coeffs = _expand_in_basis(xi, phi_prime, lengths)
        for d, poly in global_coeffs.items():
            assert {p for p, _ in poly.items()} <= {0}, "coefficient not in Z"
        # model condition at C|_lambda with the chain-transported alpha
        model = table_g.model_of_coset(c)
        psi = table_g.psi[model.u]
        f = model.restrict[c]
        step, f_down = times_simple(model.quotient, f, alpha)
        assert step.value == "lower"
        xi_model = t_alpha_model(model, alpha, psi[f_down])
        model_lengths = {m: model.length(m) for m in range(model.n_cosets)}
        model_coeffs = _expand_in_basis(xi_model, psi, model_lengths)
        # the two coefficient systems match through D -> (D z^-1)|_lambda
        translated = {}
        for d, poly in global_coeffs.items():
            d_back = times_element(tc, d, g.inverse[z])
            translated[model.restrict[d_back]] = poly
        assert translated == model_coeffs
        checked += 1
    assert checked == 2  # the two non-minimal cosets of the example
