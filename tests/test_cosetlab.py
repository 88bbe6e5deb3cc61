import itertools
import math
import random
from fractions import Fraction

import pytest

from whitkl import (
    Weight,
    build_integral_model,
    build_kl_table,
    build_theta_cosets,
    integral_data,
    stabilizer_data,
)
from whitkl import cosetlab, oracle
from whitkl.cli import parse_lambda
from whitkl.cosetlab import subgroup_bruhat
from whitkl.oracle import (
    CosetStep,
    _double_coset_rep,
    act_on_weight,
    conjugate_model,
    descent_chain,
    longest_element_of_parabolic,
    model_order_reflection_chains,
    recompute_subgroups,
    root_images,
    times_element,
    times_simple,
)
from whitkl.rootsystem import build_root_system, is_integer, pair

from conftest import STABILIZER_CASES, get_group, lambda_golden_a3


def words(group, ids):
    return [group.elements[x].word for x in ids]


def named_roots(rs, ids):
    return {rs.roots[r] for r in ids}


@pytest.fixture(scope="module")
def a3():
    return get_group("A", 3)


@pytest.fixture(scope="module")
def tc_g(a3):
    return build_theta_cosets(a3, (0, 1))


@pytest.fixture(scope="module")
def idata_g(a3):
    return integral_data(a3, (0, 1), lambda_golden_a3())


def test_empty_theta_gives_singletons(a3):
    tc = build_theta_cosets(a3, ())
    assert tc.n_cosets == a3.size
    for members in tc.members:
        assert len(members) == 1
    # order coincides with Bruhat order on elements
    for c, (x,) in enumerate(tc.members):
        for d, (y,) in enumerate(tc.members):
            assert tc.leq(c, d) == a3.bruhat_leq(x, y)


def _every_theta(rank):
    return [
        theta
        for k in range(rank + 1)
        for theta in itertools.combinations(range(rank), k)
    ]


@pytest.mark.parametrize(
    "letter, rank, thetas",
    [
        ("A", 3, _every_theta(3)),
        ("B", 3, _every_theta(3)),
        ("C", 3, _every_theta(3)),
        ("G", 2, _every_theta(2)),
        ("B", 4, [(0, 1), (3,)]),
        ("D", 4, [(), (1, 3)]),
    ],
)
def test_coset_order_is_the_bruhat_order_of_longest_elements(letter, rank, thetas):
    group = get_group(letter, rank)
    for theta in thetas:
        tc = build_theta_cosets(group, theta)
        longest = tc.longest
        for c in range(tc.n_cosets):
            expected = [
                d
                for d in range(tc.n_cosets)
                if d != c and group.bruhat_leq(longest[d], longest[c])
            ]
            assert tc.below(c) == expected, (theta, c)
            for d in range(tc.n_cosets):
                assert tc.leq(d, c) == (d == c or d in expected), (theta, d, c)


def test_full_theta_single_coset(a3):
    tc = build_theta_cosets(a3, (0, 1, 2))
    assert tc.n_cosets == 1
    assert tc.longest[0] == a3.longest_id


def test_golden_a3_cosets(a3, tc_g):
    assert tc_g.n_cosets == 4
    longest = words(a3, tc_g.longest)
    assert longest == [
        (0, 1, 0),
        (0, 1, 0, 2),
        (0, 1, 0, 2, 1),
        (0, 1, 0, 2, 1, 0),
    ]


def test_coset_count_times_subgroup_size(a3):
    import itertools

    for k in range(4):
        for theta in itertools.combinations(range(3), k):
            tc = build_theta_cosets(a3, theta)
            assert tc.n_cosets * len(tc.w_theta_ids) == a3.size


def test_representative_characterizations(a3, tc_g):
    p = a3.rs.positive_root_count
    for top, bottom in zip(tc_g.longest, tc_g.shortest):
        inv_long = root_images(a3, a3.inverse[top])
        inv_short = root_images(a3, a3.inverse[bottom])
        for i in tc_g.theta:
            assert inv_long[i] >= p  # longest sends theta negative
            assert inv_short[i] < p  # shortest keeps theta positive


def test_times_simple_examples(a3, tc_g):
    # alpha inside theta fixes the base coset
    step, target = times_simple(tc_g, 0, 0)
    assert step is CosetStep.FIX and target == 0
    # gamma raises the base coset to the one topped by s_a s_b s_a s_g
    step, target = times_simple(tc_g, 0, 2)
    assert step is CosetStep.RAISE
    assert a3.elements[tc_g.longest[target]].word == (0, 1, 0, 2)
    # W_Theta s_g s_b times beta lowers to the same coset
    sgsb_coset = next(
        c for c, x in enumerate(tc_g.shortest) if a3.elements[x].word == (2, 1)
    )
    step, target = times_simple(tc_g, sgsb_coset, 1)
    assert step is CosetStep.LOWER
    assert a3.elements[tc_g.longest[target]].word == (0, 1, 0, 2)


def test_times_simple_partition_is_exclusive(a3, tc_g):
    for c in range(tc_g.n_cosets):
        for i in range(3):
            step, target = times_simple(tc_g, c, i)
            if step is CosetStep.FIX:
                assert target == c
            else:
                assert target != c
                back_step, back = times_simple(tc_g, target, i)
                assert back == c
                assert back_step is not step


def test_integral_data_golden_a3(a3, idata_g):
    rs = a3.rs
    assert named_roots(rs, idata_g.sigma_lambda_pos) == {
        (1, 1, 0),
        (0, 0, 1),
        (1, 1, 1),
    }
    assert named_roots(rs, idata_g.pi_lambda) == {(1, 1, 0), (0, 0, 1)}
    assert words(a3, idata_g.a_lambda) == [(), (0,), (1,), (2, 1)]
    assert words(a3, idata_g.a_theta_lambda) == [(), (2, 1)]
    assert len(idata_g.a_lambda) * len(idata_g.w_lambda_ids) == a3.size


def test_integral_data_integral_weight(a3):
    idata = integral_data(a3, (0, 1), Weight.minus_rho(3))
    assert len(idata.sigma_lambda_pos) == a3.rs.positive_root_count
    assert idata.a_lambda == (0,)
    assert idata.w_lambda_ids == frozenset(range(a3.size))


def test_integral_model_u1(a3, tc_g, idata_g):
    rs = a3.rs
    model = build_integral_model(tc_g, idata_g, 0)
    assert named_roots(rs, model.theta_u_lambda) == {(1, 1, 0)}
    assert model.n_cosets == 3
    longest = words(a3, model.quotient.longest)
    # s_{a+b}, s_{a+b} s_g, s_{a+b+g} as elements of W
    assert longest == [(0, 1, 0), (0, 1, 0, 2), (0, 1, 2, 1, 0)]
    # ind sends them to W_Theta, W_Theta s_a s_b s_a s_g, W_Theta w_0
    assert [tc_g.longest[c] for c in model.ind] == [
        longest_element_of_parabolic(a3, (0, 1)),
        next(w.id for w in a3.elements if w.word == (0, 1, 0, 2)),
        a3.longest_id,
    ]


def test_integral_model_u_sgsb(a3, tc_g, idata_g):
    u = idata_g.a_theta_lambda[1]
    model = build_integral_model(tc_g, idata_g, u)
    assert set(model.theta_u_lambda) == set(idata_g.pi_lambda)
    assert model.n_cosets == 1
    assert a3.elements[tc_g.shortest[model.ind[0]]].word == (2, 1)


def test_integral_model_rejects_bad_u(a3, tc_g, idata_g):
    with pytest.raises(ValueError):
        build_integral_model(tc_g, idata_g, a3.simple_ids[0])


def test_model_order_unitriangular_with_ind(a3, tc_g, idata_g):
    for u in idata_g.a_theta_lambda:
        model = build_integral_model(tc_g, idata_g, u)
        for f in range(model.n_cosets):
            for g in range(model.n_cosets):
                if model.leq(f, g):
                    assert tc_g.leq(model.ind[f], model.ind[g])


def test_conjugate_model_alpha(a3, tc_g, idata_g):
    rs = a3.rs
    model = build_integral_model(tc_g, idata_g, 0)
    new_model, mapping = conjugate_model(model, 0)
    # W_Theta r = W_Theta s_alpha = W_Theta, so r = e
    assert new_model.u == 0
    # Theta(r, s_a lam) = s_a {a+b} = {b}
    assert named_roots(rs, new_model.theta_u_lambda) == {(0, 1, 0)}
    # commuting square: ind_{s_b lam}(map(F)) = ind_lam(F) . s_b
    for f in range(model.n_cosets):
        lhs = new_model.ind[mapping[f]]
        rhs = times_simple(tc_g, model.ind[f], 0)[1]
        assert lhs == rhs


def test_conjugate_model_involution(a3, tc_g, idata_g):
    model = build_integral_model(tc_g, idata_g, 0)
    mid, map1 = conjugate_model(model, 0)
    back, map2 = conjugate_model(mid, 0)
    assert back.u == model.u
    assert back.idata.lam == model.idata.lam
    assert back.ind == model.ind
    for f in range(model.n_cosets):
        assert map2[map1[f]] == f


def test_conjugate_model_single_coset(a3, tc_g, idata_g):
    u = idata_g.a_theta_lambda[1]
    model = build_integral_model(tc_g, idata_g, u)
    new_model, mapping = conjugate_model(model, 0)
    assert new_model.n_cosets == 1
    assert mapping == {0: 0}


def test_conjugate_model_rejects_integral_simple(a3, tc_g, idata_g):
    model = build_integral_model(tc_g, idata_g, 0)
    with pytest.raises(ValueError):
        conjugate_model(model, 2)  # gamma is integral to lambda


def test_descent_chain_examples(a3, tc_g, idata_g):
    rs = a3.rs
    # C = W_Theta s_a s_b s_a s_g with u = 1: gamma works directly
    c1 = next(
        c for c, x in enumerate(tc_g.longest) if a3.elements[x].word == (0, 1, 0, 2)
    )
    alpha, chain = descent_chain(tc_g, idata_g, c1)
    assert rs.roots[alpha] == (0, 0, 1)
    assert chain == []
    # C = W_Theta w_0 with u = 1: needs the chain [alpha]
    cw0 = tc_g.longest.index(a3.longest_id)
    alpha, chain = descent_chain(tc_g, idata_g, cw0)
    assert rs.roots[alpha] == (1, 1, 0)
    assert chain == [0]
    # C = W_Theta s_g s_b is minimal in its double coset
    c2 = next(
        c for c, x in enumerate(tc_g.shortest) if a3.elements[x].word == (2, 1)
    )
    with pytest.raises(ValueError):
        descent_chain(tc_g, idata_g, c2)


def check_descent_chain_conditions(tc, idata, c, alpha, chain):
    """Literal verification of the five descent-chain conditions."""
    group = tc.group
    rs = group.rs
    lam = idata.lam
    # (a) each beta_{i+1} non-integral to z_i^{-1} lambda
    cur = lam
    for b in chain:
        assert not is_integer(pair(rs, b, cur))
        cur = act_on_weight(group, group.simple_ids[b], cur)
    z = 0
    for b in chain:
        z = group.mult(z, group.simple_ids[b])
    z_lam = cur  # z^{-1} lambda
    # (b) z^{-1} alpha is simple in both W and W_{z^{-1} lambda}
    z_inv_alpha = group.act_on_root(group.inverse[z], alpha)
    assert z_inv_alpha < rs.rank
    assert is_integer(pair(rs, z_inv_alpha, z_lam))
    from whitkl.cosetlab import _positive_roots, _simple_roots_of

    pi_zlam = _simple_roots_of(rs, _positive_roots(rs, z_lam, is_integer))
    assert z_inv_alpha in pi_zlam
    # (c) C s_alpha <_{u,lambda} C in the model order
    u = _double_coset_rep(tc, idata, c)
    model = build_integral_model(tc, idata, u)
    c_alpha = times_element(tc, c, group.reflection(alpha))
    f, g = model.restrict[c_alpha], model.restrict[c]
    assert model.leq(f, g) and f != g
    # (d) if the chain is nonempty, Cz < C
    cz = times_element(tc, c, z)
    if chain:
        assert tc.leq(cz, c) and cz != c
    # (e) C s_alpha z = C z s_{z^-1 alpha} < C z
    lhs = times_element(tc, c_alpha, z)
    rhs = times_element(tc, cz, group.reflection(z_inv_alpha))
    assert lhs == rhs
    assert tc.leq(lhs, cz) and lhs != cz


def test_descent_chain_conditions_golden_a3(a3, tc_g, idata_g):
    for c in range(tc_g.n_cosets):
        u = _double_coset_rep(tc_g, idata_g, c)
        if tc_g.coset_of[u] == c:
            continue
        alpha, chain = descent_chain(tc_g, idata_g, c)
        check_descent_chain_conditions(tc_g, idata_g, c, alpha, chain)


def test_stabilizer_regular(a3):
    stab = stabilizer_data(a3, (0, 1), lambda_golden_a3())
    assert stab.w_stab_ids == frozenset({0})
    tc = build_theta_cosets(a3, (0, 1))
    assert set(stab.a_theta_stab) == set(tc.shortest)


def test_stabilizer_a2_example():
    g = get_group("A", 2)
    lam = Weight.from_values([0, -1])
    stab = stabilizer_data(g, (), lam)
    assert words(g, sorted(stab.w_stab_ids)) == [(), (0,)]
    assert words(g, stab.a_theta_stab) == [(), (1,), (0, 1)]


def test_stabilizer_minus_rho(a3):
    stab = stabilizer_data(a3, (0,), Weight.minus_rho(3))
    assert stab.w_stab_ids == frozenset({0})


def test_stabilizer_rejects_non_antidominant(a3):
    # a positive integer pairing violates even the weak (singular-friendly)
    # sense of antidominance; the all-zero weight is still allowed
    with pytest.raises(ValueError):
        stabilizer_data(a3, (), Weight.from_values([1, -1, -1]))
    stab = stabilizer_data(a3, (), Weight.zero(3))
    assert stab.w_stab_ids == frozenset(range(a3.size))


def _solve(matrix, rhs):
    """The rational solution x of matrix . x = rhs (matrix invertible)."""
    n = len(rhs)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]


def _lattice_reference(group, lam):
    """{w : w lam - lam in Z.Sigma}, in Fractions, one element at a time."""
    cartan = group.rs.cartan_matrix
    members = set()
    for w in range(group.size):
        diff = [
            (mv[0] - lv[0], [a - b for a, b in zip(mv[1], lv[1])])
            for mv, lv in zip(act_on_weight(group, w, lam).coords, lam.coords)
        ]
        if any(c != 0 for _, tvec in diff for c in tvec):
            continue
        # coroot values v = cartan . (coefficients on the simple roots)
        coeffs = _solve(cartan, [r for r, _ in diff])
        if all(c.denominator == 1 for c in coeffs):
            members.add(w)
    return frozenset(members)


INTEGRAL_CASES = [
    ("A", 3, lambda_golden_a3()),
    ("B", 3, Weight.from_values([Fraction(-1, 2), -1, Fraction(-1, 2)])),
    ("C", 3, Weight.from_values([(-1, (Fraction(1, 2),)), Fraction(-1, 2), -1])),
    ("G", 2, Weight.from_values([Fraction(-1, 3), -1])),
    ("B", 4, Weight.from_values([Fraction(-1, 2), -1, Fraction(-1, 2), -1])),
    ("D", 4, Weight.from_values([(-1, (1, 2)), (-2, (-1, 0)), Fraction(-2, 3), -1])),
    ("D", 5, Weight.from_values([0, (-1, (1,)), Fraction(-1, 2), (-1, (-1,)), -1])),
    ("F", 4, Weight.minus_rho(4)),
]


@pytest.mark.parametrize("letter, rank, lam", INTEGRAL_CASES)
def test_integral_weyl_group_matches_fraction_lattice_reference(letter, rank, lam):
    g = get_group(letter, rank)
    idata = integral_data(g, (), lam)
    assert idata.w_lambda_ids == _lattice_reference(g, lam)


def _valid_types():
    for letter in "ABCDEFG":
        for rank in range(1, 7):
            try:
                yield build_root_system(letter, rank)
            except ValueError:
                pass


def test_cartan_inverse_is_exact_for_every_type():
    systems = list(_valid_types())
    assert len(systems) == 23
    for rs in systems:
        cartan, n = rs.cartan_matrix, rs.rank
        inv = oracle._cartan_inverse(cartan)
        assert all(type(x) is Fraction for row in inv for x in row)
        product = [
            [sum(cartan[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)], rs
        e, e_inv = oracle._integer_cartan_inverse(cartan)
        assert [[Fraction(x, e) for x in row] for row in e_inv] == inv
        assert math.gcd(e, *(x for row in e_inv for x in row)) == 1


def test_cartan_inverse_eliminated_once_per_root_system(monkeypatch):
    runs = []
    eliminate = oracle._cartan_inverse
    monkeypatch.setattr(
        oracle, "_cartan_inverse", lambda c: runs.append(c) or eliminate(c)
    )
    oracle._integer_cartan_inverse.cache_clear()
    b3 = get_group("B", 3)
    oracle._root_lattice_stabilizer(
        b3, Weight.from_values([Fraction(-1, 2), -1, Fraction(-1, 2)])
    )
    oracle._root_lattice_stabilizer(b3, Weight.minus_rho(3))
    assert runs == [b3.rs.cartan_matrix]


@pytest.mark.parametrize("letter, rank, lam", STABILIZER_CASES)
def test_stabilizer_matches_brute_force_scan(letter, rank, lam):
    g = get_group(letter, rank)
    stab = stabilizer_data(g, (), lam)
    assert stab.w_stab_ids == frozenset(
        w for w in range(g.size) if act_on_weight(g, w, lam) == lam
    )
    assert len(stab.w_stab_ids) > 1


def test_integral_data_check_fires(a3, wrong_reflection_subgroup):
    with pytest.raises(AssertionError, match=r"\|A_lambda\| \* \|W_lambda\|"):
        integral_data(a3, (0, 1), lambda_golden_a3())


def test_stabilizer_check_fires(a3, wrong_reflection_subgroup):
    # stabilizer_data trusts the routine; the oracle's check catches it
    report = recompute_subgroups(a3, Weight.from_values([0, -1, 0]))
    assert [(c.name, c.passed) for c in report.checks] == [
        ("w-lambda-vs-lattice", False),
        ("stabilizer-vs-zero-roots", False),
    ]


def test_integral_order_is_not_the_restricted_bruhat_order():
    # B2 with lambda = (-1/2, -1): Pi_lambda is two orthogonal roots, so
    # (W_lambda, Pi_lambda) is A1 x A1 and its two reflections are
    # incomparable, although in W one is a subword of the other
    g = get_group("B", 2)
    lam = Weight.from_values([Fraction(-1, 2), -1])
    idata = integral_data(g, (), lam)
    assert len(idata.pi_lambda) == 2
    a, b = idata.pi_lambda
    assert g.rs.root_pairing(a, b) == 0
    s_a, s_b = g.reflection(a), g.reflection(b)
    order = subgroup_bruhat(g, idata)
    # the Bruhat order of (W_lambda, Pi_lambda), on its trivial cosets
    elements = order.cosets(())
    c_a, c_b = elements.coset_of[s_a], elements.coset_of[s_b]
    assert (elements.leq(c_a, c_b), elements.leq(c_b, c_a)) == (False, False)
    assert (g.bruhat_leq(s_a, s_b), g.bruhat_leq(s_b, s_a)) == (True, False)
    model = build_integral_model(build_theta_cosets(g, ()), idata, 0, order)
    f, h = model.coset_of[s_a], model.coset_of[s_b]
    assert not model.leq(f, h) and not model.leq(h, f)
    assert model.leq(model.coset_of[0], f) and model.leq(model.coset_of[0], h)


RANK_4_NONINTEGRAL = [
    # (type, rank, theta, lambda, |W_lambda|, models, distinct Theta(u,lambda))
    ("B", 4, (), [Fraction(-1, 2), -1, Fraction(-1, 2), -1], 64, 6, 1),
    ("F", 4, (), [Fraction(-1, 2), -1, -1, Fraction(-1, 2)], 96, 12, 1),
    ("D", 4, (1,), [Fraction(-1, 2), -1, Fraction(-1, 2), Fraction(-1, 2)], 16, 8, 5),
]


@pytest.mark.parametrize(
    "letter, rank, theta, values, w_lambda_size, n_models, n_classes",
    RANK_4_NONINTEGRAL,
)
def test_model_order_matches_reflection_chains_rank_4(
    letter, rank, theta, values, w_lambda_size, n_models, n_classes
):
    g = get_group(letter, rank)
    idata = integral_data(g, theta, Weight.from_values(values))
    tc = build_theta_cosets(g, theta)
    order = subgroup_bruhat(g, idata)
    models = [build_integral_model(tc, idata, u, order) for u in idata.a_theta_lambda]
    assert len(idata.w_lambda_ids) == w_lambda_size
    assert len(models) == n_models
    assert len({m.theta_u_lambda for m in models}) == n_classes
    chain_pairs = model_order_reflection_chains(g, idata)
    for model in models:
        longest = model.quotient.longest
        for f in range(model.n_cosets):
            for h in range(model.n_cosets):
                expected = (longest[f], longest[h]) in chain_pairs
                assert model.leq(f, h) == expected, (model.u, f, h)


def test_models_with_equal_theta_u_lambda_share_one_quotient():
    # the D5 weight of the singular non-integral benchmark workload
    g = get_group("D", 5)
    table = build_kl_table(g, (), parse_lambda("0,-1+1*t1,-1/2,-1-1*t1,-1", 5))
    assert len(table.models) == 160
    quotients = {id(model.quotient) for model in table.models}
    assert len(quotients) == 1
    quotient = table.models[0].quotient
    assert quotient.n_cosets == 12
    assert set(quotient.w_theta_ids) == {0}


def _bits_by_text(mask):
    """The expression `cosetlab._bits` used to be."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def test_bits_gives_the_set_positions_in_ascending_order():
    import random

    rng = random.Random(11)
    masks = [0, 1, 2, 3, 1 << 200, (1 << 300) - 1]
    for _ in range(300):
        width = rng.randrange(1, 2500)
        masks.append(rng.getrandbits(width) & rng.getrandbits(width))
        masks.append(rng.getrandbits(width) | rng.getrandbits(width))
    for mask in masks:
        assert cosetlab._bits(mask) == _bits_by_text(mask)


def test_below_unchanged_on_d5_theta_empty():
    tc = cosetlab.build_theta_cosets(get_group("D", 5), ())
    for c in range(tc.n_cosets):
        below = tc.below(c)
        assert below == [d for d in _bits_by_text(tc.ideal(c)) if d != c]
        assert all(tc.leq(d, c) for d in below)
    assert sum(len(tc.below(c)) for c in range(tc.n_cosets)) > 0


def _ideals_by_union(tc):
    """Every ideal of tc by the per-bit union it is defined by:
    ideal(C) = ideal(Cs) u {D s : D in ideal(Cs)}, one bit at a time."""
    ideals = [1]
    for c in range(1, tc.n_cosets):
        s, lower = tc.descent(c)
        ideal = ideals[lower]
        for d in _bits_by_text(ideals[lower]):
            ideal |= 1 << times_simple(tc, d, s)[1]
        ideals.append(ideal)
    return ideals


def _element_tables(group):
    """The element step tables and lengths `build_theta_cosets` reads."""
    steps = {i: [row[i] for row in group.right_table] for i in range(group.rs.rank)}
    return steps, [w.length for w in group.elements]


def _global_cases(letter, rank, thetas):
    group = get_group(letter, rank)
    steps, lengths = _element_tables(group)
    return [(build_theta_cosets(group, theta), steps, lengths) for theta in thetas]


def _model_quotients(letter, rank, theta, lam_text):
    """Each distinct model quotient at lam, with its integral system's tables."""
    group = get_group(letter, rank)
    lam = parse_lambda(lam_text, rank)
    idata = integral_data(group, theta, lam)
    tc = build_theta_cosets(group, theta)
    order = subgroup_bruhat(group, idata)
    models = [build_integral_model(tc, idata, u, order) for u in idata.a_theta_lambda]
    quotients = {id(m.quotient): m.quotient for m in models}.values()
    return [(quotient, order.steps, order.lengths) for quotient in quotients]


IDEAL_CASES = {
    "D5-theta-empty": lambda: _global_cases("D", 5, [()]),
    "F4-theta-alpha": lambda: _global_cases("F", 4, [(0,)]),
    "B3-every-theta": lambda: _global_cases("B", 3, _every_theta(3)),
    # Theta = {beta, gamma, delta, epsilon} spans D4 (270 cosets), Theta =
    # {gamma, delta, epsilon, zeta} spans A4 (432 cosets)
    "E6-theta-D4-and-A4": lambda: _global_cases("E", 6, [(1, 2, 3, 4), (2, 3, 4, 5)]),
    "D5-singular-nonintegral-models": lambda: _model_quotients(
        "D", 5, (), "0,-1+1*t1,-1/2,-1-1*t1,-1"
    ),
    "B3-non-integral-models": lambda: [
        case
        for theta in _every_theta(3)
        for case in _model_quotients("B", 3, theta, "-1/2,-1,-1/2")
    ],
    # non-simply-laced, with integral systems of rank 4 (96, 192 and 384 cosets)
    "F4-non-integral-models": lambda: (
        _model_quotients("F", 4, (), "-1/2,-1,-1,-1/2")
        + _model_quotients("F", 4, (0,), "-1/2,-1,-1,-1")
    ),
}


def _assert_moves_by_element_tables(tc, steps, lengths):
    """times_simple and descent of every coset and generator against the
    element tables: C s is the coset of w^C s, for C's longest element
    w^C, which is the longest element of C s when it moves C, and C s is
    longer or shorter than C as its longest element is."""
    for c, top in enumerate(tc.longest):
        assert tc.length(c) == lengths[top], c
        descent = None
        for s, step in steps.items():
            x = step[top]
            target = tc.coset_of[x]
            if target == c:
                expected = (CosetStep.FIX, c)
            else:
                assert tc.longest[target] == x, (c, s)
                if lengths[x] > lengths[top]:
                    expected = (CosetStep.RAISE, target)
                else:
                    expected = (CosetStep.LOWER, target)
                    descent = descent or (s, target)
            assert times_simple(tc, c, s) == expected, (c, s)
        if descent is None:
            assert c == 0
            with pytest.raises(AssertionError, match="admits no simple descent"):
                tc.descent(c)
        else:
            assert tc.descent(c) == descent, c


@pytest.mark.parametrize("case", sorted(IDEAL_CASES))
def test_ideals_equal_the_per_bit_union(case):
    rng = random.Random(case)
    for tc, steps, lengths in IDEAL_CASES[case]():
        expected = _ideals_by_union(tc)
        # ask from the top down, so the first request reaches the highest id
        for c in reversed(range(tc.n_cosets)):
            assert tc.ideal(c) == expected[c], c
            assert tc.below(c) == [d for d in _bits_by_text(expected[c]) if d != c]
        # and, on a fresh build, in a random order: an ideal reaches the
        # ideals of the lower covers it is built from in any order
        members = [x for coset in tc.members for x in coset]
        fresh = cosetlab.ThetaCosets(tc.group, members, steps, lengths, tc.theta)
        n = tc.n_cosets
        for c in rng.sample(range(n), n):
            assert fresh.ideal(c) == expected[c], c
        for _ in range(2000):
            c, d = rng.randrange(n), rng.randrange(n)
            assert tc.leq(c, d) == (expected[d] >> c & 1 == 1), (c, d)
        _assert_moves_by_element_tables(tc, steps, lengths)


@pytest.mark.parametrize("case", sorted(IDEAL_CASES))
def test_coset_columns_partition_the_group_by_length(case):
    # lengths is the length function of W' by id: ell on W, or ell_lambda
    # on W_lambda for a model quotient, where the two differ
    for tc, _, lengths in IDEAL_CASES[case]():
        ids = lengths.keys() if isinstance(lengths, dict) else range(len(lengths))
        assert sorted(x for members in tc.members for x in members) == sorted(ids)
        assert sum(c is not None for c in tc.coset_of) == len(ids)
        for c, members in enumerate(tc.members):
            assert list(members) == sorted(members), c
            assert {tc.coset_of[x] for x in members} == {c}
            top = max(lengths[x] for x in members)
            assert [x for x in members if lengths[x] == top] == [tc.longest[c]], c
            assert lengths[tc.shortest[c]] == min(lengths[x] for x in members), c
            assert tc.shortest[c] in members and tc.length(c) == top, c


@pytest.mark.parametrize(
    "case", ["D5-theta-empty", "F4-theta-alpha", "F4-non-integral-models"]
)
def test_an_ideal_joins_the_ideals_of_only_the_covers_that_s_raises(
    case, monkeypatch
):
    requests = []
    ideal = cosetlab.ThetaCosets.ideal

    def counted(self, c):
        requests.append(c)
        return ideal(self, c)

    monkeypatch.setattr(cosetlab.ThetaCosets, "ideal", counted)
    for tc, _, _ in IDEAL_CASES[case]():
        expected = _ideals_by_union(tc)
        # ideal(C) asks for ideal(C s) and, for each lower cover D of C s
        # with D s > D, for ideal(D s): one join per such cover
        joins = []
        for c in range(1, tc.n_cosets):
            s, lower = tc.descent(c)
            covers = [
                d
                for d in _bits_by_text(expected[lower])
                if tc.length(d) == tc.length(lower) - 1
            ]
            raised = [times_simple(tc, d, s)[0] is CosetStep.RAISE for d in covers]
            joins.append(sum(raised))
        assert 0 < max(joins) <= tc.group.rs.positive_root_count
        requests.clear()
        # in ascending order, every ideal below C is built when C is asked for
        for c in range(tc.n_cosets):
            assert tc.ideal(c) == expected[c], c
        assert len(requests) == tc.n_cosets + len(joins) + sum(joins)


def test_a_move_table_that_is_no_involution_is_refused_at_build():
    group = get_group("B", 3)
    steps, lengths = _element_tables(group)
    # elements 5 and 6 both go to 6 s_1, so C -> C s_1 is not a bijection
    steps[1][5] = steps[1][6]
    with pytest.raises(AssertionError, match="C -> C s_1 is not an involution"):
        cosetlab.ThetaCosets(group, range(group.size), steps, lengths, ())


def test_a_move_off_the_longest_element_is_refused_at_build():
    group = get_group("B", 3)
    steps, lengths = _element_tables(group)
    tc = build_theta_cosets(group, (0,))
    raised = [times_simple(tc, c, 1)[0] is CosetStep.RAISE for c in range(tc.n_cosets)]
    c = raised.index(True)
    target = times_simple(tc, c, 1)[1]
    # w^C s_1 now lands on the shortest element of C s_1: every coset keeps
    # its target, so only the longest-element check can see it
    steps[1][tc.longest[c]] = tc.shortest[target]
    with pytest.raises(
        AssertionError, match="C -> C s_1 does not move the longest element"
    ):
        cosetlab.ThetaCosets(group, range(group.size), steps, lengths, (0,))
