import pytest

from whitkl import LaurentPoly, build_integral_model, build_theta_cosets, integral_data
from whitkl.heckemodule import HeckeElt, SpaceMismatchError, global_tag, model_tag
from whitkl.oracle import (
    conjugate_model,
    delta,
    restrict_lambda,
    right_mult_simple,
    t_alpha,
    t_alpha_model,
)
from whitkl.rootsystem import is_integer, pair

from conftest import get_group, lambda_golden_a3

Q = LaurentPoly.q()
QINV = LaurentPoly.monomial(-1)


@pytest.fixture(scope="module")
def ctx():
    group = get_group("A", 3)
    lam = lambda_golden_a3()
    tc = build_theta_cosets(group, (0, 1))
    idata = integral_data(group, (0, 1), lam)
    models = [build_integral_model(tc, idata, u) for u in idata.a_theta_lambda]
    return group, tc, idata, models


def coset_by_longest_word(group, tc, word):
    return next(
        c for c, top in enumerate(tc.longest) if group.elements[top].word == word
    )


def test_t_alpha_raise_case(ctx):
    group, tc, idata, models = ctx
    tag = global_tag(tc)
    out = t_alpha(tc, 2, delta(tag, 0))
    target = coset_by_longest_word(group, tc, (0, 1, 0, 2))
    assert out == HeckeElt(tag, {0: Q, target: LaurentPoly.one()})


def test_t_alpha_fix_case(ctx):
    group, tc, idata, models = ctx
    assert not t_alpha(tc, 0, delta(global_tag(tc), 0))


def test_t_alpha_lower_case(ctx):
    group, tc, idata, models = ctx
    tag = global_tag(tc)
    c = coset_by_longest_word(group, tc, (0, 1, 0, 2, 1))  # W_Theta s_g s_b
    target = coset_by_longest_word(group, tc, (0, 1, 0, 2))
    out = t_alpha(tc, 1, delta(tag, c))
    assert out == HeckeElt(tag, {c: QINV, target: LaurentPoly.one()})


def test_t_alpha_quadratic_relation():
    # T_a o T_a = (q + q^-1) T_a on basis elements, for every theta
    import itertools

    for letter, rank in [("A", 2), ("B", 2), ("A", 3)]:
        group = get_group(letter, rank)
        for k in range(rank + 1):
            for theta in itertools.combinations(range(rank), k):
                tc = build_theta_cosets(group, theta)
                tag = global_tag(tc)
                for c in range(tc.n_cosets):
                    for i in range(rank):
                        x = t_alpha(tc, i, delta(tag, c))
                        assert t_alpha(tc, i, x) == x.scale(Q + QINV)


def test_t_alpha_model_cases(ctx):
    group, tc, idata, models = ctx
    model1 = models[0]
    tag = model_tag(model1)
    a_plus_b = next(r for r in model1.theta_u_lambda)
    gamma = next(r for r in idata.pi_lambda if r != a_plus_b)
    # Fix on the base coset for the model's theta
    assert not t_alpha_model(model1, a_plus_b, delta(tag, 0))
    # Raise towards the coset topped by s_{a+b} s_g
    out = t_alpha_model(model1, gamma, delta(tag, 0))
    target = coset_by_longest_word(group, model1.quotient, (0, 1, 0, 2))
    assert out == HeckeElt(tag, {0: Q, target: LaurentPoly.one()})
    # single-coset model: every operator kills delta
    model2 = models[1]
    tag2 = model_tag(model2)
    for r in idata.pi_lambda:
        assert not t_alpha_model(model2, r, delta(tag2, 0))


def test_t_alpha_model_rejects_foreign_root(ctx):
    group, tc, idata, models = ctx
    with pytest.raises(ValueError):
        t_alpha_model(models[0], 0, delta(model_tag(models[0]), 0))  # alpha not in Pi_lambda


def test_right_mult_examples(ctx):
    group, tc, idata, models = ctx
    tag = global_tag(tc)
    # fix case
    assert right_mult_simple(tc, delta(tag, 0), 0) == delta(tag, 0)
    # W_Theta s_g s_b . s_b = W_Theta s_g coset
    c = coset_by_longest_word(group, tc, (0, 1, 0, 2, 1))
    target = coset_by_longest_word(group, tc, (0, 1, 0, 2))
    assert right_mult_simple(tc, delta(tag, c), 1) == delta(tag, target)
    # involution on arbitrary elements
    x = HeckeElt(tag, {0: Q + 1, 2: QINV, 3: LaurentPoly.monomial(2, -3)})
    for i in range(3):
        assert right_mult_simple(tc, right_mult_simple(tc, x, i), i) == x


def test_restrict_lambda_examples(ctx):
    group, tc, idata, models = ctx
    tag = global_tag(tc)
    cw0 = tc.longest.index(group.longest_id)
    pieces = restrict_lambda(tc, idata, models, delta(tag, cw0))
    # lands on the s_{a+b+g} coset of the u=1 model, zero elsewhere
    top = coset_by_longest_word(group, models[0].quotient, (0, 1, 2, 1, 0))
    assert pieces[0] == delta(model_tag(models[0]), top)
    assert not pieces[1]
    # the single-coset double coset
    c2 = coset_by_longest_word(group, tc, (0, 1, 0, 2, 1))
    pieces = restrict_lambda(tc, idata, models, delta(tag, c2))
    assert not pieces[0]
    assert pieces[1] == delta(model_tag(models[1]), 0)
    # zero maps to zeros
    pieces = restrict_lambda(tc, idata, models, HeckeElt(tag))
    assert not pieces[0] and not pieces[1]


def test_space_tags_are_enforced(ctx):
    group, tc, idata, models = ctx
    x = delta(global_tag(tc), 0)
    y = delta(model_tag(models[0]), 0)
    with pytest.raises(SpaceMismatchError):
        _ = x + y
    with pytest.raises(SpaceMismatchError):
        t_alpha(tc, 2, y)
    with pytest.raises(SpaceMismatchError):
        t_alpha_model(models[0], models[0].theta_u_lambda[0], x)
    other_tc = build_theta_cosets(group, (0,))
    with pytest.raises(SpaceMismatchError):
        right_mult_simple(other_tc, x, 0)


def test_commuting_square_restriction(ctx):
    # restricting T_alpha equals the model operator after restriction, for
    # every simple alpha integral to lambda and every basis element
    group, tc, idata, models = ctx
    tag = global_tag(tc)
    integral_simples = [
        i for i in range(group.rs.rank) if i in set(idata.pi_lambda)
    ]
    for alpha in integral_simples:
        for c in range(tc.n_cosets):
            lhs = restrict_lambda(tc, idata, models, t_alpha(tc, alpha, delta(tag, c)))
            rhs = [
                t_alpha_model(m, alpha, piece)
                for m, piece in zip(
                    models, restrict_lambda(tc, idata, models, delta(tag, c))
                )
            ]
            assert lhs == rhs


def test_commuting_square_conjugation(ctx):
    # conjugation transport intertwines the model operators across a
    # non-integral simple reflection
    group, tc, idata, models = ctx
    rs = group.rs
    lam = idata.lam
    non_integral = [
        b for b in range(rs.rank) if not is_integer(pair(rs, b, lam))
    ]
    for beta in non_integral:
        for model in models:
            new_model, mapping = conjugate_model(model, beta)
            s_b = group.simple_ids[beta]

            def transport(elt):
                return HeckeElt(
                    model_tag(new_model),
                    {mapping[f]: poly for f, poly in elt.coeffs.items()},
                )

            for alpha in model.pi_lambda:
                alpha_image = group.act_on_root(s_b, alpha)
                for f in range(model.n_cosets):
                    lhs = transport(
                        t_alpha_model(model, alpha, delta(model_tag(model), f))
                    )
                    rhs = t_alpha_model(
                        new_model,
                        alpha_image,
                        transport(delta(model_tag(model), f)),
                    )
                    assert lhs == rhs


def test_right_mult_simple_twice_is_identity_on_full_support():
    # C -> C s_i is a bijection, so relabelling an element supported on
    # every coset twice by s_i returns it unchanged
    group = get_group("A", 3)
    for theta in [(), (0,), (0, 1), (0, 2)]:
        tc = build_theta_cosets(group, theta)
        tag = global_tag(tc)
        x = HeckeElt(
            tag, {c: LaurentPoly.monomial(c % 5 - 2, c + 1) for c in range(tc.n_cosets)}
        )
        for i in range(3):
            once = right_mult_simple(tc, x, i)
            assert set(once.coeffs) == set(range(tc.n_cosets))
            assert right_mult_simple(tc, once, i) == x


def test_tag_checks_compare_by_value_after_identity(ctx):
    # equal tags that are different objects combine; the result keeps the
    # left operand's tag object
    group, tc, idata, models = ctx
    x = delta(global_tag(tc), 0)
    y = delta(global_tag(tc), 1)
    assert x.tag is not y.tag
    total = x + y
    assert total.tag is x.tag
    assert total - y == x
    assert t_alpha(tc, 2, x).tag is x.tag
