"""Property-based tests (hypothesis, from the ``test`` extra)."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from whitkl import LaurentPoly, Weight, build_kl_table, phi_direct  # noqa: E402
from whitkl import CharacterFormula, invert_multiplicities, laurent  # noqa: E402
from whitkl.cli import (  # noqa: E402
    MAX_TRANSCENDENTALS,
    InputError,
    Job,
    parse_lambda,
    parse_type,
    render_json,
    run_characters,
    run_cosets,
    run_info,
    run_klpolys,
    weight_name,
)
from whitkl.klengine import (  # noqa: E402
    _decode,
    _digit_cap,
    _trimmed,
    _tuple_add,
    _tuple_decode,
    _tuple_over_q,
    _tuple_submul,
    _tuple_times_q,
    build_models,
)
from whitkl.oracle import (  # noqa: E402
    _encode,
    act_on_weight,
    recompute_subgroups,
    weight_orbit,
)
from whitkl.rootsystem import is_integer, pair  # noqa: E402

from conftest import get_group  # noqa: E402
from make_cli_manifest import run  # noqa: E402
from test_cosetlab import _ideals_by_union  # noqa: E402
from test_klengine import RINGS, _subtract_mu_full_scan, _walk  # noqa: E402

RANK_AT_MOST_3 = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
    ("C", 2), ("C", 3), ("D", 3), ("G", 2),
]

small_rationals = st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 6)
)


@st.composite
def type_and_weight(draw):
    letter, rank = draw(st.sampled_from(RANK_AT_MOST_3))
    k = draw(st.integers(0, 2))
    coords = [
        (draw(small_rationals), tuple(draw(small_rationals) for _ in range(k)))
        for _ in range(rank)
    ]
    return letter, rank, Weight.from_values(coords, n_transcendentals=k)


@settings(max_examples=25, deadline=None)
@given(type_and_weight())
def test_weight_orbit_agrees_with_act_on_weight(case):
    letter, rank, lam = case
    g = get_group(letter, rank)
    den, rows = weight_orbit(g, lam)
    for w in range(g.size):
        mu = act_on_weight(g, w, lam)
        assert rows[w] == tuple(
            den * x for rational, tvec in mu.coords for x in (rational, *tvec)
        )


@settings(max_examples=25, deadline=None)
@given(type_and_weight())
def test_reflection_subgroups_meet_their_definitions(case):
    letter, rank, lam = case
    report = recompute_subgroups(get_group(letter, rank), lam)
    assert len(report.checks) == 2 and report.passed, report.checks


@settings(max_examples=60, deadline=None)
@given(type_and_weight(), st.data())
def test_path_b_agrees_with_path_a(case, data):
    letter, rank, lam = case
    theta = data.draw(st.sets(st.integers(0, rank - 1)), label="theta")
    table = build_kl_table(get_group(letter, rank), theta, lam)
    assert phi_direct(table.tc, lam) == table.phi


def _integral_roots(rs, lam):
    return {r for r in range(rs.n_roots) if is_integer(pair(rs, r, lam))}


@settings(max_examples=40, deadline=None)
@given(type_and_weight())
def test_integral_roots_move_with_the_weight(case):
    # Path B runs on integral-root sets because of this identity:
    # Sigma_{s_beta lam} = s_beta(Sigma_lam), checked by the definition
    letter, rank, lam = case
    g = get_group(letter, rank)
    rs = g.rs
    sigma = _integral_roots(rs, lam)
    for beta in range(rank):
        moved = act_on_weight(g, g.simple_ids[beta], lam)
        assert _integral_roots(rs, moved) == {
            rs.simple_reflections[beta][r] for r in sigma
        }


@settings(max_examples=40, deadline=None)
@given(type_and_weight(), st.data())
def test_model_quotient_ideals_equal_the_per_bit_union(case, data):
    letter, rank, lam = case
    theta = data.draw(st.sets(st.integers(0, rank - 1)), label="theta")
    _, _, models = build_models(get_group(letter, rank), theta, lam)
    # models with equal Theta(u,lambda) share a quotient: check each once,
    # on its first requests, in a drawn order
    for quotient in {id(m.quotient): m.quotient for m in models}.values():
        expected = _ideals_by_union(quotient)
        order = data.draw(st.permutations(range(quotient.n_cosets)), label="order")
        assert [quotient.ideal(c) for c in order] == [expected[c] for c in order]


@settings(max_examples=40, deadline=None)
@given(type_and_weight(), st.data())
def test_render_json_is_json_dumps(case, data):
    # the reference reads rows and below lists as the dicts and lists they
    # stand for, so it shares no code with the writer
    letter, rank, lam = case
    theta = data.draw(st.sets(st.integers(0, rank - 1)), label="theta")
    job = Job(letter, rank, tuple(sorted(theta)), lam)
    documents = [run_info(job), run_cosets(job), run_klpolys(job)]
    for flags in ({}, {"invert": True}, {"verma": True}):
        try:
            documents.append(run_characters(job, **flags))
        except ValueError:  # the weight allows no such formula
            pass
    for doc in documents:
        assert render_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


@st.composite
def polys_in_zq(draw):
    """A polynomial in Z[q] with mixed-sign coefficients inside Path A's
    digit cap, the cap itself included."""
    cap = _digit_cap()
    coeff = st.one_of(st.integers(-cap, cap), st.sampled_from([-cap, cap]))
    return LaurentPoly(dict(enumerate(draw(st.lists(coeff, max_size=30)))))


@settings(max_examples=200, deadline=None)
@given(polys_in_zq())
def test_packed_encode_then_decode_is_the_identity(poly):
    assert _decode(_encode(poly), _digit_cap()) == poly


small_coeffs = st.lists(st.integers(-4, 4), max_size=8).map(tuple)


def _is_trimmed(p):
    return not p or p[-1] != 0


@settings(max_examples=300, deadline=None)
@given(small_coeffs, small_coeffs, st.integers(-3, 3).filter(bool))
def test_path_b_tuple_arithmetic_is_laurent_arithmetic(raw_a, raw_b, mu):
    # raw tuples may end in zeros; _trimmed gives Path B's form of each
    a, b = _trimmed(raw_a), _trimmed(raw_b)
    pa, pb = _tuple_decode(a), _tuple_decode(b)
    assert _is_trimmed(a) and pa == LaurentPoly(dict(enumerate(raw_a)))
    results = [
        (_tuple_add(a, b), pa + pb),
        (_tuple_submul(a, b, mu), pa - pb * mu),
        (_tuple_times_q(a), pa.shift(1)),
    ]
    if not a:
        # the walk passes 0 for a coefficient that is absent
        results.append((_tuple_submul(0, b, mu), pb * -mu))
    for got, want in results:
        assert _is_trimmed(got) and _tuple_decode(got) == want
    if a and a[0]:
        with pytest.raises(AssertionError):
            _tuple_over_q(a)
    else:
        got = _tuple_over_q(a)
        assert _is_trimmed(got) and _tuple_decode(got) == pa.shift(-1)


@st.composite
def kl_shaped_walks(draw):
    """(xi, top length, basis, lengths) on up to 8 cosets graded by length,
    ids ascending by length: each basis row is 1 at its coset and in qZ[q]
    at some shorter ones; xi has any coefficients in Z[q], zeros included,
    in random order."""
    n = draw(st.integers(1, 8))
    lengths = {0: 0}
    for d in range(1, n):
        lengths[d] = lengths[d - 1] + draw(st.integers(0, 1))

    def poly(low):
        coeffs = draw(st.lists(st.integers(-3, 3), max_size=3))
        return LaurentPoly({low + e: c for e, c in enumerate(coeffs)})

    basis = {}
    for d in range(n):
        row = {d: LaurentPoly.one()}
        for e in range(d):
            if lengths[e] < lengths[d] and draw(st.booleans()):
                row[e] = poly(1)
        basis[d] = {e: p for e, p in row.items() if p}
    top_length = draw(st.integers(0, lengths[n - 1] + 1))
    support = draw(st.lists(st.integers(0, n - 1), unique=True))
    xi = {d: poly(0) for d in support}
    return xi, top_length, basis, lengths


@settings(max_examples=200, deadline=None)
@given(kl_shaped_walks(), st.sampled_from(sorted(RINGS)))
def test_one_pass_mu_walk_is_a_full_scan(case, ring):
    xi, top_length, basis, lengths = case
    got = _walk(ring, xi, top_length, basis, lengths)
    reference = _subtract_mu_full_scan(xi, top_length, basis, lengths)
    assert list(got.items()) == list(reference.items())


@st.composite
def sparse_unitriangular(draw):
    """A regular formula over distinct labels in random order (the order
    of cf.labels), each row listing its diagonal 1 and some entries to
    its left, zeros included, in shuffled order."""
    labels = draw(st.lists(st.integers(-1000, 1000), max_size=12, unique=True))
    rows = {}
    for i, label in enumerate(labels):
        left = draw(st.sets(st.integers(0, i - 1))) if i else set()
        entries = [(label, 1)] + [
            (labels[j], draw(st.integers(-300, 300))) for j in left
        ]
        rows[label] = tuple(draw(st.permutations(entries)))
    return CharacterFormula("regular", "coset", tuple(labels), rows)


@settings(max_examples=100, deadline=None)
@given(sparse_unitriangular())
def test_inverse_times_original_is_the_identity(cf):
    n = len(cf.labels)
    index = {label: i for i, label in enumerate(cf.labels)}
    original = [[0] * n for _ in range(n)]
    for label, entries in cf.rows.items():
        for target, f in entries:
            original[index[label]][index[target]] = f
    inverse = invert_multiplicities(cf)
    for i in range(n):
        for j in range(n):
            total = sum(inverse[i][k] * original[k][j] for k in range(n))
            assert total == (1 if i == j else 0)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.integers(-12, 12),
        st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30)),
        max_size=8,
    )
)
def test_polynomial_text_parses_back_to_the_polynomial(terms):
    poly = LaurentPoly(terms)
    assert laurent.parse(poly.text()) == poly


@st.composite
def named_weights(draw):
    """A weight of rank 1..6 whose highest transcendental index is used,
    since ``parse_lambda`` takes the count from the highest index it reads."""
    rank = draw(st.integers(1, 6))
    k = draw(st.integers(0, MAX_TRANSCENDENTALS))
    value = st.fractions(-50, 50, max_denominator=12)
    coords = [
        (draw(value), [draw(value) for _ in range(k)]) for _ in range(rank)
    ]
    if k:
        at = draw(st.integers(0, rank - 1))
        coords[at][1][-1] = draw(value.filter(bool))
    return Weight.from_values(
        [(rational, tuple(tvec)) for rational, tvec in coords],
        n_transcendentals=k,
    )


@settings(max_examples=300, deadline=None)
@given(named_weights())
def test_weight_name_parses_back_to_the_weight(lam):
    assert parse_lambda(weight_name(lam), lam.rank) == lam


def _not_a_type(text: str) -> bool:
    try:
        parse_type(text)
    except InputError:
        return True
    return False


@st.composite
def cli_argvs(draw):
    """An argv of near-valid or junk --type, --theta and --lambda text, a
    command and a format: a weight of the type's rank often enough that
    some runs exit 0."""
    type_ = draw(
        st.one_of(
            st.sampled_from(["A1", "a2", " B3 ", "C2", "G2", "A3", "D3", "B2"]),
            # read by the parser, but no root system or not a digit
            st.sampled_from(["A0", "B1", "D2", "E5", "F3", "G3", "A7", "A٢"]),
            # never a type: a junk E6 or D6 would build a group of 51 840 or
            # 23 040 elements
            st.text(max_size=6).filter(_not_a_type),
        )
    )
    rank = 3 if _not_a_type(type_) else parse_type(type_)[1]
    names = ["α", "beta", "GAMMA", "1", "2", "3", "0", "7", "", "x"]
    theta = draw(
        st.one_of(
            st.lists(st.sampled_from(names), max_size=3).map(",".join),
            st.text(max_size=8),
        )
    )
    coordinates = st.sampled_from(
        ["-1"] * 4 + ["0", "-1/2", "-1+1*t1", "-1-1*t1+2*t2", "-2", "1", "1/0",
                      "t5", "3 4", "", "--1", "٣"]
    )
    lam = draw(
        st.one_of(
            st.lists(coordinates, min_size=rank, max_size=rank).map(",".join),
            st.none(),
            st.lists(coordinates, min_size=1, max_size=4).map(",".join),
            st.text(max_size=12),
        )
    )
    command = draw(
        st.sampled_from(
            [
                ["info"], ["cosets"], ["klpolys"], ["characters"],
                ["characters", "--invert"], ["characters", "--verma"],
                ["characters", "--invert", "--verma"], ["verify"], ["nothing"],
            ]
        )
    )
    fmt = draw(st.sampled_from(["text", "json", "latex", "tex"]))
    argv = [f"--type={type_}", f"--theta={theta}", f"--format={fmt}"]
    return argv + ([] if lam is None else [f"--lambda={lam}"]) + command


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
def test_the_cli_exits_with_a_code_and_no_traceback(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err
    if code in (1, 3):
        # an error is one line on stderr, with nothing on stdout
        assert err.count("\n") == 1 and not out, argv
