import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import whitkl.cli
from whitkl import LaurentPoly, Weight, build_kl_table
from whitkl.cli import (
    InputError,
    Job,
    main,
    parse_lambda,
    parse_output,
    parse_theta,
    parse_type,
    render_json,
    render_latex,
    render_text,
    run_characters,
    run_cosets,
    run_info,
    run_klpolys,
)

from conftest import assert_same_text, lambda_golden_a3

GOLDEN_A3_ARGS = [
    "--type",
    "A3",
    "--theta",
    "α,β",
    "--lambda",
    "-5-4*t1,-5+4*t1,-5",
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_lambda_golden_a3():
    lam = parse_lambda("-5-4*t1,-5+4*t1,-5", 3)
    assert lam == lambda_golden_a3()


def test_parse_lambda_minus_rho():
    assert parse_lambda("-1,-1,-1", 3) == Weight.minus_rho(3)


def test_parse_lambda_zero():
    assert parse_lambda("0,0", 2) == Weight.zero(2)


def test_parse_lambda_rationals_and_sums():
    lam = parse_lambda("1/2-3/2, -1+2*t2-1*t1", 2)
    assert lam.coords[0] == (Fraction(-1), (Fraction(0), Fraction(0)))
    assert lam.coords[1] == (Fraction(-1), (Fraction(-1), Fraction(2)))


def test_parse_lambda_errors_have_positions():
    with pytest.raises(InputError, match="position"):
        parse_lambda("-5-4*t1,-5+4*t1,junk", 3)
    with pytest.raises(InputError, match="t9"):
        parse_lambda("-5*t9,-5,-5", 3)
    with pytest.raises(InputError, match="coordinates"):
        parse_lambda("-1,-1", 3)
    with pytest.raises(InputError):
        parse_lambda("-1,-1 7,-1", 3)


def test_zero_denominator_is_an_input_error(capsys):
    with pytest.raises(InputError, match="position 2"):
        parse_lambda("1/0,-1", 2)
    code, out, err = run_cli(capsys, "--type", "A2", "--lambda=1/0,-1", "info")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "zero denominator" in err


def test_parse_theta_variants():
    assert parse_theta("α,β", 3) == (0, 1)
    assert parse_theta("alpha,gamma", 3) == (0, 2)
    assert parse_theta("1,3", 3) == (0, 2)
    assert parse_theta("", 3) == ()
    with pytest.raises(InputError):
        parse_theta("delta", 3)
    with pytest.raises(InputError):
        parse_theta("ω", 3)


def test_parse_type():
    assert parse_type("A3") == ("A", 3)
    assert parse_type("g2") == ("G", 2)
    with pytest.raises(InputError):
        parse_type("X9")


def test_klpolys_golden_a3(capsys):
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "--format", "json", "klpolys")
    assert code == 0, err
    data = json.loads(out)
    assert data["context"]["type"] == "A3"
    assert data["context"]["theta"] == ["α", "β"]
    assert data["context"]["flags"] == {
        "antidominant": True,
        "regular": True,
        "integral": False,
    }
    polys = {(e["c"], e["d"]): e["poly"] for e in data["kl_polynomials"]}
    assert polys[(1, 0)] == "q"
    assert polys[(3, 1)] == "q"
    assert (3, 0) not in polys
    models = data["models"]
    assert models[0]["theta_u_lambda"] == ["α+β"]
    assert models[1]["theta_u_lambda"] == ["γ", "α+β"]


def test_characters_golden_a3(capsys):
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "characters")
    assert code == 0, err
    lines = [line for line in out.splitlines() if line.startswith("ch L")]
    assert lines == [
        "ch L(s_α s_β s_α) = ch M(s_α s_β s_α)",
        "ch L(s_α s_β s_α s_γ) = -ch M(s_α s_β s_α) + ch M(s_α s_β s_α s_γ)",
        "ch L(s_α s_β s_α s_γ s_β) = ch M(s_α s_β s_α s_γ s_β)",
        "ch L(s_α s_β s_α s_γ s_β s_α) = -ch M(s_α s_β s_α s_γ) + ch M(s_α s_β s_α s_γ s_β s_α)",
    ]


def test_characters_verma_a2(capsys):
    code, out, err = run_cli(
        capsys,
        "--type",
        "A2",
        "--theta",
        "",
        "--lambda",
        "-1,-1",
        "--format",
        "json",
        "characters",
        "--verma",
    )
    assert code == 0, err
    data = json.loads(out)
    assert len(data["characters"]) == 6
    w0_row = next(r for r in data["characters"] if r["irreducible"] == "s_α s_β s_α")
    coeffs = sorted(e["coeff"] for e in w0_row["entries"])
    assert coeffs == [-1, -1, -1, 1, 1, 1]


def test_characters_invert(capsys):
    code, out, err = run_cli(
        capsys, *GOLDEN_A3_ARGS, "--format", "json", "characters", "--invert"
    )
    assert code == 0, err
    data = json.loads(out)
    assert "multiplicities" in data
    rows = {
        r["standard_id"]: {e["irreducible_id"]: e["coeff"] for e in r["entries"]}
        for r in data["multiplicities"]
    }
    assert rows[3] == {0: 1, 1: 1, 3: 1}


def test_info_golden_a3(capsys):
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "info")
    assert code == 0, err
    assert "Sigma_lambda^+ = {γ, α+β, α+β+γ}" in out
    assert "A_lambda = {e, s_α, s_β, s_γ s_β}" in out
    assert "A_theta_lambda = {e, s_γ s_β}" in out


def test_output_byte_stable(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run_cli(
            capsys, *GOLDEN_A3_ARGS, "--format", "json", "klpolys"
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_json_round_trip(capsys):
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "--format", "json", "klpolys")
    assert code == 0
    parsed = parse_output(out)
    polys = {(e["c"], e["d"]): e["poly"] for e in parsed["kl_polynomials"]}
    assert polys[(1, 0)] == LaurentPoly.q()
    assert polys[(0, 0)] == LaurentPoly.one()
    # re-rendering the loaded JSON reproduces the bytes
    reloaded = json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"
    assert_same_text(reloaded, out)


def test_latex_klpolys(capsys):
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "--format", "latex", "klpolys")
    assert code == 0
    assert "\\begin{tabular}" in out
    assert "$q$" in out
    assert "$s_\\alpha s_\\beta s_\\alpha$" in out


def test_format_flag_after_subcommand(capsys):
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "klpolys", "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert data["context"]["type"] == "A3"


def test_latex_characters(capsys):
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "--format", "latex", "characters")
    assert code == 0
    assert "\\begin{align*}" in out


def test_input_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "--type", "A9", "info")
    assert code == 1
    assert "error" in err
    code, out, err = run_cli(capsys, "--type", "A3", "info")  # missing lambda
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--type", "A٢", "--lambda=-1,-1"), "cannot parse type"),
        (("--type", "A2", "--lambda=-١,-1"), "syntax error at position 0"),
        (("--type", "A2", "--theta", "١", "--lambda=-1,-1"), "unknown simple root"),
    ],
)
def test_non_ascii_digits_are_input_errors(capsys, argv, message):
    # the grammar is ASCII: an Arabic-Indic digit (U+0661 one, U+0662 two)
    # reads as no digit at all
    code, out, err = run_cli(capsys, *argv, "info")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--type", "B1", "--lambda=-1,-1"), "B1 is not a valid finite type"),
        (("--type", "A0", "--lambda="), "rank 0 out of range 1..6"),
        (("--type", "A9", "--lambda=-1"), "rank 9 out of range 1..6"),
        (("--type", "D2", "--theta", "γ", "--lambda=-1"), "D2 is not a valid"),
    ],
)
def test_type_is_checked_before_theta_and_lambda(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "info")
    assert code == 1
    assert out == ""
    assert message in err


def test_precondition_violation_names_condition(capsys):
    # the zero weight is singular: regular-mode commands reject it and the
    # error names the violated condition with the offending pairing
    code, out, err = run_cli(
        capsys, "--type", "A2", "--theta", "", "--lambda", "0,0", "characters",
        "--verma",
    )
    assert code == 1
    assert "not antidominant" in err
    assert "coroot pairing 0" in err
    code, out, err = run_cli(
        capsys, "--type", "A2", "--theta", "", "--lambda", "1,-1", "characters"
    )
    assert code == 1
    assert "not antidominant" in err
    assert "coroot pairing 1" in err


def test_verify_exit_codes(capsys, monkeypatch):
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "verify")
    assert code == 0
    assert "pass" in out and "FAIL" not in out
    # a failing report must exit 2
    import whitkl.cli as cli_mod

    def fake_verify(job):
        check = {
            "name": "forced",
            "scope": "unit",
            "passed": False,
            "counterexample": "synthetic counterexample",
        }
        return {"passed": False, "checks": [check]}

    monkeypatch.setattr(cli_mod, "run_verify", fake_verify)
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "verify")
    assert code == 2
    assert "FAIL" in out


def test_internal_error_exit_code(capsys, monkeypatch):
    # a broken invariant exits 3 with one line, not a traceback or exit 1
    import whitkl.cli as cli_mod

    def broken_table(*args):
        raise AssertionError("leading coefficient at 3\nis not 1")

    monkeypatch.setattr(cli_mod, "build_kl_table", broken_table)
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "klpolys")
    assert code == 3
    assert out == ""
    assert err == "whitkl: internal error: leading coefficient at 3 is not 1\n"


def test_space_mismatch_is_an_internal_error(capsys, monkeypatch):
    # SpaceMismatchError is a ValueError, but a mixed-up space tag is a
    # broken invariant, not bad input
    import whitkl.cli as cli_mod
    from whitkl.heckemodule import SpaceMismatchError

    def broken_table(*args):
        raise SpaceMismatchError("cannot combine elements tagged a and b")

    monkeypatch.setattr(cli_mod, "build_kl_table", broken_table)
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "klpolys")
    assert code == 3
    assert out == ""
    assert err == "whitkl: internal error: cannot combine elements tagged a and b\n"


def test_wrong_integral_weyl_group_is_an_internal_error(
    capsys, wrong_reflection_subgroup
):
    # integral_data counts |A_lambda| * |W_lambda| on every CLI call
    code, out, err = run_cli(capsys, *GOLDEN_A3_ARGS, "klpolys")
    assert code == 3
    assert out == ""
    assert err == "whitkl: internal error: |A_lambda| * |W_lambda| != |W|\n"


SUBGROUP_CHECKS = ("w-lambda-vs-lattice", "stabilizer-vs-zero-roots")
# rank 5: verify skips the coset recomputation, and skips Path A = Path B
# once W_lambda fails its check, so under the fault it builds no KL table,
# which the fault would stop
D5_VERIFY_ARGS = ["--type", "D5", "--lambda=0,-1+1*t1,-1/2,-1-1*t1,-1", "verify"]


def test_verify_runs_the_subgroup_checks_at_every_rank(capsys):
    code, out, err = run_cli(capsys, *D5_VERIFY_ARGS)
    assert code == 0, out
    for name in SUBGROUP_CHECKS:
        assert f"pass  {name}  (D5)\n" in out


def test_verify_fails_each_subgroup_check_under_a_wrong_subgroup(
    capsys, wrong_reflection_subgroup
):
    code, out, err = run_cli(capsys, *D5_VERIFY_ARGS)
    assert code == 2
    assert err == ""
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == list(SUBGROUP_CHECKS)


def test_verify_runs_phi_direct_vs_transport_up_to_1920_elements(capsys):
    code, out, err = run_cli(capsys, *D5_VERIFY_ARGS)
    assert code == 0, out
    assert "pass  phi-direct-vs-transport  (D5)\n" in out
    code, out, err = run_cli(
        capsys, "--type", "E6", "--lambda=-1,-1,-1,-1,-1,-1", "verify"
    )
    assert code == 0, out
    assert (
        "pass  phi-direct-vs-transport  (E6)  [skipped: |W| = 51840 > 1920]\n"
    ) in out


def test_verify_skips_phi_direct_vs_transport_on_a_refuted_w_lambda(
    capsys, wrong_reflection_subgroup
):
    code, out, err = run_cli(capsys, *D5_VERIFY_ARGS)
    assert code == 2
    assert (
        "pass  phi-direct-vs-transport  (D5)  "
        "[skipped: W_lambda or W^lambda failed its check]\n"
    ) in out


def test_verify_json_format(capsys):
    code, out, err = run_cli(
        capsys,
        "--type",
        "A2",
        "--theta",
        "1",
        "--lambda",
        "-1,-1",
        "--format",
        "json",
        "verify",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "d0985920c31845f098fe471d50d8f273df5ab109b81d11d2549ab72e8a931640"),
        ("json", "0f598afc29e848e8cfada72464cd1d0dd30bbc2fa8f8902f1938cef12aeb371c"),
    ],
)
def test_d5_verify_is_byte_stable(capsys, fmt, digest):
    code, out, err = run_cli(capsys, "--format", fmt, *D5_VERIFY_ARGS)
    assert (code, err) == (0, "")
    assert _digest(out) == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "19b2ada4c733f364fe833af7a7c1b1bb664b054d1066cdc8313d6b4514d50993"),
        ("json", "58cadd2458af0c1c989de6905518f8b439c3f5a22960e6ba37f2d6ec054dc139"),
    ],
)
def test_d5_verify_failure_is_byte_stable(
    capsys, wrong_reflection_subgroup, fmt, digest
):
    code, out, err = run_cli(capsys, "--format", fmt, *D5_VERIFY_ARGS)
    assert (code, err) == (2, "")
    assert _digest(out) == digest


@pytest.mark.parametrize(
    "argv", [[*GOLDEN_A3_ARGS, "verify"], D5_VERIFY_ARGS], ids=["A3", "D5"]
)
def test_latex_verify_prints_the_text_lines(capsys, argv):
    code, text, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    code, latex, err = run_cli(capsys, "--format", "latex", *argv)
    assert (code, err) == (0, "")
    assert latex == text


def test_singular_characters_via_cli(capsys):
    code, out, err = run_cli(
        capsys,
        "--type",
        "A2",
        "--theta",
        "",
        "--lambda",
        "0,-1",
        "--format",
        "json",
        "characters",
    )
    assert code == 0, err
    data = json.loads(out)
    assert len(data["characters"]) == 3


def _reference_json(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize(
    "command",
    [
        ("info",),
        ("cosets",),
        ("klpolys",),
        ("characters",),
        ("characters", "--invert"),
        ("characters", "--verma"),
    ],
)
def test_render_json_matches_json_dumps_golden_a3(command):
    job = Job("A", 3, (0, 1), lambda_golden_a3())
    name, *flags = command
    if name == "info":
        data = run_info(job)
    elif name == "cosets":
        data = run_cosets(job)
    elif name == "klpolys":
        data = run_klpolys(job)
    else:
        data = run_characters(
            job, invert="--invert" in flags, verma="--verma" in flags
        )
    assert_same_text(render_json(data), _reference_json(data))


def test_render_json_matches_json_dumps_edge_cases():
    class Name(str):
        pass

    data = {
        "greek": "α+β, s_γ s_δ",
        "quotes": 'say "hi"',
        "backslash": "a\\b\\",
        "control": "tab\tnl\ncr\rnul\x00bell\x07\x1f",
        "empty_dict": {},
        "empty_list": [],
        "nested_empty": [[], {}, [[]], {"x": {}}],
        "none": None,
        "bools": [True, False],
        "ints": [0, -1, -(10**30), 10**40],
        "tuple": (1, "two", (3, [4])),
        "mixed": [1, {"a": [2, {"b": None}]}, "c"],
        "keys": {Name("κ"): 3},
    }
    assert_same_text(render_json(data), _reference_json(data))
    for value in [None, True, 0, -3, "α", "", [], {}, (), [None], {"k": []}]:
        assert_same_text(render_json(value), _reference_json(value))


def test_render_json_rejects_what_json_dumps_rejects():
    for bad in [{"x": {1, 2}}, [object()], {(1, 2): 3}, Fraction(1, 2)]:
        with pytest.raises(TypeError):
            _reference_json(bad)
        with pytest.raises(TypeError):
            render_json(bad)


class _Name(str):
    pass


class _Count(int):
    pass


@pytest.mark.parametrize(
    "bad, type_name",
    [
        (1.5, "float"),
        ([float("nan")], "float"),
        (2.25, "float"),
        ([_Name("n")], "_Name"),
        ({"k": _Count(7)}, "_Count"),
        ({1: "int"}, "int"),
        ({True: "t"}, "bool"),
        ({None: "none"}, "NoneType"),
        ({2.5: "float"}, "float"),
    ],
    ids=lambda x: x if isinstance(x, str) else repr(x),
)
def test_render_json_rejects_values_no_document_holds(bad, type_name):
    # json.dumps writes these; no CLI document holds them
    _reference_json(bad)
    with pytest.raises(TypeError, match=rf"\b{type_name}\b"):
        render_json(bad)


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
def test_characters_verma_reports_the_empty_theta_it_used(capsys, fmt):
    def run(theta):
        code, out, err = run_cli(
            capsys, "--type", "A2", "--theta", theta, "--lambda", "-1,-1",
            "--format", fmt, "characters", "--verma",
        )
        assert code == 0, err
        return out

    out = run("α")
    if fmt == "json":
        context = json.loads(out)["context"]
        assert context["theta"] == [] and context["theta_indices"] == []
    assert out == run("")


def test_characters_verma_builds_one_table(capsys, monkeypatch):
    argv = ["--type", "A2", "--theta", "", "--lambda", "-1,-1", "--format",
            "json", "characters", "--verma"]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_kl_table(*args, **kwargs)

    # the CLI builds every table the command uses
    monkeypatch.setattr(whitkl.cli, "build_kl_table", counted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert len(calls) == 1
    # the output of the two-table build this replaced
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "540854d8966b4439f3273d84f5cc9f06f2bdd11416c73287839fb260b2791799"
    )


# B4, Theta empty, lambda = -rho: a 384-coset block whose documents span
# several chunks in every format
B4_ARGS = ["--type", "B4", "--theta", "", "--lambda", "-1,-1,-1,-1"]


@pytest.fixture(scope="module")
def b4_job():
    return Job("B", 4, (), Weight.minus_rho(4))


@pytest.fixture(scope="module")
def b4_characters(b4_job):
    return run_characters(b4_job, invert=True)


def _chunk_lengths(render, *args):
    lengths = []
    render(*args, lambda chunk: lengths.append(len(chunk)))
    return lengths


def test_multi_chunk_json_matches_json_dumps(capsys, b4_characters):
    data = b4_characters
    assert len(_chunk_lengths(render_json, data)) > 10
    code, out, err = run_cli(
        capsys, *B4_ARGS, "--format", "json", "characters", "--invert"
    )
    assert code == 0, err
    text = render_json(data)
    assert_same_text(out, text)
    assert_same_text(text, _reference_json(data))


@pytest.mark.parametrize(
    "fmt, command, digest",
    [
        (
            "text",
            "klpolys",
            "092597d9231fedac869ca7e0819950c37808cb8a821929b518c314d618b0075f",
        ),
        (
            "latex",
            "klpolys",
            "bdc5538bafd7fd5f3dcf5f4f6cfffd5a58c6cc38b0f1e9bc75ab72030d5f4b5f",
        ),
        (
            "text",
            "characters",
            "4e64c392cf91177aa99877a7d587d39ff056d26930424d2d318b769b7fa10765",
        ),
        (
            "latex",
            "characters",
            "a98f9a8b226e94507ee923042834bc0513cffad4e1e9c27ed5097e008fffd431",
        ),
    ],
)
def test_multi_chunk_text_and_latex_are_byte_stable(
    capsys, b4_job, b4_characters, fmt, command, digest
):
    if command == "klpolys":
        data, flags = run_klpolys(b4_job), []
    else:
        data, flags = b4_characters, ["--invert"]
    render = render_text if fmt == "text" else render_latex
    assert len(_chunk_lengths(render, command, data)) > 1
    code, out, err = run_cli(capsys, *B4_ARGS, "--format", fmt, command, *flags)
    assert code == 0, err
    # digests of the output as written in one piece, before streaming
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_latex_characters_invert_computes_no_inverse(capsys, monkeypatch):
    # LaTeX prints no multiplicities; text and JSON invert before their
    # first byte, so a failing inversion leaves stdout empty
    def broken_inverse(cf):
        raise AssertionError("inverse computed")

    monkeypatch.setattr(whitkl.cli, "invert_multiplicities", broken_inverse)
    code, out, err = run_cli(
        capsys, *B4_ARGS, "--format", "latex", "characters", "--invert"
    )
    assert (code, err) == (0, "")
    assert _digest(out) == (
        "a98f9a8b226e94507ee923042834bc0513cffad4e1e9c27ed5097e008fffd431"
    )
    for fmt in ("text", "json"):
        code, out, err = run_cli(
            capsys, *B4_ARGS, "--format", fmt, "characters", "--invert"
        )
        assert (code, out) == (3, "")
        assert err == "whitkl: internal error: inverse computed\n"


def test_render_json_to_a_sink_holds_a_bounded_part(b4_characters):
    data = b4_characters
    length = sum(_chunk_lengths(render_json, data))
    assert length > 10_000_000
    tracemalloc.start()
    try:
        render_json(data, lambda chunk: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole text, as one str, would take at least ``length`` bytes
    assert peak < length / 4, (peak, length)


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "characters", "--invert"],
        ["klpolys"],
    ],
)
def test_closed_pipe_exits_quietly(argv):
    # the reader takes a few bytes of a multi-chunk document and closes
    # the pipe, as ``whitkl ... | head -c 100`` does
    src = str(Path(whitkl.cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "whitkl.cli", *B4_ARGS, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert len(head) == 100
    assert err == b""


def test_import_leaves_the_oracle_unloaded():
    # only ``verify`` loads the oracle
    src = str(Path(whitkl.cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = "import sys, whitkl, whitkl.cli; assert 'whitkl.oracle' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
