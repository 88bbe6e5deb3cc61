"""The documents' long lists are made as they are read: their order, their
re-iteration, the JSON writer's row pieces, what they hold, and that every
renderer reads them as tuples."""

import gc
import json
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import chain

import pytest

from whitkl import Weight, build_kl_table, build_theta_cosets
from whitkl.cli import (
    _CHUNK_CHARS,
    _CHUNK_PIECES,
    Job,
    _Below,
    _Rows,
    _Shared,
    _joined,
    parse_lambda,
    render_json,
    render_latex,
    render_text,
    run_characters,
    run_cosets,
    run_info,
    run_klpolys,
)

from conftest import assert_same_text, get_group, lambda_golden_a3


def _reference_json(data) -> str:
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def test_text_comparison_names_the_first_differing_offset_fast():
    expected = "".join(chr(32 + k % 90) for k in range(2**20))
    got = expected[:700_001] + "\u03b1" + expected[700_002:]
    start = time.perf_counter()
    with pytest.raises(AssertionError, match=r"offset 700001 \(lengths 1048576 and"):
        assert_same_text(got, expected)
    with pytest.raises(AssertionError, match=r"offset 1048576 \(lengths 1048577 and"):
        assert_same_text(expected + "x", expected)
    with pytest.raises(AssertionError, match="offset 0 "):
        assert_same_text("", "x")
    assert time.perf_counter() - start < 5


KL_CASES = {
    "A3-golden": ("A", 3, (0, 1), lambda_golden_a3()),
    "B4-theta-empty-minus-rho": ("B", 4, (), Weight.minus_rho(4)),
    "B3-non-integral": (
        "B",
        3,
        (),
        Weight.from_values([Fraction(-1, 2), -1, Fraction(-1, 2)]),
    ),
}


@pytest.mark.parametrize("case", sorted(KL_CASES))
def test_kl_polynomials_follow_the_sorted_table(case):
    letter, rank, theta, lam = KL_CASES[case]
    rows = run_klpolys(Job(letter, rank, theta, lam))["kl_polynomials"]
    table = build_kl_table(get_group(letter, rank), theta, lam)
    expected = [(c, d, poly.text()) for (c, d), poly in sorted(table.polys.items())]
    assert [(e["c"], e["d"], e["poly"]) for e in rows] == expected
    assert len(rows) == len(expected)


def test_documents_iterate_twice_to_equal_lists():
    job = Job("A", 3, (0, 1), Weight.minus_rho(3))
    klpolys = run_klpolys(job)["kl_polynomials"]
    characters = run_characters(job, invert=True)
    sequences = [klpolys]
    for section in ("characters", "multiplicities"):
        sequences.extend(row["entries"] for row in characters[section])
    assert any(len(rows) for rows in sequences[1:])
    for rows in sequences:
        first = list(rows)
        assert first == list(rows)
        assert len(first) == len(rows)


class _Name(str):
    pass


class _Count(int):
    pass


def _rows(*values):
    return _Rows(("a", "b"), lambda: iter(values), len(values))


def test_rows_of_bools_among_ints_match_json_dumps():
    # a bool must find neither a "%d" nor the cached text of 0 or 1, also
    # after whole batches of ints have filled that cache
    mixed = [(1, "x"), (True, "x"), (0, "x"), (False, "y"), (1, "y")]
    doc = {
        "rows": _rows(*mixed),
        "long": _rows(*[(1, "x"), (0, "y")] * 3000, *mixed),
        "none": _rows((0, None), (True, None)),
    }
    text = render_json(doc)
    assert_same_text(text, _reference_json(doc))
    assert '"a": true' in text and '"a": false' in text


def test_rows_of_one_shape_and_empty_rows_match_json_dumps():
    percent_keys = _Rows(("%s", "b%"), lambda: iter([(1, "%d")]), 1)
    doc = [
        _rows(),
        _rows(("%s", "%d")),
        _rows((3, "α"), (-(10**30), "α")),
        {"nested": [percent_keys, _Rows((), lambda: iter([(), ()]), 2)]},
    ]
    assert_same_text(render_json(doc), _reference_json(doc))


# a batch of the JSON writer holds the rows of about _CHUNK_PIECES pieces,
# five for a row of two fields (a key and a value each, and the close);
# each of these takes the generic walk (a bool or None) in one batch and the
# row pieces in another
_BATCH = _CHUNK_PIECES // 5
_MIXED_BATCHES = {
    "walk-then-pieces": [(True, "x")] + [(k, "y") for k in range(_BATCH + 5)],
    "pieces-then-walk": [(k, "α") for k in range(_BATCH)] + [(0, "x"), (1, False)],
    "pieces-walk-pieces": [(k, "z") for k in range(_BATCH)]
    + [(None, "z")] * _BATCH
    + [(-k, "%s") for k in range(7)],
}


@pytest.mark.parametrize("case", sorted(_MIXED_BATCHES))
def test_row_pieces_and_the_generic_walk_take_turns_by_batch(case):
    values = _MIXED_BATCHES[case]
    doc = {"rows": _rows(*values), "after": _rows((1, "x"))}
    text = render_json(doc)
    assert_same_text(text, _reference_json(doc))
    # the list is opened once; every later row is led by a comma
    assert text.count("[") == 2
    assert text.count("},\n") == len(values) - 1


def test_rows_of_one_field_and_rows_two_lists_deep_match_json_dumps():
    values = [(k,) for k in range(_BATCH + 3)]
    one = _Rows(("only",), lambda: iter(values), len(values))
    deep = [[_rows((1, "a"), (2, "b")), _rows()], [[_rows((3, "c"))]]]
    doc = {"one": one, "deep": deep, "again": [one, {"deep": deep}]}
    text = render_json(doc)
    assert_same_text(text, _reference_json(doc))
    assert json.loads(text)["one"][-1] == {"only": _BATCH + 2}


@pytest.mark.parametrize(
    "value, type_name",
    [(1.5, "float"), (_Name("n"), "_Name"), (_Count(7), "_Count")],
)
def test_rows_holding_other_types_raise_as_the_generic_walk(value, type_name):
    doc = [_rows((1, "ok"), (value, "ok"))]
    with pytest.raises(TypeError, match=rf"\b{type_name}\b") as lazy:
        render_json(doc)
    with pytest.raises(TypeError) as walked:
        render_json([[{"a": 1, "b": "ok"}, {"a": value, "b": "ok"}]])
    assert str(lazy.value) == str(walked.value)


def test_int_lists_written_in_one_join_match_json_dumps():
    doc = [[0, -1, 10**40], [1, True, 2], [3, "4"], (5, 6), [[7], 8]]
    assert_same_text(render_json(doc), _reference_json(doc))
    with pytest.raises(TypeError, match=r"\b_Count\b"):
        render_json([1, _Count(2)])


def test_characters_document_holds_less_than_its_dicts():
    job = Job("B", 4, (), Weight.minus_rho(4))
    run_characters(job, invert=True)  # fills the group's caches
    gc.collect()
    tracemalloc.start()
    try:
        data = run_characters(job, invert=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data["multiplicities"]) == 384
    # one dict per entry held 18.1 MB (peak 21.7 MB); the rows hold 7.0 MB
    assert held < 18 * 2**20 and peak < 18 * 2**20, (held, peak)


BELOW_CASES = {
    "A3-golden": ("A", 3, (0, 1), lambda_golden_a3()),
    "B3-non-integral": KL_CASES["B3-non-integral"],
    # 1 920 cosets and 160 models of 12 cosets each
    "D5-singular-nonintegral": (
        "D",
        5,
        (),
        parse_lambda("0,-1+1*t1,-1/2,-1-1*t1,-1", 5),
    ),
}
BELOW_COMMANDS = {
    "info": run_info,
    "cosets": run_cosets,
    "klpolys": run_klpolys,
    "characters": run_characters,
}


@pytest.mark.parametrize("command", sorted(BELOW_COMMANDS))
@pytest.mark.parametrize("case", sorted(BELOW_CASES))
def test_below_lists_follow_the_coset_order(case, command):
    letter, rank, theta, lam = BELOW_CASES[case]
    data = BELOW_COMMANDS[command](Job(letter, rank, theta, lam))
    text = render_json(data)
    assert_same_text(text, _reference_json(data))
    assert '"below": []' in text
    tc = build_theta_cosets(get_group(letter, rank), theta)
    assert len(data["cosets"]) == tc.n_cosets > 1
    for entry in data["cosets"]:
        below = entry["below"]
        assert type(below) is _Below
        expected = tc.below(entry["id"])
        first, second = list(below), list(below)
        assert first == second == expected
        assert len(below) == len(expected)
        assert below == expected and not below != expected
    assert json.loads(text)["cosets"][0]["below"] == []


def _entry(group, w):
    """An element's entry as each row once made its own."""
    word = group.elements[w].word
    name = " ".join(f"s_{'αβγδεζ'[i]}" for i in word) or "e"
    return {"word": list(word), "name": name}


@pytest.mark.parametrize("case", sorted(BELOW_CASES))
def test_coset_and_model_rows_are_the_dicts_they_replace(case):
    letter, rank, theta, lam = BELOW_CASES[case]
    group = get_group(letter, rank)
    data = run_klpolys(Job(letter, rank, theta, lam))
    table = build_kl_table(group, theta, lam)
    tc = table.tc
    assert type(data["cosets"]) is _Rows
    assert list(data["cosets"]) == [
        {
            "id": c,
            "longest": _entry(group, tc.longest[c]),
            "shortest": _entry(group, tc.shortest[c]),
            "length": group.length(tc.longest[c]),
            "below": tc.below(c),
        }
        for c in range(tc.n_cosets)
    ]
    assert len(data["models"]) == len(table.models)
    for entry, model in zip(data["models"], table.models):
        assert entry["u"] == _entry(group, model.u)
        assert type(entry["cosets"]) is _Rows
        assert entry["cosets"] == [
            {
                "id": f,
                "longest": _entry(group, model.quotient.longest[f]),
                "length_lambda": model.length(f),
                "global": model.ind[f],
            }
            for f in range(model.n_cosets)
        ]
    # one entry per element, shared by every row that names it
    longest = [row["longest"] for row in data["cosets"]]
    assert all(type(e) is _Shared for e in longest)
    assert len({id(e) for e in longest}) == len(set(tc.longest))


@pytest.mark.parametrize("command", sorted(BELOW_COMMANDS))
def test_a_document_renders_twice_to_the_same_text(command):
    letter, rank, theta, lam = BELOW_CASES["B3-non-integral"]
    data = BELOW_COMMANDS[command](Job(letter, rank, theta, lam))
    first = render_json(data)
    assert_same_text(render_json(data), first)
    assert_same_text(first, _reference_json(data))


def test_shared_dicts_and_long_rows_match_json_dumps():
    # a _Shared dict in two columns, at two indents, holding a list, rows
    # whose below lists outgrow a chunk, and columns the pieces do not take
    shared = _Shared(word=[1, 2], name="s_β s_γ")
    empty = _Shared(word=[], name="e")
    wide = (1 << 300) - 1
    rows = [
        (i, shared if i % 2 else empty, _Below(wide >> i % 300), shared)
        for i in range(600)
    ]
    doc = {
        "rows": _Rows(("id", "a", "below", "b"), lambda: iter(rows), len(rows)),
        "nested": [{"deeper": _Rows(("x",), lambda: iter([(shared,), (empty,)]), 2)}],
        "mixed": _Rows(("x",), lambda: iter([(shared,), (1,)]), 2),
        "plain": shared,
    }
    chunks = []
    render_json(doc, chunks.append)
    # after a batch of long rows, each batch is near one chunk's characters
    assert len(chunks) > 5 and max(map(len, chunks[1:-1])) < 4 * _CHUNK_CHARS
    assert_same_text("".join(chunks), _reference_json(doc))


def test_below_wider_than_every_id_text_so_far_matches_json_dumps():
    doc = {
        "narrow": _Below(0b1011),
        "empty": _Below(0),
        "wide": _Below(1 << 1500 | 1 << 700 | 1 << 4 | 1),
        "again": [_Below(1 << 9), _Below((1 << 2000) - 1)],
    }
    text = render_json(doc)
    assert_same_text(text, _reference_json(doc))
    assert json.loads(text)["wide"] == [0, 4, 700, 1500]
    assert json.loads(text)["again"][1] == list(range(2000))


def test_a_render_leaves_no_cycle_for_the_collector():
    data = run_characters(Job("A", 3, (), Weight.minus_rho(3)))
    gc.collect()
    gc.disable()
    try:
        for doc in (data, {"a": [1, 2]}, {"rows": _rows((1, "x"), (True, None))}):
            render_json(doc)
            assert gc.collect() == 0
    finally:
        gc.enable()


ROW_CASES = {
    "A3-golden": ("A", 3, (0, 1), lambda_golden_a3()),
    "B4-theta-empty-minus-rho": KL_CASES["B4-theta-empty-minus-rho"],
    "D5-singular-nonintegral": BELOW_CASES["D5-singular-nonintegral"],
}
ROW_COMMANDS = {
    **BELOW_COMMANDS,
    "characters --invert": partial(run_characters, invert=True),
    "characters --verma": partial(run_characters, verma=True),
}


@pytest.mark.parametrize(
    "case, command",
    [
        (case, command)
        for case in sorted(ROW_CASES)
        for command in sorted(ROW_COMMANDS)
        # --invert and --verma need a regular weight
        if case != "D5-singular-nonintegral" or command in BELOW_COMMANDS
    ],
)
def test_every_renderer_reads_rows_as_tuples(monkeypatch, case, command):
    letter, rank, theta, lam = ROW_CASES[case]
    data = ROW_COMMANDS[command](Job(letter, rank, theta, lam))

    def refuse(rows):
        raise RuntimeError(f"a renderer iterated the rows {rows.fields}")

    monkeypatch.setattr(_Rows, "__iter__", refuse)
    name = command.split()[0]
    assert _joined(render_json, data).startswith("{")
    for render in (render_text, render_latex):
        assert _joined(render, name, data).count("\n") > 1


def test_kl_rows_of_given_cosets_follow_their_order():
    # 7 of the 8 models list their global cosets out of ascending order
    lam = Weight.from_values([Fraction(-1, 2), -1, Fraction(-1, 2), Fraction(-1, 2)])
    data = run_klpolys(Job("D", 4, (1,), lam))
    rows = data["kl_polynomials"].rows
    full = list(rows())
    inds = [[c for *_, c in model["cosets"].rows()] for model in data["models"]]
    assert sum(ind != sorted(ind) for ind in inds) == 7 and len(inds) == 8
    for ind in inds:
        assert list(rows(ind)) == [row for c in ind for row in full if row[0] == c]
    assert sorted(chain.from_iterable(map(rows, inds))) == full
