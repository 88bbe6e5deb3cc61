"""Tests of the benchmark itself, on the small A3 golden workload.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

A3 = workloads.WORKLOADS["a3-golden"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the golden weight with its third coordinate moved onto a wall
OFF_CLASS_LAMBDA = "-5-4*t1,-5+4*t1,0"


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc, proc.stdout.splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_reports_every_metric_with_its_unit(trace, section):
    proc, lines = run_bench(
        "--workload", "a3-golden", "--seed", "1", "--seconds", "0.1",
        "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if section == "end_to_end":
            assert metric["value"] > 0, name
    text = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert name in text and unit in text
    assert "failed_ratio" in text
    record = json.loads(next(x for x in lines if x.startswith("record: "))[8:])
    for key in ("lambda", "git_sha", "python", "nproc", "loadavg_before",
                "loadavg_after"):
        assert key in record


def test_seeds_move_lambda_within_its_class_and_keep_the_digest():
    texts = {workloads.draw_lambda(A3, seed) for seed in range(1, 9)}
    assert len(texts) > 1
    for lam_text in texts:
        assert workloads.in_class(A3, lam_text)
    for lam_text in sorted(texts)[:2]:
        code, output = workloads.run_cli(A3.argv(lam_text))
        assert workloads.check_output(A3, lam_text, code, output) is None
        assert workloads.output_digest(output.decode()) == A3.digest


def test_corrupted_output_is_a_failure():
    lam_text = workloads.draw_lambda(A3, 3)
    code, output = workloads.run_cli(A3.argv(lam_text))
    assert workloads.check_output(A3, lam_text, code, output) is None
    data = json.loads(output)
    data["characters"][0]["entries"][0]["coeff"] += 1
    corrupted = json.dumps(data).encode()
    assert "digest" in workloads.check_output(A3, lam_text, code, corrupted)
    assert "unreadable" in workloads.check_output(A3, lam_text, code, output[:-9])
    assert "exit code" in workloads.check_output(A3, lam_text, 1, output)
    # only the context block may differ between seeds
    data = json.loads(output)
    data["context"]["lambda"] = "anything"
    relabelled = json.dumps(data).encode()
    assert workloads.check_output(A3, lam_text, code, relabelled) is None


def test_class_breaking_lambda_counts_as_failure():
    assert not workloads.in_class(A3, OFF_CLASS_LAMBDA)
    runner = run.Runner(A3.name, OFF_CLASS_LAMBDA)
    medians = run.measure(runner, seconds=0)
    failures = [op for op in runner.ops if op["failure"] is not None]
    assert runner.failed == len(failures) == 1
    assert failures[0]["mode"] == "query" and "class" in failures[0]["failure"]
    # a failed query's timings are discarded, and the warm-up's are not kept
    assert all(value is None for value, _ in medians.values())


def test_checkout_without_sources_is_refused(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for source in HERE.iterdir():
        if source.is_file():
            (tmp_path / "perfbench" / source.name).write_bytes(source.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "a3-golden",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
