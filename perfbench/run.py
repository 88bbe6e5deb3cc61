"""whitkl's benchmark: one command, every metric by name with its unit.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Each operation runs in a fresh single-threaded Python process
(worker.py), one process at a time, with ``src`` on PYTHONPATH and a
fixed hash seed.  The seed picks the workload's weight (workloads.py).

``--trace 0`` starts with one set-up-only process as a warm-up, then
repeats one query process (which also runs the crosscheck) followed by
two set-up-only processes, at least once, and as long as one more
repetition brings the run's length nearer to ``--seconds``.  It reports
the medians of ``setup_s``, ``query_s``, ``crosscheck_s`` and
``peak_rss_mb`` over the repetitions.
``--trace 1`` runs one untraced query and one traced process
(tracing.py) and reports the per-layer metrics and the tracing overhead.

Every operation is checked (exit code, output digest, Path A = Path B,
the weight's class, and in the traced run the replay guard); a failed
operation contributes no timings and counts in
``failed_ratio``.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the metrics for reading and one ``record:`` line with the
weight, the environment and every operation.  The exit code is 0 when
every operation passed, 1 when one failed, 2 on a usage error or when
the checkout holds no ``src/whitkl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_LIMIT_S = 170  # every run ends well within the 180 s a run may take
SETUPS_PER_REPETITION = 2

END_TO_END = {
    "setup_s": "s",
    "query_s": "s",
    "crosscheck_s": "s",
    "peak_rss_mb": "MB",
}


def worker_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        PYTHONHASHSEED="0",
    )


class Runner:
    """Spawns workers one at a time, under one deadline for the whole run."""

    def __init__(self, workload: str, lam_text: str):
        self.workload = workload
        self.lam_text = lam_text
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.ops: list[dict] = []

    def spawn(self, mode: str) -> dict:
        load_before = os.getloadavg()
        started = time.monotonic()
        timeout = max(1.0, self.deadline - started)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), mode, self.workload,
                 self.lam_text],
                cwd=ROOT,
                env=worker_env(),
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            result = {"failure": f"timed out after {timeout:.0f} s"}
        else:
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                result = {"failure": f"exit code {proc.returncode}: {tail[0]}"}
            else:
                result = json.loads(proc.stdout.splitlines()[-1])
        result["mode"] = mode
        result["wall_s"] = time.monotonic() - started
        result["loadavg"] = [load_before, os.getloadavg()]
        self.ops.append(result)
        return result

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["failure"] is not None)


def median_of(ops, key):
    values = [op[key] for op in ops if op["failure"] is None and key in op]
    return (statistics.median(values) if values else None), len(values)


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: a warm-up, then repetitions until ``seconds`` is used."""
    runner.spawn("setup")  # not kept: compiles and caches the sources
    kept = []
    started = time.monotonic()
    while True:
        repetition_started = time.monotonic()
        query = runner.spawn("query")
        if query["failure"] is None:
            kept.append(query)
            for _ in range(SETUPS_PER_REPETITION):
                op = runner.spawn("setup")
                if op["failure"] is None:
                    kept.append(op)
        now = time.monotonic()
        # stop where the run ends nearest to ``seconds``
        if now - started + (now - repetition_started) / 2 > seconds:
            break
    return {name: median_of(kept, name) for name in END_TO_END}


def trace(runner: Runner) -> tuple[dict, list]:
    """Traced run: one untraced query for the overhead, one traced process."""
    query = runner.spawn("query")
    traced = runner.spawn("trace")
    if traced["failure"] is not None and "metrics" not in traced:
        return {}, []
    metrics = traced.pop("metrics")
    if query["failure"] is None:
        ratio = metrics["trace.query_s"]["value"] / query["query_s"]
    else:
        ratio = None
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics, traced.pop("spans")


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "whitkl" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no whitkl sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(workloads.WORKLOADS)}\n"
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    lam_text = workloads.draw_lambda(workload, args.seed)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "lambda": lam_text,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }
    runner = Runner(workload.name, lam_text)
    print(f"workload {workload.name}  seed {args.seed}  lambda {lam_text}")
    if args.trace:
        metrics, record["spans"] = trace(runner)
        for name, metric in metrics.items():
            print(f"  {name:28} {metric['value']!s:>22} {metric['unit']}")
    else:
        medians = measure(runner, args.seconds)
        metrics = {}
        for name, unit in END_TO_END.items():
            value, count = medians[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:14} {value!s:>22} {unit:5} median of {count}")
    attempted, failed = len(runner.ops), runner.failed
    print(f"  {'failed_ratio':14} {failed / attempted:>22} ratio "
          f"{failed} of {attempted} operations")
    for op in runner.ops:
        if op["failure"] is not None:
            print(f"  FAILED {op['mode']}: {op['failure']}")
    record["loadavg_after"] = os.getloadavg()
    record["ops"] = runner.ops
    print("record: " + json.dumps(record, ensure_ascii=False))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
