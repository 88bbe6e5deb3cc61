"""One measurement in a fresh process; prints one JSON object on stdout.

Usage: python3 perfbench/worker.py {setup,query,trace} WORKLOAD LAMBDA

Run with ``src`` on PYTHONPATH.  Every mode first times the set-up a CLI
invocation pays before any Theta- or lambda-specific work: ``import
whitkl``, ``build_root_system`` and ``enumerate_group``.

* ``setup``: only that.
* ``query``: then the workload's CLI command, in-process through
  ``whitkl.cli.main`` with stdout captured; peak RSS is read right after.
  Then, timed as one, the README's agreement check on the command's own
  Path-A result: Path B (``phi_direct``) and the comparison of its phi
  with the phi of the ``build_kl_table`` call the command made.  It is
  repeated until ``CROSSCHECK_MIN_S`` is spent, and ``crosscheck_s`` is
  the median of the repeats.
* ``trace``: see tracing.py.

Outputs are checked after the timed regions: exit code 0, the digest
recorded for the workload, Path A = Path B, and the weight's class.
"""

# Only modules loaded at interpreter start-up are imported before the
# set-up timer; the rest is imported after it (see workloads.py).
import sys
import time

import workloads

# the crosscheck repeats in its process until it has taken this long
CROSSCHECK_MIN_S = 4.0


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload):
    start = time.perf_counter()
    import whitkl

    group = whitkl.enumerate_group(
        whitkl.build_root_system(workload.letter, workload.rank)
    )
    return time.perf_counter() - start, group


def mode_setup(workload, lam_text):
    setup_s, _ = timed_setup(workload)
    return {"setup_s": setup_s, "failure": None}


def mode_query(workload, lam_text):
    import gc

    setup_s, group = timed_setup(workload)
    del group  # so that the query's peak RSS does not include it
    gc.collect()
    import statistics

    from whitkl import cli, phi_direct  # imported before the timers

    path_a = []  # (cosets, phi) of each build_kl_table call the command makes
    build_kl_table = cli.build_kl_table

    def keep_phi(*args, **kwargs):
        table = build_kl_table(*args, **kwargs)
        path_a.append((table.tc, table.phi))
        return table

    cli.build_kl_table = keep_phi
    argv = workload.argv(lam_text)
    start = time.perf_counter()
    code, output = workloads.run_cli(argv)
    query_s = time.perf_counter() - start
    rss = peak_rss_mb()
    cli.build_kl_table = build_kl_table

    failure = workloads.check_output(workload, lam_text, code, output)
    crosscheck = []
    if failure is None and len(path_a) != 1:
        failure = f"command called build_kl_table {len(path_a)} times, not once"
    if failure is None:
        tc, phi = path_a[0]
        lam = cli.parse_lambda(lam_text, workload.rank)
        # a short window is at the mercy of the machine's speed phases
        while sum(crosscheck) < CROSSCHECK_MIN_S:
            start = time.perf_counter()
            direct = phi_direct(tc, lam)
            agree = all(direct[c] == phi[c] for c in range(tc.n_cosets))
            crosscheck.append(time.perf_counter() - start)
            if not agree:
                failure = "Path A phi != Path B phi"
                break
    return {
        "setup_s": setup_s,
        "query_s": query_s,
        "crosscheck_s": statistics.median(crosscheck) if crosscheck else None,
        "crosscheck_repeats": len(crosscheck),
        "peak_rss_mb": rss,
        "output_bytes": len(output),
        "failure": failure,
    }


def mode_trace(workload, lam_text):
    import tracing

    return tracing.traced_run(workload, lam_text)


MODES = {
    "setup": mode_setup,
    "query": mode_query,
    "trace": mode_trace,
}


def main(argv) -> int:
    if len(argv) != 3 or argv[0] not in MODES or argv[1] not in workloads.WORKLOADS:
        sys.stderr.write(__doc__.splitlines()[2] + "\n")
        return 2
    mode, name, lam_text = argv
    result = MODES[mode](workloads.WORKLOADS[name], lam_text)
    import json

    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
