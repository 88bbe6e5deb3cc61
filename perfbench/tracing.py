"""The traced run: per-layer times and counts, from outside the program.

Spans are recorded around calls into each module's public functions, in
three phases of one process:

1. Replay.  The pipeline that ``build_kl_table`` wires is rebuilt from
   the public stage functions (``build_theta_cosets``, ``integral_data``,
   ``subgroup_bruhat``, ``build_integral_model``, ``kl_basis_model``,
   ``phi_transport``), one span per stage, followed by Path B
   (``phi_direct``).  No counters run here.
2. Command.  The workload's CLI command runs through ``whitkl.cli.main``
   with the functions it calls from the ``cli`` namespace wrapped in
   spans, and with counting wrappers on the class methods in ``COUNTED``.
3. Path B again, still counted, so that the counts cover what a query
   and a crosscheck call.

The replay guard then asserts that the replay's ``polys`` and ``phi``
equal those of the ``build_kl_table`` call made by the command, so a
change to the pipeline's wiring fails here instead of leaving the trace
measuring a different program.  Spans stay in memory and are returned
with the metrics.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

import workloads


class Tracer:
    """Nested spans as [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, parent, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()

    def wrap(self, func, name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)

        return wrapper

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)


def _counted_methods():
    from whitkl.cosetlab import ThetaCosets
    from whitkl.heckemodule import HeckeElt
    from whitkl.laurent import LaurentPoly
    from whitkl.weylgroup import WeylGroup

    return {
        "weylgroup.reflection_calls": (WeylGroup, "reflection"),
        "weylgroup.bruhat_leq_calls": (WeylGroup, "bruhat_leq"),
        "cosetlab.leq_calls": (ThetaCosets, "leq"),
        "heckemodule.elt_sub_calls": (HeckeElt, "__sub__"),
        "laurent.poly_constructions": (LaurentPoly, "__init__"),
    }


def _counter(func, counts: dict, key: str):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return func(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def counting(counts: dict):
    """Count calls of the methods in ``_counted_methods`` into ``counts``."""
    methods = _counted_methods()
    for key, (cls, name) in methods.items():
        counts.setdefault(key, 0)
        setattr(cls, name, _counter(cls.__dict__[name], counts, key))
    try:
        yield
    finally:
        for key, (cls, name) in methods.items():
            setattr(cls, name, cls.__dict__[name].__wrapped__)


# cli-namespace functions timed during the command, and their span names
CLI_SPANS = {
    "run_characters": "cli.command",
    "run_klpolys": "cli.command",
    "build_kl_table": "cli.build_kl_table",
    "stabilizer_data": "cosetlab.stabilizer_data",
    "regular_formula": "charformula.formula",
    "singular_formula": "charformula.formula",
    "invert_multiplicities": "charformula.invert",
    "render_json": "cli.render",
}


@contextlib.contextmanager
def spans_in_cli(tracer: Tracer, tables: list):
    """Wrap CLI_SPANS in spans; keep each table ``build_kl_table`` returns."""
    from whitkl import cli

    originals = {name: getattr(cli, name) for name in CLI_SPANS}

    def keep_table(*args, **kwargs):
        table = originals["build_kl_table"](*args, **kwargs)
        tables.append(table)
        return table

    for name, span_name in CLI_SPANS.items():
        func = keep_table if name == "build_kl_table" else originals[name]
        setattr(cli, name, tracer.wrap(func, span_name))
    try:
        yield
    finally:
        for name, func in originals.items():
            setattr(cli, name, func)


@dataclass
class Replay:
    tc: object
    idata: object
    models: list
    phi: dict
    polys: dict


def replay_pipeline(tracer: Tracer, group, theta, lam) -> Replay:
    """``build_kl_table``'s wiring, one span per stage."""
    from whitkl import build_integral_model, build_theta_cosets, integral_data
    from whitkl import kl_basis_model, phi_transport
    from whitkl.cosetlab import subgroup_bruhat

    with tracer.span("cosetlab.theta_cosets"):
        tc = build_theta_cosets(group, theta)
    with tracer.span("cosetlab.integral_data"):
        idata = integral_data(group, theta, lam)
    with tracer.span("cosetlab.subgroup_bruhat"):
        order = subgroup_bruhat(group, idata)
    with tracer.span("cosetlab.models"):
        models = [
            build_integral_model(tc, idata, u, order) for u in idata.a_theta_lambda
        ]
    with tracer.span("klengine.kl_basis_model"):
        bases = [kl_basis_model(model) for model in models]
    psi_by_u = {model.u: psi for model, (psi, _) in zip(models, bases)}
    with tracer.span("klengine.phi_transport"):
        phi = phi_transport(tc, models, psi_by_u)
    polys = {
        (model.ind[f], model.ind[g]): poly
        for model, (_, model_polys) in zip(models, bases)
        for (f, g), poly in model_polys.items()
    }
    return Replay(tc, idata, models, phi, polys)


def traced_run(workload, lam_text: str) -> dict:
    """Run the three phases; return per-layer metrics, failure and spans."""
    tracer = Tracer()
    from whitkl import build_root_system, enumerate_group, phi_direct
    from whitkl.cli import parse_lambda, parse_theta

    with tracer.span("weylgroup.enumerate"):
        group = enumerate_group(build_root_system(workload.letter, workload.rank))
    theta = parse_theta(workload.theta, workload.rank)
    lam = parse_lambda(lam_text, workload.rank)

    replay = replay_pipeline(tracer, group, theta, lam)
    with tracer.span("klengine.phi_direct"):
        direct = phi_direct(replay.tc, lam)

    counts: dict[str, int] = {}
    tables: list = []
    with counting(counts):
        with spans_in_cli(tracer, tables), tracer.span("cli.main"):
            code, output = workloads.run_cli(workload.argv(lam_text))
        phi_direct(replay.tc, lam)

    failure = workloads.check_output(workload, lam_text, code, output)
    if failure is None and len(tables) != 1:
        failure = f"command called build_kl_table {len(tables)} times, not once"
    if failure is None and (
        tables[0].polys != replay.polys or tables[0].phi != replay.phi
    ):
        failure = "replay guard: replayed polys/phi differ from build_kl_table"
    if failure is None and direct != replay.phi:
        failure = "Path A phi != Path B phi"

    polys = list(replay.polys.values())
    command_s = tracer.total("cli.command")
    metrics = {
        "weylgroup.enumerate_s": (tracer.total("weylgroup.enumerate"), "s"),
        "weylgroup.group_size": (group.size, "count"),
        "weylgroup.reflection_calls": (counts["weylgroup.reflection_calls"], "count"),
        "weylgroup.bruhat_leq_calls": (counts["weylgroup.bruhat_leq_calls"], "count"),
        "cosetlab.theta_cosets_s": (tracer.total("cosetlab.theta_cosets"), "s"),
        "cosetlab.integral_data_s": (tracer.total("cosetlab.integral_data"), "s"),
        "cosetlab.subgroup_bruhat_s": (tracer.total("cosetlab.subgroup_bruhat"), "s"),
        "cosetlab.models_s": (tracer.total("cosetlab.models"), "s"),
        "cosetlab.stabilizer_data_s": (tracer.total("cosetlab.stabilizer_data"), "s"),
        "cosetlab.leq_calls": (counts["cosetlab.leq_calls"], "count"),
        "cosetlab.cosets": (replay.tc.n_cosets, "count"),
        "cosetlab.models": (len(replay.models), "count"),
        "cosetlab.max_model_cosets": (
            max(m.n_cosets for m in replay.models),
            "count",
        ),
        "cosetlab.w_lambda_size": (len(replay.idata.w_lambda_ids), "count"),
        "klengine.kl_basis_model_s": (tracer.total("klengine.kl_basis_model"), "s"),
        "klengine.phi_transport_s": (tracer.total("klengine.phi_transport"), "s"),
        "klengine.phi_direct_s": (tracer.total("klengine.phi_direct"), "s"),
        "klengine.polys": (len(polys), "count"),
        "klengine.distinct_polys": (len(set(polys)), "count"),
        "klengine.max_degree": (max(p.max_exp() for p in polys), "count"),
        "klengine.max_abs_coeff": (
            max(abs(c) for p in polys for _, c in p.items()),
            "count",
        ),
        "heckemodule.elt_sub_calls": (counts["heckemodule.elt_sub_calls"], "count"),
        "laurent.poly_constructions": (counts["laurent.poly_constructions"], "count"),
        "charformula.formula_s": (tracer.total("charformula.formula"), "s"),
        "charformula.invert_s": (tracer.total("charformula.invert"), "s"),
        "cli.command_s": (command_s, "s"),
        "cli.assemble_s": (command_s - tracer.total("cli.build_kl_table"), "s"),
        "cli.render_s": (tracer.total("cli.render"), "s"),
        "cli.output_bytes": (len(output), "count"),
        "trace.query_s": (tracer.total("cli.main"), "s"),
    }
    return {
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "failure": failure,
        "spans": tracer.spans,
    }
