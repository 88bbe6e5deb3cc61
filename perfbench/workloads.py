"""Workload definitions, the seeded weight generator and the output check.

A workload fixes a root system, a subset Theta of simple roots, a CLI
command and a base weight.  A seed moves the weight only within its
class: it subtracts a dominant integral weight mu and scales the
transcendental directions by a nonzero rational.  A draw that changes
the integral root set, the zero-root set or the
antidominant/regular/integral flags is rejected, so the coset tables,
models and polynomials -- and the digest of the output without its
``context`` block -- are the same for every seed.

At module level this file imports only what the interpreter has already
loaded at start-up; whitkl and the modules it shares with this file
(json, fractions, dataclasses, ...) are imported inside functions.  A
worker imports it before timing ``import whitkl``, and the timing must
include those imports.
"""

from collections import namedtuple

MAX_DRAWS = 200

_Fields = namedtuple(
    "_Fields",
    [
        "name",
        "type_name",  # e.g. "F4"
        "theta",  # CLI --theta text
        "base_lambda",  # CLI --lambda text
        "command",  # subcommand and its flags
        "digest",  # SHA-256 of the output without "context"
    ],
)


class Workload(_Fields):
    __slots__ = ()

    @property
    def letter(self) -> str:
        return self.type_name[0]

    @property
    def rank(self) -> int:
        return int(self.type_name[1:])

    def argv(self, lam_text: str) -> list[str]:
        return [
            "--type",
            self.type_name,
            "--theta",
            self.theta,
            f"--lambda={lam_text}",
            "--format",
            "json",
            *self.command,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="regular-block",
            type_name="F4",
            theta="α",
            base_lambda="-1,-1,-1,-1",
            command=("characters", "--invert"),
            digest="636e84b6095aa528350526bfc32280672cb15acfbd7344de4916651a627a2f8f",
        ),
        Workload(
            name="singular-nonintegral",
            type_name="D5",
            theta="",
            base_lambda="0,-1+1*t1,-1/2,-1-1*t1,-1",
            command=("characters",),
            digest="41b079b2fee04c0056f42784515daba9f935bf81424c1ce541a32733634d42b1",
        ),
        # runs by name; not in BENCHMARK.json, see README.md
        Workload(
            name="parabolic-e6",
            type_name="E6",
            theta="β,γ,δ,ε,ζ",
            base_lambda="-1-1*t1,-1-1*t1,-1,-1,-1,-1",
            command=("klpolys",),
            digest="d4dcbe96a2df976bcc100efca4359bc650aed2e49958b2a1b575bcd0f14a30cc",
        ),
        # the README's golden case, for the benchmark's own tests only
        Workload(
            name="a3-golden",
            type_name="A3",
            theta="α,β",
            base_lambda="-5-4*t1,-5+4*t1,-5",
            command=("characters", "--invert"),
            digest="f1fd93cd6eb4464d157730c2423cec7ee0f5414a5116a75c18b8c9604eac4501",
        ),
    )
}


def class_signature(rs, lam) -> tuple:
    """What a seed may not change: integral and zero positive roots, flags."""
    from whitkl.rootsystem import is_integer, is_zero, pair, weight_flags

    values = [pair(rs, r, lam) for r in range(rs.positive_root_count)]
    flags = weight_flags(rs, lam)
    return (
        tuple(r for r, v in enumerate(values) if is_integer(v)),
        tuple(r for r, v in enumerate(values) if is_zero(v)),
        (flags.antidominant, flags.regular, flags.integral),
    )


def in_class(workload: Workload, lam_text: str) -> bool:
    """Whether the weight has the class of the workload's base weight."""
    from whitkl.cli import parse_lambda
    from whitkl.rootsystem import build_root_system

    rs = build_root_system(workload.letter, workload.rank)
    return class_signature(rs, parse_lambda(lam_text, workload.rank)) == (
        class_signature(rs, parse_lambda(workload.base_lambda, workload.rank))
    )


def draw_lambda(workload: Workload, seed: int) -> str:
    """The seed's weight, as CLI --lambda text, guarded to stay in class."""
    import random
    from fractions import Fraction

    from whitkl.cli import parse_lambda, weight_name
    from whitkl.rootsystem import Weight, build_root_system

    rs = build_root_system(workload.letter, workload.rank)
    base = parse_lambda(workload.base_lambda, workload.rank)
    want = class_signature(rs, base)
    rng = random.Random(f"{workload.name}/{seed}")
    for _ in range(MAX_DRAWS):
        mu = [rng.randint(0, 3) for _ in range(workload.rank)]
        scale = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        lam = Weight(
            tuple(
                (rational - m, tuple(c * scale for c in tvec))
                for (rational, tvec), m in zip(base.coords, mu)
            ),
            base.n_transcendentals,
        )
        if class_signature(rs, lam) == want:
            return weight_name(lam)
    raise RuntimeError(f"no in-class weight for {workload.name} seed {seed}")


def output_digest(text: str) -> str:
    """SHA-256 of the CLI's JSON output with the ``context`` key removed."""
    import hashlib
    import json

    data = json.loads(text)
    data.pop("context", None)
    canonical = json.dumps(
        data, ensure_ascii=False, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_cli(argv):
    """Run ``whitkl.cli.main`` in-process; returns (exit code, stdout bytes)."""
    import contextlib
    import io

    from whitkl import cli

    sink = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
        sink.flush()
    return code, sink.buffer.getvalue()


def check_output(workload: Workload, lam_text: str, code: int, output: bytes):
    """None when a command's result is correct, else the reason it is not."""
    if not in_class(workload, lam_text):
        return f"lambda {lam_text} left the workload's class"
    if code != 0:
        return f"exit code {code}"
    try:
        digest = output_digest(output.decode("utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        return f"unreadable output: {exc}"
    if digest != workload.digest:
        return f"digest {digest} != recorded {workload.digest}"
    return None
