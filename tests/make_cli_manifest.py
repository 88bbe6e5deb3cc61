"""The CLI digest manifest: exit code and SHA-256 of stdout and stderr for
every command, flag and format over the rank <= 3 types, every Theta, and
four weights per type (-rho, singular integral, non-integral,
transcendental).  ``verify``, which takes two thirds of the time of all
the rest and writes no rendered document, runs at the empty Theta only,
in text and JSON (its LaTeX is its text).

``tests/test_cli_manifest.py`` recomputes the manifest and names the
first argv whose entry differs.  Regenerate it, after a change that is
meant to change output, with::

    PYTHONPATH=src python tests/make_cli_manifest.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

from whitkl.cli import GREEK, main

MANIFEST = Path(__file__).with_name("cli_manifest.txt")

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("G", 2)]

COMMANDS = [
    ["info"],
    ["cosets"],
    ["klpolys"],
    ["characters"],
    ["characters", "--invert"],
    ["characters", "--verma"],
]

FORMATS = ["text", "json", "latex"]


def weights(rank: int) -> list[str]:
    """-rho, a singular integral, a non-integral and a transcendental weight."""
    rest = ["-1"] * (rank - 1)
    transcendental = ["-1+1*t1", "-1-1*t1"][:rank] + rest[1:]
    return [
        ",".join(["-1"] + rest),
        ",".join(["0"] + rest),
        ",".join(["-1/2"] + rest),
        ",".join(transcendental),
    ]


def argvs() -> list[list[str]]:
    out = []
    for letter, rank in TYPES:
        thetas = [
            ",".join(GREEK[i] for i in subset)
            for size in range(rank + 1)
            for subset in combinations(range(rank), size)
        ]
        for theta in thetas:
            for lam in weights(rank):
                commands = COMMANDS + [["verify"]] * (not theta)
                for command in commands:
                    for fmt in FORMATS:
                        if command != ["verify"] or fmt != "latex":
                            out.append(
                                ["--type", f"{letter}{rank}", "--theta", theta,
                                 f"--lambda={lam}", "--format", fmt, *command]
                            )
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``main(argv)``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def entry(argv: list[str]) -> str:
    """One manifest line: exit code, SHA-256 of stdout and of stderr, argv."""
    code, *streams = run(argv)
    digests = (hashlib.sha256(text.encode()).hexdigest() for text in streams)
    return " ".join([str(code), *digests, json.dumps(argv, ensure_ascii=False)])


def manifest() -> list[str]:
    return [entry(argv) for argv in argvs()]


if __name__ == "__main__":
    lines = manifest()
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} entries to {MANIFEST}", file=sys.stderr)
