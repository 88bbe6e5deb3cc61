"""The README's examples run: its library block, and every ``whitkl``
line of its CLI block through ``cli.main``."""

import re
import shlex
from pathlib import Path

import pytest

from whitkl.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(section: str, language: str) -> str:
    """The first fenced ``language`` block under the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


CLI_LINES = [
    line for line in _block("CLI", "sh").splitlines() if line.startswith("whitkl ")
]


def test_the_library_example_runs():
    exec(compile(_block("Library", "python"), str(README), "exec"), {})


def test_the_cli_block_has_examples():
    assert CLI_LINES


@pytest.mark.parametrize("line", CLI_LINES)
def test_the_cli_example_exits_0(capsys, line):
    code = main(shlex.split(line)[1:])
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), line
    assert out
