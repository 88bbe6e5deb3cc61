"""Every CLI document over the rank <= 3 types matches the committed digest
manifest (``tests/cli_manifest.txt``, written by
``tests/make_cli_manifest.py``)."""

import json
import time

from make_cli_manifest import MANIFEST, argvs, entry


def test_every_document_matches_the_manifest():
    expected = MANIFEST.read_text(encoding="utf-8").splitlines()
    cases = argvs()
    assert [json.loads(line.split(" ", 3)[3]) for line in expected] == cases
    start = time.perf_counter()
    for argv, line in zip(cases, expected):
        got = entry(argv)
        assert got == line, f"first differing argv: {argv}\n  got      {got}\n  expected {line}"
    assert time.perf_counter() - start < 20
