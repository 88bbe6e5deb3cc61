"""Command-line surface: parse a job, run the pipeline, emit tables.

Subcommands: info, cosets, klpolys, characters, verify.  Each builds a
document that one renderer per format writes: text (default), json or
latex.  All output is byte-stable for identical inputs: orderings are
fixed everywhere and no randomness is involved.

Output is streamed: the document is written to stdout in bounded chunks
as it is rendered, never held whole.  Its long lists are not held either:
the KL polynomials, the cosets, each model's cosets, and the entries of
each character and multiplicity row, are row sequences (``_Rows``) whose
``rows()`` reads the table, the cosets, the formula or the inverse afresh
as value tuples, which every renderer reads; each coset's ``below`` list
(``_Below``) is read off its ideal bitset.  Each element's entry
(``_Shared``) is made once per job and shared by every row naming it.
The JSON writer writes such a sequence's rows as the pieces all rows
share around their values' texts, each distinct value's text made once.
Every error is found before the first byte is written, so a failing
command prints nothing on stdout.  A reader that closes the pipe early
(``whitkl ... | head``) ends the command quietly with its usual exit code.

Exit codes: 0 ok, 1 input error, 2 verification failure, 3 internal error
(a broken invariant, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache, partial
from itertools import chain, compress, groupby, islice, repeat
from json.encoder import encode_basestring
from operator import itemgetter, lshift, xor

from . import laurent
from .charformula import (
    invert_multiplicities,
    regular_formula,
    singular_formula,
    verma_formula,
)
from .cosetlab import _bits, _flags, stabilizer_data
from .heckemodule import SpaceMismatchError
from .klengine import build_kl_table, build_models
from .rootsystem import Weight, build_root_system, weight_flags
from .weylgroup import enumerate_group

__all__ = ["main", "parse_lambda", "parse_theta", "parse_output"]

GREEK = ["α", "β", "γ", "δ", "ε", "ζ"]
GREEK_NAMES = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]

MAX_TRANSCENDENTALS = 4


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# parsing


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?P<num>\d+)(?:/(?P<den>\d+))?\s*"
    r"(?:\*\s*t(?P<tk>\d+))?\s*",
    re.ASCII,
)


def parse_lambda(text: str, rank: int) -> Weight:
    """Parse comma-separated coordinate expressions into an exact Weight.

    Each coordinate is a sum of terms ``<rational>`` or ``<rational>*t<k>``
    giving the value of the i-th simple coroot on lambda.
    """
    pieces = text.split(",")
    if len(pieces) != rank:
        raise InputError(
            f"lambda has {len(pieces)} coordinates but the rank is {rank}"
        )
    offset = 0
    coords = []
    max_k = 0
    for piece in pieces:
        if not piece.strip():
            raise InputError(f"empty coordinate at position {offset}")
        rational = Fraction(0)
        tcoeffs: dict[int, Fraction] = {}
        pos = 0
        first = True
        while pos < len(piece):
            m = _TERM_RE.match(piece, pos)
            if not m or m.end() == pos:
                raise InputError(
                    f"syntax error at position {offset + pos}: "
                    f"cannot read a term in {piece.strip()!r}"
                )
            if m.group("sign") is None and not first:
                raise InputError(
                    f"syntax error at position {offset + pos}: missing +/- "
                    f"between terms"
                )
            sign = -1 if m.group("sign") == "-" else 1
            den = int(m.group("den") or 1)
            if den == 0:
                raise InputError(
                    f"zero denominator at position {offset + m.start('den')}"
                )
            value = Fraction(int(m.group("num")), den) * sign
            if m.group("tk") is not None:
                k = int(m.group("tk"))
                if not 1 <= k <= MAX_TRANSCENDENTALS:
                    raise InputError(
                        f"transcendental index t{k} at position {offset + pos} "
                        f"out of range 1..{MAX_TRANSCENDENTALS}"
                    )
                tcoeffs[k] = tcoeffs.get(k, Fraction(0)) + value
                max_k = max(max_k, k)
            else:
                rational += value
            pos = m.end()
            first = False
        coords.append((rational, tcoeffs))
        offset += len(piece) + 1
    return Weight.from_values(
        [
            (
                rational,
                tuple(tcoeffs.get(k, Fraction(0)) for k in range(1, max_k + 1)),
            )
            for rational, tcoeffs in coords
        ],
        n_transcendentals=max_k,
    )


def parse_theta(text: str, rank: int) -> tuple[int, ...]:
    """Simple-root names (α/alpha/...) or 1-based indices, comma-separated."""
    if text is None or not text.strip():
        return ()
    indices = []
    for piece in text.split(","):
        name = piece.strip()
        if not name:
            continue
        if name in GREEK:
            idx = GREEK.index(name)
        elif name.lower() in GREEK_NAMES:
            idx = GREEK_NAMES.index(name.lower())
        elif name.isascii() and name.isdigit():
            idx = int(name) - 1
        else:
            raise InputError(f"unknown simple root {name!r}")
        if not 0 <= idx < rank:
            raise InputError(f"simple root {name!r} out of range for rank {rank}")
        indices.append(idx)
    return tuple(sorted(set(indices)))


def parse_type(text: str):
    m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", text, re.ASCII)
    if not m:
        raise InputError(f"cannot parse type {text!r}; expected e.g. A3, B2, G2")
    return m.group(1).upper(), int(m.group(2))


# ---------------------------------------------------------------------------
# rendering helpers


def root_name(rs, root_index: int) -> str:
    coords = rs.roots[root_index]
    parts = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        letter = GREEK[i]
        if c == 1:
            term = letter
        elif c == -1:
            term = f"-{letter}"
        else:
            term = f"{c}{letter}"
        if parts and c > 0:
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts) or "0"


def elt_name(group, elt_id: int) -> str:
    word = group.elements[elt_id].word
    if not word:
        return "e"
    return " ".join(f"s_{GREEK[i]}" for i in word)


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def weight_name(lam: Weight) -> str:
    parts = []
    for rational, tvec in lam.coords:
        terms = [_frac(rational)]
        for k, c in enumerate(tvec, start=1):
            if c == 0:
                continue
            sign = "+" if c > 0 else "-"
            terms.append(f"{sign}{_frac(abs(c))}*t{k}")
        parts.append("".join(terms))
    return ",".join(parts)


# ---------------------------------------------------------------------------
# job execution


class Job:
    def __init__(self, type_letter, rank, theta, lam):
        self.rs = build_root_system(type_letter, rank)
        self.group = enumerate_group(self.rs)
        self.theta = theta
        self.lam = lam
        self.elements = _Elements(self.group)
        if lam is not None and lam.rank != rank:
            raise InputError(
                f"lambda has rank {lam.rank} but the root system has rank {rank}"
            )

    def context(self) -> dict:
        flags = weight_flags(self.rs, self.lam) if self.lam is not None else None
        return {
            "type": f"{self.rs.type_letter}{self.rs.rank}",
            "rank": self.rs.rank,
            "theta": [GREEK[i] for i in self.theta],
            "theta_indices": list(self.theta),
            "lambda": weight_name(self.lam) if self.lam is not None else None,
            "flags": None
            if flags is None
            else {
                "antidominant": flags.antidominant,
                "regular": flags.regular,
                "integral": flags.integral,
            },
        }


class _Elements(dict):
    """Each element's entry, {"word": ..., "name": ...}, by element id: made
    on first use, once per job, and shared by every row that names it."""

    def __init__(self, group):
        self.group = group

    def __missing__(self, w) -> _Shared:
        word = self.group.elements[w].word
        entry = self[w] = _Shared(word=list(word), name=elt_name(self.group, w))
        return entry


def _coset_rows(job, tc) -> _Rows:
    """The rows of tc's cosets: id, longest, shortest, length, below."""
    entry = job.elements.__getitem__
    longest = list(map(entry, tc.longest))
    shortest = list(map(entry, tc.shortest))
    ids = range(tc.n_cosets)
    # built here, so that a broken order fails before the first byte
    ideals = list(map(tc.ideal, ids))

    def rows():
        # the strict lower ideal: bit C of C's own ideal cleared
        below = map(xor, ideals, map(lshift, repeat(1), ids))
        return zip(ids, longest, shortest, tc.lengths, map(_Below, below))

    return _Rows(("id", "longest", "shortest", "length", "below"), rows, len(ids))


def _model_entry(job, model):
    quotient = model.quotient
    longest = list(map(job.elements.__getitem__, quotient.longest))
    return {
        "u": job.elements[model.u],
        "theta_u_lambda": [root_name(job.rs, r) for r in model.theta_u_lambda],
        "cosets": _Rows(
            ("id", "longest", "length_lambda", "global"),
            partial(zip, range(len(longest)), longest, quotient.lengths, model.ind),
            len(longest),
        ),
    }


def run_info(job):
    tc, idata, models = build_models(job.group, job.theta, job.lam)
    data = {
        "context": job.context(),
        "sigma_lambda_pos": [root_name(job.rs, r) for r in idata.sigma_lambda_pos],
        "pi_lambda": [root_name(job.rs, r) for r in idata.pi_lambda],
        "a_lambda": [job.elements[u]["name"] for u in idata.a_lambda],
        "a_theta_lambda": [job.elements[u]["name"] for u in idata.a_theta_lambda],
        "cosets": _coset_rows(job, tc),
        "models": [_model_entry(job, m) for m in models],
    }
    return data


def run_cosets(job):
    data = run_info(job)
    for key in ("sigma_lambda_pos", "pi_lambda", "a_lambda", "a_theta_lambda"):
        del data[key]
    return data


def run_klpolys(job):
    table = build_kl_table(job.group, job.theta, job.lam)
    data = {
        "context": job.context(),
        "cosets": _coset_rows(job, table.tc),
        "models": [_model_entry(job, m) for m in table.models],
        "kl_polynomials": _Rows(
            ("c", "d", "poly"), partial(_kl_rows, table), len(table.polys)
        ),
    }
    return data


def _kl_rows(table, cosets=None):
    """(C, D, text of P_CD) for the given cosets C in their order, or for every
    coset in the order of ``sorted(table.polys.items())``, one coset's row at a
    time; each polynomial object's text is made once, and the table keeps
    every object alive, so an id names one polynomial."""
    texts: dict[int, str] = {}
    phi = table.phi
    for c in range(table.tc.n_cosets) if cosets is None else cosets:
        for d, poly in sorted(phi[c].coeffs.items()):
            text = texts.get(id(poly))
            if text is None:
                text = texts[id(poly)] = poly.text()
            yield c, d, text


_first, _second = itemgetter(0), itemgetter(1)


def _named_entries(name, row):
    """(name(D), D, coeff) over a formula row of (D, coeff) pairs."""
    return zip(map(name, map(_first, row)), map(_first, row), map(_second, row))


def _nonzero_entries(names, labels, row):
    """(names[j], labels[j], coeff) over the nonzero entries of a row."""
    return zip(compress(names, row), compress(labels, row), compress(row, row))


def run_characters(job, invert=False, verma=False, multiplicities=True):
    """``invert`` requires a regular formula, inverted if ``multiplicities``."""
    group = job.group
    context = job.context()
    if verma:
        table = build_kl_table(group, (), job.lam)
        cf = verma_formula(table)
        # report the empty theta that --verma used
        context.update(theta=[], theta_indices=[])
    else:
        table = build_kl_table(group, job.theta, job.lam)
        flags = weight_flags(job.rs, job.lam)
        if flags.regular:
            cf = regular_formula(table)
        else:
            stab = stabilizer_data(group, job.theta, job.lam)
            cf = singular_formula(table, stab)

    # each entry's label is the label of a row
    longest = table.tc.longest if cf.label_kind == "coset" else None
    names = {
        x: job.elements[x if longest is None else longest[x]]["name"]
        for x in cf.labels
    }
    name = names.__getitem__

    data = {
        "context": context,
        "cosets": _coset_rows(job, table.tc),
        "models": [_model_entry(job, m) for m in table.models],
        "characters": [
            {
                "irreducible": names[x],
                "irreducible_id": x,
                "entries": _Rows(
                    ("standard", "standard_id", "coeff"),
                    partial(_named_entries, name, cf.rows[x]),
                    len(cf.rows[x]),
                ),
            }
            for x in cf.labels
        ],
    }
    if invert and cf.mode != "regular":
        raise InputError("--invert needs a regular-mode character formula")
    if invert and multiplicities:
        inverse = invert_multiplicities(cf)
        labels = cf.labels
        ordered = [names[x] for x in labels]
        data["multiplicities"] = [
            {
                "standard": ordered[i],
                "standard_id": labels[i],
                "entries": _Rows(
                    ("irreducible", "irreducible_id", "coeff"),
                    partial(_nonzero_entries, ordered, labels, row),
                    len(row) - row.count(0),
                ),
            }
            for i, row in enumerate(inverse)
        ]
    return data


def run_verify(job):
    # the oracle stays off the path of every other command
    from .oracle import verify

    report = verify(job.group, job.theta, job.lam)
    # each check as {"name", "scope", "passed", "counterexample"}
    return {"passed": report.passed, "checks": list(map(asdict, report.checks))}


# ---------------------------------------------------------------------------
# output formatting
#
# Each renderer hands its document to a sink, a callable such as
# ``sys.stdout.write``, in chunks, so that no format ever holds the whole
# text of a large document.  The JSON writer flushes once its piece list
# holds _CHUNK_PIECES pieces, or its rows' pieces _CHUNK_CHARS characters;
# the text and LaTeX writers once their lines hold _CHUNK_CHARS
# characters.  A document's long lists are _Rows, made as they are read.

_CHUNK_PIECES = 2048
_CHUNK_CHARS = 1 << 16


class _Rows(list):
    """A list of flat rows with the keys ``fields``, made as they are read
    and never held: ``rows()`` gives a fresh iterator of value tuples in the
    order of ``fields``, and is how every renderer reads them.
    ``render_json`` writes a batch of tuples without making their dicts;
    the text and LaTeX renderers unpack each tuple.

    The list itself stays empty; it is a list so that ``render_json`` and
    ``json.dumps`` write it as one.  Iterating it yields each row as a dict,
    for ``json.dumps`` and for comparison: it compares as the list of its
    dicts.  It is never indexed.
    """

    __slots__ = ("fields", "rows", "length")

    def __init__(self, fields: tuple[str, ...], rows, length: int):
        self.fields = fields
        self.rows = rows
        self.length = length

    def __iter__(self):
        fields = self.fields
        return (dict(zip(fields, row)) for row in self.rows())

    def __len__(self):
        return self.length

    def __eq__(self, other):
        return list(self) == other

    def __ne__(self, other):
        return list(self) != other


class _Shared(dict):
    """A dict that a document holds in many places, such as an element's
    entry.  ``render_json`` makes its text once per indent, and writes that
    wherever the dict appears at that indent."""

    __slots__ = ()


class _Below(list):
    """The ascending positions of the set bits of ``mask``, read off it each
    time it is iterated: a coset's ``below`` list.  Like ``_Rows`` it stays
    empty and is a list for the writers; it compares as the list of its ids."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask

    def __iter__(self):
        return iter(_bits(self.mask))

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        return list(self) == other

    def __ne__(self, other):
        return list(self) != other


class _Lines:
    """Lines of a text document, each handed to ``sink`` with its newline,
    in batches of about _CHUNK_CHARS characters."""

    def __init__(self, sink):
        self.sink = sink
        self.batch: list[str] = []
        self.size = 0

    def append(self, line: str) -> None:
        self.batch.append(line)
        self.size += len(line)
        if self.size >= _CHUNK_CHARS:
            self.flush()

    def flush(self) -> None:
        if self.batch:
            self.sink("\n".join(self.batch) + "\n")
            self.batch.clear()
            self.size = 0


# JSON text of a scalar, by exact type
_JSON_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_INT_STR = frozenset({int, str})  # not bool: True would find the text of 1


def _joined(render, *args) -> str:
    """The whole text that ``render(*args, sink)`` hands to its sink."""
    chunks: list[str] = []
    render(*args, chunks.append)
    return "".join(chunks)


def render_json(data, sink=None):
    """The text of ``json.dumps(data, indent=2, ensure_ascii=False)`` and a
    newline, written by a ``_JsonWriter``.

    It writes the values the CLI's documents hold: dicts with str keys;
    lists and tuples, subclasses included; str, int, bool and None.  Any
    other value, and any key that is not a str, raises TypeError.

    With a ``sink``, the text goes to it in chunks of about
    ``_CHUNK_PIECES`` pieces and None is returned; without one, the text
    is returned.
    """
    if sink is None:
        return _joined(render_json, data)
    writer = _JsonWriter(sink)
    writer.write(data, "\n")
    writer.out.append("\n")
    writer.flush()


class _Texts(dict):
    """JSON text of exact str and int values, each made on first use."""

    def __missing__(self, value) -> str:
        text = self[value] = _JSON_SCALARS[type(value)](value)
        return text


class _Keys(dict):
    """JSON text of str keys, each with its ": ", made on first use."""

    def __missing__(self, k) -> str:
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {k.__class__.__name__}")
        text = self[k] = encode_basestring(k) + ": "
        return text


class _JsonWriter:
    """One JSON render: a piece list handed to ``sink`` as it fills, and
    the texts made once and reused.

    With ``indent`` set, ``json.dumps`` does not use its C encoder, and the
    pure-Python one spends most of a large document's time in generators.
    This writer appends to one list and encodes each distinct key once.
    ``write`` streams dicts and lists item by item and a ``_Rows`` list a
    batch of rows at a time; ``whole`` makes the text of any other value,
    and of each value in a row, in one piece.  A batch of rows is written
    as the pieces every row shares (keys, braces, commas) interleaved with
    each column's texts: each distinct exact int and str's text is made
    once per render, and each ``_Shared`` dict's once per render and
    indent.  A ``_Below`` list is one join of pre-joined
    ``",<newline><indent>id"`` pieces, picked by the 0/1 flags of its mask.
    """

    def __init__(self, sink):
        self.sink = sink
        self.out: list[str] = []
        self.key = _Keys().__getitem__  # a key that is not a str is never in it
        self.text = _Texts().__getitem__
        # indent -> {id: text} of each _Shared dict, held so its id stays its own
        self.shared: dict[str, dict[int, str]] = {}
        self.held: list[_Shared] = []
        # indent -> its pieces "," + indent + str(i), for the widest mask so far
        self.ids: dict[str, list[str]] = {}
        # (keys, indent) -> the pieces every row of that shape shares: each
        # key's lead, endless, the first one opening the row, and the close
        self.shapes: dict[tuple, tuple[list[str], str]] = {}

    def flush(self) -> None:
        self.sink("".join(self.out))
        self.out.clear()

    def items(self, value) -> tuple:
        """The key texts (None for a list), values and brackets of a dict,
        list or tuple."""
        if isinstance(value, dict):
            return map(self.key, value), value.values(), "{}"
        if isinstance(value, (list, tuple)):
            return None, value, "[]"
        raise TypeError(
            f"Object of type {value.__class__.__name__} is not JSON serializable"
        )

    def write(self, value, nl: str) -> None:
        """Append a value on a line indented by ``nl``: a dict or list item
        by item, a ``_Rows`` list a batch of rows at a time, and any other
        value, or an empty one, as its ``whole`` text."""
        kind = type(value)
        if kind in _JSON_SCALARS or kind is _Below or kind is _Shared or not value:
            self.out.append(self.whole(value, nl))
        elif kind is _Rows:
            self.rows(value, nl)
        else:
            keys, values, brackets = self.items(value)
            out, inner = self.out, nl + "  "
            lead = brackets[0] + inner
            for k, v in zip(keys or repeat(""), values):
                out.append(lead + k)
                self.write(v, inner)
                if len(out) >= _CHUNK_PIECES:
                    self.flush()
                lead = "," + inner
            out.append(nl + brackets[1])

    def whole(self, value, nl: str) -> str:
        """The text of a value on a line indented by ``nl``, in one piece."""
        kind = type(value)
        if kind in _JSON_SCALARS:
            return _JSON_SCALARS[kind](value)
        if kind is _Below:
            return self.below(value, nl)
        if kind is _Shared:
            cached = self.shared.setdefault(nl, {})
            if id(value) in cached:
                return cached[id(value)]
        keys, values, brackets = self.items(value)
        if not value:
            return brackets
        inner = nl + "  "
        if _INT_STR.issuperset(map(type, values)):  # no call per value
            texts = map(self.text, values)
        else:
            texts = map(self.whole, values, repeat(inner))
        parts = texts if keys is None else map(str.__add__, keys, texts)
        text = brackets[0] + inner + ("," + inner).join(parts) + nl + brackets[1]
        if kind is _Shared:
            cached[id(value)] = text
            self.held.append(value)
        return text

    def below(self, below: _Below, nl: str) -> str:
        """The text of a ``_Below`` list, in one join."""
        if not below.mask:
            return "[]"
        flags = _flags(below.mask)
        pieces = self.ids.setdefault(nl, [])
        if len(flags) > len(pieces):
            sep = "," + nl + "  "
            pieces += map(sep.__add__, map(str, range(len(pieces), len(flags))))
        ids = compress(pieces, flags)
        first = next(ids)
        return "".join(chain(("[" + first[1:],), ids, (nl + "]",)))

    def rows(self, rows: _Rows, nl: str) -> None:
        """Append a non-empty ``_Rows`` list, a batch of rows at a time."""
        out, fields, inner = self.out, rows.fields, nl + "  "
        cell = inner + "  "
        shape = self.shapes.get((fields, inner))
        if shape is None:
            heads = ["," + cell + self.key(k) for k in fields]
            if heads:
                heads[0] = "," + inner + "{" + heads[0][1:]
            close = inner + "}" if heads else "," + inner + "{}"
            shape = self.shapes[fields, inner] = (list(map(repeat, heads)), close)
        heads, close = shape
        lead = "["  # leads the list's first row; "," leads each later one
        it = rows.rows()
        # a batch adds about _CHUNK_PIECES pieces, or, where the rows' texts
        # are long (below lists), about _CHUNK_CHARS characters
        most = size = _CHUNK_PIECES // (2 * len(fields) + 1)
        held = 0  # characters of row pieces written since the last flush
        while batch := list(islice(it, size)):
            pieces, long = [], False
            for head, column in zip(heads, zip(*batch)):
                kinds = set(map(type, column))
                if kinds <= _INT_STR:
                    texts = map(self.text, column)
                elif kinds == {_Below}:
                    texts, long = map(self.below, column, repeat(cell)), True
                else:  # a _Shared dict's text once made; any other cell's whole
                    shared = self.shared.setdefault(cell, {}).get
                    texts = [shared(id(v)) or self.whole(v, cell) for v in column]
                    long = True
                pieces += head, texts
            start = len(out)
            out.extend(chain.from_iterable(zip(*pieces, repeat(close, len(batch)))))
            out[start] = lead + out[start][1:]
            lead = ","
            if long:
                chars = sum(map(len, out[start:]))
                held += chars
                size = min(most, max(1, size * _CHUNK_CHARS // chars))
            if len(out) >= _CHUNK_PIECES or held >= _CHUNK_CHARS:
                self.flush()
                held = 0
        out.append(nl + "]")


def parse_output(text: str) -> dict:
    """Parse rendered JSON back; polynomial strings become LaurentPoly."""
    data = json.loads(text)
    for entry in data.get("kl_polynomials", []):
        entry["poly"] = laurent.parse(entry["poly"])
    return data


def _text_cosets(lines, data):
    lines.append("cosets (id: longest | shortest | length):")
    for c, longest, shortest, length, _ in data["cosets"].rows():
        lines.append(f"  {c}: {longest['name']} | {shortest['name']} | {length}")
    for m in data.get("models", []):
        lines.append(
            f"model u = {m['u']['name']}, Theta(u,lambda) = "
            f"{{{', '.join(m['theta_u_lambda'])}}}:"
        )
        for f, longest, length, c in m["cosets"].rows():
            lines.append(f"  {f}: {longest['name']} | ell_lambda {length} | global {c}")


def _signed_sum(entries, term) -> str:
    """The character row "a - 2 b + ..." of (standard, standard_id, coeff)
    rows, with term(standard) the text of each character."""
    rhs = ""
    for standard, _, coeff in entries.rows():
        mag = abs(coeff)
        body = term(standard) if mag == 1 else f"{mag} {term(standard)}"
        if not rhs:
            rhs = f"-{body}" if coeff < 0 else body
        else:
            rhs += f" {'-' if coeff < 0 else '+'} {body}"
    return rhs


def render_text(command, data, sink=None):
    """The text document; to ``sink`` in chunks if given, else returned."""
    if sink is None:
        return _joined(render_text, command, data)
    lines = _Lines(sink)
    if command == "verify":  # no context header: one line per check
        for check in data["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            note = check["counterexample"]
            note = f"  [{note}]" if note else ""
            lines.append(f"{status}  {check['name']}  ({check['scope']}){note}")
        lines.flush()
        return
    ctx = data["context"]
    theta = ",".join(ctx["theta"]) or "(empty)"
    lines.append(f"{ctx['type']}  theta={theta}  lambda={ctx['lambda']}")
    if ctx["flags"]:
        f = ctx["flags"]
        lines.append(
            f"flags: antidominant={f['antidominant']} "
            f"regular={f['regular']} integral={f['integral']}"
        )
    if command == "info":
        lines.append(f"Sigma_lambda^+ = {{{', '.join(data['sigma_lambda_pos'])}}}")
        lines.append(f"Pi_lambda = {{{', '.join(data['pi_lambda'])}}}")
        lines.append(f"A_lambda = {{{', '.join(data['a_lambda'])}}}")
        lines.append(f"A_theta_lambda = {{{', '.join(data['a_theta_lambda'])}}}")
        _text_cosets(lines, data)
    elif command == "cosets":
        _text_cosets(lines, data)
    elif command == "klpolys":
        _text_cosets(lines, data)
        lines.append("P (c, d): poly")
        for c, d, poly in data["kl_polynomials"].rows():
            lines.append(f"  ({c}, {d}): {poly}")
    elif command == "characters":
        for row in data["characters"]:
            rhs = _signed_sum(row["entries"], lambda std: f"ch M({std})")
            lines.append(f"ch L({row['irreducible']}) = {rhs or '0'}")
        for row in data.get("multiplicities", []):
            terms = " + ".join(
                (f"{coeff} " if coeff != 1 else "") + f"[L({irreducible})]"
                for irreducible, _, coeff in row["entries"].rows()
            )
            lines.append(f"[M({row['standard']})] = {terms}")
    lines.flush()


def _latex_elt(name: str) -> str:
    if name == "e":
        return "e"
    for letter, macro in zip(GREEK, GREEK_NAMES):
        name = name.replace(letter, "\\" + macro + " ")
    return " ".join(name.split())


def render_latex(command, data, sink=None):
    """The LaTeX document; to ``sink`` in chunks if given, else returned."""
    if sink is None:
        return _joined(render_latex, command, data)
    if command == "verify":
        return render_text(command, data, sink)
    lines = _Lines(sink)
    ctx = data["context"]
    lines.append("% " + ctx["type"] + " theta=" + (",".join(ctx["theta"]) or "empty"))
    latex = cache(_latex_elt)  # each distinct name converted once
    if command == "klpolys":
        rows = data["kl_polynomials"].rows
        for m in data["models"]:
            cosets = list(m["cosets"].rows())
            ind = [c for *_, c in cosets]
            names = [f"${latex(longest['name'])}$" for _, longest, *_ in cosets]
            lines.append("\\begin{tabular}{c|" + "c" * len(names) + "}")
            lines.append("$P$ & " + " & ".join(names) + " \\\\ \\hline")
            # the model's rows off the table, in model order: each row holds
            # its coset's 1, so each coset makes one group
            for name, (_, row) in zip(names, groupby(rows(ind), _first)):
                polys = {d: poly for _, d, poly in row}
                cells = "$ & $".join(map(polys.get, ind, repeat("0")))
                lines.append(f"{name} & ${cells}$ \\\\")
            lines.append("\\end{tabular}")
    elif command == "characters":
        lines.append("\\begin{align*}")
        for row in data["characters"]:
            rhs = _signed_sum(
                row["entries"], lambda std: f"\\ch M({latex(std)}\\lambda)"
            )
            lines.append(f"\\ch L({latex(row['irreducible'])}\\lambda) &= {rhs} \\\\")
        lines.append("\\end{align*}")
    else:
        lines.append("% use --format text or json for this command")
    lines.flush()


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="whitkl", description=__doc__)
    parser.add_argument("--type", required=True, help="root system type, e.g. A3")
    parser.add_argument(
        "--theta",
        default="",
        help="subset of simple roots: names (α, beta, ...) or 1-based indices",
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        default=None,
        help='weight in coroot coordinates, e.g. "-5-4*t1,-5+4*t1,-5"',
    )
    parser.add_argument(
        "--format", choices=["text", "json", "latex"], default="text"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "info": sub.add_parser(
            "info", help="flags, integral data, cross-sections, models"
        ),
        "cosets": sub.add_parser("cosets", help="coset tables and orders"),
        "klpolys": sub.add_parser(
            "klpolys", help="Whittaker Kazhdan-Lusztig polynomial tables"
        ),
        "characters": sub.add_parser("characters", help="character formula rows"),
        "verify": sub.add_parser("verify", help="run the independent oracle suite"),
    }
    commands["characters"].add_argument("--invert", action="store_true")
    commands["characters"].add_argument("--verma", action="store_true")
    for child in commands.values():
        # accept --format after the subcommand as well
        child.add_argument(
            "--format",
            choices=["text", "json", "latex"],
            default=argparse.SUPPRESS,
        )
    return parser


def _join_lambda_value(argv):
    """Fold "--lambda <value>" into "--lambda=<value>" so that weights
    starting with a minus sign are not mistaken for option names."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--lambda" and i + 1 < len(argv):
            out.append(f"--lambda={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_lambda_value(list(argv)))
    try:
        letter, rank = parse_type(args.type)
        # an invalid type is reported before theta and lambda are read
        build_root_system(letter, rank)
        theta_probe = parse_theta(args.theta, rank)
        lam = parse_lambda(args.lam, rank) if args.lam is not None else None
        if args.command != "verify" and lam is None:
            raise InputError(f"command {args.command!r} needs --lambda")
        job = Job(letter, rank, theta_probe, lam)
        # every error is raised before the first byte is written
        if args.command == "info":
            data = run_info(job)
        elif args.command == "cosets":
            data = run_cosets(job)
        elif args.command == "klpolys":
            data = run_klpolys(job)
        elif args.command == "characters":
            # LaTeX prints no multiplicities, so it inverts nothing
            data = run_characters(job, args.invert, args.verma, args.format != "latex")
        else:
            data = run_verify(job)
        code = 2 if data.get("passed") is False else 0
        if args.format == "json":
            render_json(data, sys.stdout.write)
        elif args.format == "latex":
            render_latex(args.command, data, sys.stdout.write)
        else:
            render_text(args.command, data, sys.stdout.write)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe early (``whitkl ... | head``) and wants
        # no more; fd 1 now points at devnull, so that the interpreter's
        # final flush of what is buffered stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return code
    except (AssertionError, SpaceMismatchError) as exc:
        # a broken internal invariant, not bad input; SpaceMismatchError is
        # a ValueError, so this clause comes first
        message = " ".join(str(exc).split()) or "assertion failed"
        sys.stderr.write(f"whitkl: internal error: {message}\n")
        return 3
    except (InputError, ValueError) as exc:
        sys.stderr.write(f"whitkl: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
