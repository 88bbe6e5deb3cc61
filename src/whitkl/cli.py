"""Command-line surface: parse a job, run the pipeline, emit tables.

Subcommands: info, cosets, klpolys, characters, verify.  Output formats:
text (default), json, latex.  All output is byte-stable for identical
inputs: orderings are fixed everywhere and no randomness is involved.

Output is streamed: the document is written to stdout in bounded chunks
as it is rendered, never held whole.  Every error is found before the
first byte is written, so a failing command prints nothing on stdout.  A
reader that closes the pipe early (``whitkl ... | head``) ends the
command quietly with its usual exit code.

Exit codes: 0 ok, 1 input error, 2 verification failure, 3 internal error
(a broken invariant, reported as one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring

from . import laurent
from .charformula import (
    invert_multiplicities,
    regular_formula,
    singular_formula,
    verma_formula,
)
from .cosetlab import build_theta_cosets, stabilizer_data
from .heckemodule import SpaceMismatchError
from .klengine import build_kl_table, build_models, phi_direct
from .oracle import (
    OracleReport,
    bruhat_subword,
    kl_classical_relation_check,
    recompute_cosets,
)
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
    r"(?:\*\s*t(?P<tk>\d+))?\s*"
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
        elif name.isdigit():
            idx = int(name) - 1
        else:
            raise InputError(f"unknown simple root {name!r}")
        if not 0 <= idx < rank:
            raise InputError(f"simple root {name!r} out of range for rank {rank}")
        indices.append(idx)
    return tuple(sorted(set(indices)))


def parse_type(text: str):
    m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", text)
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


def _elt_entry(group, w) -> dict:
    return {"word": list(group.elements[w].word), "name": elt_name(group, w)}


def _coset_entry(group, tc, record):
    return {
        "id": record.id,
        "longest": _elt_entry(group, record.longest),
        "shortest": _elt_entry(group, record.shortest),
        "length": group.length(record.longest),
        "below": tc.below(record.id),
    }


def _model_entry(job, model):
    group = job.group
    return {
        "u": _elt_entry(group, model.u),
        "theta_u_lambda": [root_name(job.rs, r) for r in model.theta_u_lambda],
        "cosets": [
            {
                "id": f.id,
                "longest": _elt_entry(group, f.longest),
                "length_lambda": model.length(f.id),
                "global": model.ind[f.id],
            }
            for f in model.cosets
        ],
    }


def run_info(job):
    tc, idata, models = build_models(job.group, job.theta, job.lam)
    data = {
        "context": job.context(),
        "sigma_lambda_pos": [root_name(job.rs, r) for r in idata.sigma_lambda_pos],
        "pi_lambda": [root_name(job.rs, r) for r in idata.pi_lambda],
        "a_lambda": [elt_name(job.group, u) for u in idata.a_lambda],
        "a_theta_lambda": [elt_name(job.group, u) for u in idata.a_theta_lambda],
        "cosets": [_coset_entry(job.group, tc, c) for c in tc.cosets],
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
        "cosets": [_coset_entry(job.group, table.tc, c) for c in table.tc.cosets],
        "models": [_model_entry(job, m) for m in table.models],
        "kl_polynomials": [
            {"c": c, "d": d, "poly": poly.text()}
            for (c, d), poly in sorted(table.polys.items())
        ],
    }
    return data


def run_characters(job, invert=False, verma=False):
    group = job.group
    if verma:
        table = build_kl_table(group, (), job.lam)
        cf = verma_formula(table)
    else:
        table = build_kl_table(group, job.theta, job.lam)
        flags = weight_flags(job.rs, job.lam)
        if flags.regular:
            cf = regular_formula(table)
        else:
            stab = stabilizer_data(group, job.theta, job.lam)
            cf = singular_formula(table, stab)

    names: dict[int, str] = {}

    def label(x: int) -> str:
        name = names.get(x)
        if name is None:
            elt = table.tc.cosets[x].longest if cf.label_kind == "coset" else x
            name = names[x] = elt_name(group, elt)
        return name

    data = {
        "context": job.context(),
        "cosets": [_coset_entry(group, table.tc, c) for c in table.tc.cosets],
        "models": [_model_entry(job, m) for m in table.models],
        "characters": [
            {
                "irreducible": label(x),
                "irreducible_id": x,
                "entries": [
                    {"standard": label(d), "standard_id": d, "coeff": coeff}
                    for d, coeff in cf.rows[x]
                ],
            }
            for x in cf.labels
        ],
    }
    if invert:
        if cf.mode != "regular":
            raise InputError("--invert needs a regular-mode character formula")
        inverse = invert_multiplicities(cf)
        data["multiplicities"] = [
            {
                "standard": label(cf.labels[i]),
                "standard_id": cf.labels[i],
                "entries": [
                    {
                        "irreducible": label(cf.labels[j]),
                        "irreducible_id": cf.labels[j],
                        "coeff": inverse[i][j],
                    }
                    for j in range(len(cf.labels))
                    if inverse[i][j]
                ],
            }
            for i in range(len(cf.labels))
        ]
    return data


def run_verify(job):
    group = job.group
    report = OracleReport()
    scope = f"{job.rs.type_letter}{job.rs.rank}"
    # the pipeline's Bruhat order (Theta-empty cosets) against the subword oracle
    if group.size <= 48:
        pairs = [(v, w) for v in range(group.size) for w in range(group.size)]
        kind = "exhaustive"
    else:
        state = 1
        pairs = []
        while len(pairs) < 10_000:
            state = (state * 48271) % 2147483647  # fixed-seed Lehmer stream
            v = state % group.size
            state = (state * 48271) % 2147483647
            w = state % group.size
            if len(group.elements[w].word) <= 12:
                pairs.append((v, w))
        kind = "sampled-10k"
    order = build_theta_cosets(group, ())
    coset_of = order.coset_of
    ok = True
    witness = None
    for v, w in pairs:
        if len(group.elements[w].word) > 12:
            continue
        if bruhat_subword(group, v, w) != order.leq(coset_of[v], coset_of[w]):
            ok = False
            witness = f"(v={v}, w={w})"
            break
    report.add("bruhat-vs-subword", f"{scope} {kind}", ok, witness)
    # definition-level coset recomputation
    if job.lam is not None and job.rs.rank <= 3:
        table = build_kl_table(group, job.theta, job.lam)
        tc = table.tc
        sub = recompute_cosets(
            group, job.theta, job.lam, tc, table.idata, table.models
        )
        report.checks.extend(sub.checks)
        # the two phi paths must agree
        pd = phi_direct(tc, job.lam)
        ok = all(pd[c] == table.phi[c] for c in range(tc.n_cosets))
        report.add("phi-direct-vs-transport", scope, ok)
    else:
        report.add(
            "coset-recomputation",
            scope,
            True,
            "skipped: exhaustive scope is rank <= 3 with a lambda",
        )
    # classical Kazhdan-Lusztig relation at -rho
    if group.size <= 1152:
        ok = kl_classical_relation_check(group, Weight.minus_rho(job.rs.rank))
        report.add("classical-kl-relation", f"{scope} at -rho", ok)
    return report


# ---------------------------------------------------------------------------
# output formatting
#
# Each renderer hands its document to a sink, a callable such as
# ``sys.stdout.write``, in chunks, so that no format ever holds the whole
# text of a large document.  The JSON writer flushes once its piece list
# holds _CHUNK_PIECES pieces; the text and LaTeX writers once their lines
# hold _CHUNK_CHARS characters.

_CHUNK_PIECES = 4096
_CHUNK_CHARS = 1 << 16


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


_INFINITY = float("inf")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


# JSON text of a scalar, by exact type (bool and NoneType have no subclasses)
_JSON_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    float: _json_float,
}


def _json_scalar(value):
    """JSON text of a str, int, float, bool or None, subclasses included;
    None for any other value."""
    enc = _JSON_SCALARS.get(type(value))
    if enc is None:
        for base in (str, int, float):  # json.encoder's order of tests
            if isinstance(value, base):
                enc = _JSON_SCALARS[base]
                break
        else:
            return None
    return enc(value)


def _json_key(key) -> str:
    """Encoded object key and ": "; a non-str key is written as the text
    of its JSON value, as json.encoder does."""
    if not isinstance(key, str):
        text = _json_scalar(key)
        if text is None:
            raise TypeError(
                f"keys must be str, int, float, bool or None, "
                f"not {key.__class__.__name__}"
            )
        key = text
    return encode_basestring(key) + ": "


def _joined(render, *args) -> str:
    """The whole text that ``render(*args, sink)`` hands to its sink."""
    chunks: list[str] = []
    render(*args, chunks.append)
    return "".join(chunks)


def render_json(data, sink=None):
    """The text of ``json.dumps(data, indent=2, ensure_ascii=False)`` and a
    newline, written directly.

    With a ``sink``, the text goes to it in chunks of about
    ``_CHUNK_PIECES`` pieces and None is returned; without one, the text
    is returned.

    With ``indent`` set, ``json.dumps`` does not use its C encoder, and the
    pure-Python one spends most of a large document's time in generators.
    This writer appends to one list, encodes each distinct string key once,
    and writes a list or object whose values are all scalars with a single
    join.
    """
    if sink is None:
        return _joined(render_json, data)
    out: list[str] = []
    append = out.append
    limit = _CHUNK_PIECES
    scalars = _JSON_SCALARS
    # encoded str keys; a key of another type is never equal to a str, and
    # 1, 1.0 and True, equal as dict keys, encode differently
    key_text: dict[str, str] = {}

    def key(k) -> str:
        text = _json_key(k)
        if type(k) is str:
            key_text[k] = text
        return text

    def flush() -> None:
        sink("".join(out))
        out.clear()

    def write(value, nl: str) -> None:
        enc = scalars.get(type(value))
        if enc is not None:
            append(enc(value))
        elif isinstance(value, (list, tuple)):
            if not value:
                append("[]")
                return
            inner = nl + "  "
            sep = "," + inner
            parts = []
            for v in value:
                enc = scalars.get(type(v))
                if enc is None:
                    break
                parts.append(enc(v))
            else:
                append("[" + inner + sep.join(parts) + nl + "]")
                return
            lead = "[" + inner
            for v in value:
                append(lead)
                write(v, inner)
                if len(out) >= limit:
                    flush()
                lead = sep
            append(nl + "]")
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            inner = nl + "  "
            sep = "," + inner
            parts = []
            for k, v in value.items():
                enc = scalars.get(type(v))
                if enc is None:
                    break
                parts.append((key_text.get(k) or key(k)) + enc(v))
            else:
                append("{" + inner + sep.join(parts) + nl + "}")
                return
            lead = "{" + inner
            for k, v in value.items():
                append(lead + (key_text.get(k) or key(k)))
                write(v, inner)
                if len(out) >= limit:
                    flush()
                lead = sep
            append(nl + "}")
        else:
            # a subclass of a scalar type (no type subclasses both a
            # container and a scalar), or not a JSON value
            text = _json_scalar(value)
            if text is None:
                raise TypeError(
                    f"Object of type {value.__class__.__name__} "
                    f"is not JSON serializable"
                )
            append(text)

    write(data, "\n")
    append("\n")
    flush()


def parse_output(text: str) -> dict:
    """Parse rendered JSON back; polynomial strings become LaurentPoly."""
    data = json.loads(text)
    for entry in data.get("kl_polynomials", []):
        entry["poly"] = laurent.parse(entry["poly"])
    return data


def _text_cosets(lines, data):
    lines.append("cosets (id: longest | shortest | length):")
    for c in data["cosets"]:
        lines.append(
            f"  {c['id']}: {c['longest']['name']} | "
            f"{c['shortest']['name']} | {c['length']}"
        )
    for m in data.get("models", []):
        lines.append(
            f"model u = {m['u']['name']}, Theta(u,lambda) = "
            f"{{{', '.join(m['theta_u_lambda'])}}}:"
        )
        for f in m["cosets"]:
            lines.append(
                f"  {f['id']}: {f['longest']['name']} | "
                f"ell_lambda {f['length_lambda']} | global {f['global']}"
            )


def _signed_sum(entries, term) -> str:
    """The character row "a - 2 b + ..." of (standard, coeff) entries, with
    term(standard) the text of each character."""
    rhs = ""
    for e in entries:
        coeff = e["coeff"]
        mag = abs(coeff)
        body = term(e["standard"]) if mag == 1 else f"{mag} {term(e['standard'])}"
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
        for entry in data["kl_polynomials"]:
            lines.append(f"  ({entry['c']}, {entry['d']}): {entry['poly']}")
    elif command == "characters":
        for row in data["characters"]:
            rhs = _signed_sum(row["entries"], lambda std: f"ch M({std})")
            lines.append(f"ch L({row['irreducible']}) = {rhs or '0'}")
        for row in data.get("multiplicities", []):
            terms = " + ".join(
                (f"{e['coeff']} " if e["coeff"] != 1 else "")
                + f"[L({e['irreducible']})]"
                for e in row["entries"]
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
    lines = _Lines(sink)
    ctx = data["context"]
    lines.append("% " + ctx["type"] + " theta=" + (",".join(ctx["theta"]) or "empty"))
    if command == "klpolys":
        polys = {(e["c"], e["d"]): e["poly"] for e in data["kl_polynomials"]}
        for m in data["models"]:
            cols = [f["longest"]["name"] for f in m["cosets"]]
            ids = [f["id"] for f in m["cosets"]]
            globals_ = {f["id"]: f["global"] for f in m["cosets"]}
            lines.append("\\begin{tabular}{c|" + "c" * len(cols) + "}")
            lines.append(
                "$P$ & "
                + " & ".join(f"${_latex_elt(c)}$" for c in cols)
                + " \\\\ \\hline"
            )
            for fid, name in zip(ids, cols):
                row = [
                    polys.get((globals_[fid], globals_[gid]), "0")
                    for gid in ids
                ]
                lines.append(
                    f"${_latex_elt(name)}$ & "
                    + " & ".join(f"${p}$" for p in row)
                    + " \\\\"
                )
            lines.append("\\end{tabular}")
    elif command == "characters":
        lines.append("\\begin{align*}")
        for row in data["characters"]:
            rhs = _signed_sum(
                row["entries"], lambda std: f"\\ch M({_latex_elt(std)}\\lambda)"
            )
            lines.append(
                f"\\ch L({_latex_elt(row['irreducible'])}\\lambda) &= {rhs} \\\\"
            )
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
    parser.add_argument(
        "--seed-order",
        choices=["fixed"],
        default="fixed",
        help="ordering of all enumerations (only fixed is supported)",
    )
    parser.add_argument("--max-rank", type=int, default=6)
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
        if rank > args.max_rank:
            raise InputError(f"rank {rank} exceeds --max-rank {args.max_rank}")
        theta_probe = parse_theta(args.theta, rank)
        lam = parse_lambda(args.lam, rank) if args.lam is not None else None
        if args.command != "verify" and lam is None:
            raise InputError(f"command {args.command!r} needs --lambda")
        job = Job(letter, rank, theta_probe, lam)
        # every error is raised before the first byte is written
        if args.command == "verify":
            report = run_verify(job)
            code = 0 if report.passed else 2
            if args.format == "json":
                sys.stdout.write(report.to_json() + "\n")
            else:
                for check in report.checks:
                    status = "pass" if check.passed else "FAIL"
                    extra = f"  [{check.counterexample}]" if check.counterexample else ""
                    sys.stdout.write(
                        f"{status}  {check.name}  ({check.scope}){extra}\n"
                    )
        else:
            code = 0
            if args.command == "info":
                data = run_info(job)
            elif args.command == "cosets":
                data = run_cosets(job)
            elif args.command == "klpolys":
                data = run_klpolys(job)
            else:
                data = run_characters(job, invert=args.invert, verma=args.verma)
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
