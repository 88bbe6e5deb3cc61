"""Character formulas for irreducible modules in terms of standard ones.

Characters are formal integer vectors over standard-module labels; each
row comes from one pass over a row of the basis phi, evaluating its
Kazhdan-Lusztig polynomials at q = -1.  Regular mode is indexed by right
cosets, singular mode by stabilizer double-coset representatives, Verma
mode by group elements: it is regular mode with empty Theta, each coset
labelled by its one element.

The inverse of a regular formula, the multiplicities of irreducibles in
standard modules, is computed on packed rows: each inverse row is one
Python int whose balanced base-2^W digits are its entries, so each
nonzero formula entry costs one big-int multiply-subtract.  A bound on
each row's entries is checked before the row is decoded, and a bound of
2^(W-1) or more doubles W: the rows already decoded are packed again at
the new width and the elimination goes on from the failing row.  W
starts at 16 and has no upper limit.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_

from .cosetlab import StabilizerData
from .klengine import KLTable
from .rootsystem import require_antidominant

__all__ = [
    "CharacterFormula",
    "regular_formula",
    "invert_multiplicities",
    "singular_formula",
    "verma_formula",
]


@dataclass(frozen=True)
class CharacterFormula:
    mode: str  # "regular" | "singular"
    label_kind: str  # "coset" | "element"
    labels: tuple[int, ...]
    rows: dict[int, tuple[tuple[int, int], ...]]


def _at_minus_one(polys: list, values: dict[int, int]) -> list[int]:
    """P(-1) for each P in polys, in C-level passes.

    values memoizes P(-1) by the polynomial's id.  Path A interns its
    polynomials, so each distinct value is one object and is evaluated
    once; the table keeps every object alive, so an id names one
    polynomial for as long as the table lives.
    """
    at = list(map(values.get, map(id, polys)))
    if None in at:
        for poly in compress(polys, map(is_, at, repeat(None))):
            values[id(poly)] = poly.eval_minus_one()
        at = list(map(values.__getitem__, map(id, polys)))
    return at


def _regular(kl: KLTable, label_kind: str, labels: list[int]) -> CharacterFormula:
    """Rows ch L(C) = sum_D P_{CD}(-1) ch M(D) over D in C's block, coset
    C labelled labels[C], from one read of each row of kl.phi.  A list
    hands out one int object per label, however many entries name it."""
    require_antidominant(kl.group.rs, kl.lam, allow_zero=False)
    label_of = labels.__getitem__
    phi = kl.phi
    values: dict[int, int] = {}
    rows: dict[int, tuple[tuple[int, int], ...]] = {}
    for c, label in enumerate(labels):
        coeffs = phi[c].coeffs
        ds = sorted(coeffs, key=label_of)
        at = _at_minus_one(list(map(coeffs.__getitem__, ds)), values)
        rows[label] = tuple(zip(compress(map(label_of, ds), at), compress(at, at)))
    return CharacterFormula("regular", label_kind, tuple(labels), rows)


def regular_formula(kl: KLTable) -> CharacterFormula:
    """Rows ch L(C) = sum_D P_{CD}(-1) ch M(D), labelled by coset."""
    return _regular(kl, "coset", list(range(kl.tc.n_cosets)))


# bits per packed entry on the first attempt; every width is a multiple of 8
_START_WIDTH = 16
_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}


def invert_multiplicities(cf: CharacterFormula) -> list[list[int]]:
    """Inverse of the unitriangular coefficient matrix, over Z.

    Row i of the result gives the multiplicities of irreducibles in the
    standard module labeled cf.labels[i].  The packed elimination widens
    its digits until every row fits, so no input fails for the size of
    its entries.
    """
    if cf.mode != "regular":
        raise ValueError("only regular-mode formulas can be inverted")
    n = len(cf.labels)
    index = {label: i for i, label in enumerate(cf.labels)}
    inv = [[0] * n for _ in range(n)]
    width = _START_WIDTH
    while not _packed_inverse(cf, index, width, inv):
        width *= 2
    return inv


def _packed_inverse(
    cf: CharacterFormula, index: dict[int, int], width: int, inv: list[list[int]]
) -> bool:
    """Fill inv's rows, each computed as one Python int, from the first
    row not yet filled; return False, keeping the rows filled so far, if
    an entry may not fit in width bits.

    Labels are sorted by coset length, so the coefficient matrix is lower
    unitriangular, and so is its inverse.  Entry k of an inverse row is
    the balanced base-2^width digit k of its int, so row_i = e_i -
    sum_j f_ij row_j costs one big-int multiply-subtract per nonzero f_ij
    in cf.rows.  The ints are exact; decoding needs each digit of row i
    below 2^(width-1) in absolute value, which holds when the bound
    1 + sum_j |f_ij| max|inv_j|, read off the decoded rows j, does.  A row
    is decoded by adding 2^(width-1) to every digit and reading its bytes
    as unsigned fields: memoryview.cast up to 64 bits, int.from_bytes
    above.  A filled row (its diagonal entry, always 1, is set) is exact,
    and is packed again at this width from its entries by the reverse
    steps.
    """
    n = len(cf.labels)
    half = 1 << (width - 1)
    step = width // 8
    fmt = _FORMATS.get(width)
    # the digit 2^(width-1) in each of n fields; shifting keeps i + 1 of them
    bias = half * ((1 << (width * n)) - 1) // ((1 << width) - 1)
    packed: list[int] = []
    peaks: list[int] = []
    start = 0
    while start < n and inv[start][start]:
        start += 1
    for i in range(start):
        entries = inv[i][: i + 1]
        fields = [d + half for d in entries]
        if fmt is None:
            data = b"".join(d.to_bytes(step, sys.byteorder) for d in fields)
        else:
            data = array(fmt, fields).tobytes()
        packed.append(
            int.from_bytes(data, sys.byteorder) - (bias >> (width * (n - 1 - i)))
        )
        peaks.append(max(map(abs, entries)))
    for i in range(start, n):
        label = cf.labels[i]
        value = 1 << (width * i)
        bound = 1
        diagonal = 0
        for target, f in cf.rows.get(label, ()):
            j = index[target]
            if j == i:
                diagonal = f
            elif f:
                if j > i:
                    raise AssertionError("coefficient matrix is not unitriangular")
                value -= f * packed[j]
                bound += abs(f) * peaks[j]
        if diagonal != 1:
            raise AssertionError("coefficient matrix is not unitriangular")
        if bound >= half:
            return False
        data = (value + (bias >> (width * (n - 1 - i)))).to_bytes(
            (i + 1) * step, sys.byteorder
        )
        if fmt is None:
            digits = [
                int.from_bytes(data[k : k + step], sys.byteorder)
                for k in range(0, len(data), step)
            ]
        else:
            digits = memoryview(data).cast(fmt)
        packed.append(value)
        peaks.append(max(max(digits) - half, half - min(digits)))
        inv[i][: i + 1] = [d - half for d in digits]
    return True


def singular_formula(kl: KLTable, stab: StabilizerData) -> CharacterFormula:
    """Rows indexed by stabilizer double-coset representatives; entries
    group the regular coefficients over (W_Theta, W^lambda)-cosets."""
    group = kl.group
    # singular weights are antidominant in the weak sense
    require_antidominant(group.rs, kl.lam, allow_zero=True)
    tc = kl.tc
    w_theta = sorted(tc.w_theta_ids)
    w_stab = sorted(stab.w_stab_ids)
    rep_of_coset: dict[int, int] = {}
    for z in stab.a_theta_stab:
        for a in w_theta:
            az = group.mult(a, z)
            for b in w_stab:
                rep_of_coset[tc.coset_of[group.mult(az, b)]] = z
    if len(rep_of_coset) != tc.n_cosets:
        raise AssertionError("stabilizer double cosets do not cover all cosets")
    labels = tuple(stab.a_theta_stab)
    phi = kl.phi
    values: dict[int, int] = {}
    rows: dict[int, tuple[tuple[int, int], ...]] = {}
    for v in labels:
        c = tc.coset_of[v]
        if tc.shortest[c] != v:
            raise AssertionError("stabilizer representative is not coset-shortest")
        coeffs = phi[c].coeffs
        acc: dict[int, int] = {}
        for d, value in zip(coeffs, _at_minus_one(list(coeffs.values()), values)):
            z = rep_of_coset[d]
            acc[z] = acc.get(z, 0) + value
        rows[v] = tuple(sorted((z, coeff) for z, coeff in acc.items() if coeff))
    return CharacterFormula("singular", "element", labels, rows)


def verma_formula(kl: KLTable) -> CharacterFormula:
    """The regular rows of a table with empty Theta, labelled by elements."""
    return _regular(kl, "element", list(kl.tc.longest))
