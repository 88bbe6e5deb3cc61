"""Character formulas for irreducible modules in terms of standard ones.

Characters are formal integer vectors over standard-module labels; rows
come from evaluating Kazhdan-Lusztig polynomials at q = -1.  Regular mode
is indexed by right cosets, singular mode by stabilizer double-coset
representatives, Verma mode by group elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosetlab import StabilizerData
from .klengine import KLTable, build_kl_table
from .rootsystem import Weight, require_antidominant
from .weylgroup import WeylGroup

__all__ = [
    "CharacterFormula",
    "regular_formula",
    "invert_multiplicities",
    "singular_formula",
    "verma_mode",
    "verma_formula",
]


@dataclass(frozen=True)
class CharacterFormula:
    mode: str  # "regular" | "singular"
    label_kind: str  # "coset" | "element"
    labels: tuple[int, ...]
    rows: dict[int, tuple[tuple[int, int], ...]]


def _at_minus_one(kl: KLTable):
    """(C, D, P_{CD}(-1)) over kl.polys, in its order.

    Path A interns its polynomials, so each distinct value is one object
    and is evaluated once; the table keeps every object alive, so an id
    names one polynomial for the whole walk.
    """
    values: dict[int, int] = {}
    for (c, d), poly in kl.polys.items():
        value = values.get(id(poly))
        if value is None:
            value = values[id(poly)] = poly.eval_minus_one()
        yield c, d, value


def regular_formula(kl: KLTable) -> CharacterFormula:
    """Rows ch L(C) = sum_D P_{CD}(-1) ch M(D) over D in C's block."""
    require_antidominant(kl.group.rs, kl.lam, allow_zero=False)
    rows: dict[int, tuple[tuple[int, int], ...]] = {}
    labels = tuple(range(kl.tc.n_cosets))
    entries_by_row: dict[int, list[tuple[int, int]]] = {c: [] for c in labels}
    for c, d, value in _at_minus_one(kl):
        if value != 0:
            entries_by_row[c].append((d, value))
    for c in labels:
        rows[c] = tuple(sorted(entries_by_row[c]))
    return CharacterFormula("regular", "coset", labels, rows)


def invert_multiplicities(cf: CharacterFormula) -> list[list[int]]:
    """Inverse of the unitriangular coefficient matrix, over Z.

    Row i of the result gives the multiplicities of irreducibles in the
    standard module labeled cf.labels[i].
    """
    if cf.mode != "regular":
        raise ValueError("only regular-mode formulas can be inverted")
    n = len(cf.labels)
    index = {label: i for i, label in enumerate(cf.labels)}
    # labels are sorted by coset length, so the coefficient matrix is lower
    # unitriangular, and so is its inverse: row j of it is nonzero only in
    # columns support[j].  Row i of the matrix is read from cf.rows.
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    support: list[list[int]] = []
    for i, label in enumerate(cf.labels):
        row = inv[i]
        diagonal = 0
        for target, f in cf.rows.get(label, ()):
            j = index[target]
            if j == i:
                diagonal = f
            elif f:
                if j > i:
                    raise AssertionError("coefficient matrix is not unitriangular")
                inv_j = inv[j]
                for k in support[j]:
                    row[k] -= f * inv_j[k]
        if diagonal != 1:
            raise AssertionError("coefficient matrix is not unitriangular")
        support.append([k for k in range(i + 1) if row[k]])
    return inv


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
    values_by_row: dict[int, list[tuple[int, int]]] = {}
    for c, d, value in _at_minus_one(kl):
        values_by_row.setdefault(c, []).append((d, value))
    rows: dict[int, tuple[tuple[int, int], ...]] = {}
    for v in labels:
        c = tc.coset_of[v]
        if tc.cosets[c].shortest != v:
            raise AssertionError("stabilizer representative is not coset-shortest")
        acc: dict[int, int] = {}
        for d, value in values_by_row.get(c, ()):
            z = rep_of_coset[d]
            acc[z] = acc.get(z, 0) + value
        rows[v] = tuple(sorted((z, coeff) for z, coeff in acc.items() if coeff))
    return CharacterFormula("singular", "element", labels, rows)


def verma_mode(group: WeylGroup, lam: Weight) -> CharacterFormula:
    """The full pipeline with empty Theta; labels are group elements."""
    require_antidominant(group.rs, lam, allow_zero=False)
    return verma_formula(build_kl_table(group, (), lam))


def verma_formula(kl: KLTable) -> CharacterFormula:
    """The regular rows of a table with empty Theta, labelled by elements."""
    cf = regular_formula(kl)
    member = {c.id: c.member_ids[0] for c in kl.tc.cosets}
    labels = tuple(member[c] for c in cf.labels)
    rows = {
        member[c]: tuple(sorted((member[d], coeff) for d, coeff in entries))
        for c, entries in cf.rows.items()
    }
    return CharacterFormula("regular", "element", labels, rows)
