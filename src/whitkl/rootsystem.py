"""Crystallographic root systems and exact weights.

Roots are integer vectors in the simple-root basis, and each simple
reflection is one table of root indices.  Weights live in
"simple-coroot-value" coordinates: a weight is the tuple of values
``alpha_i^vee(lambda)``, each an exact rational plus a rational vector of
coefficients of finitely many formal transcendentals ``t_1, ..., t_k``.
A coroot is evaluated against these coordinates exactly, and the program
reads only whether the value is an integer and, if so, its sign: that
gives integrality, regularity and antidominance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "RootSystem",
    "Weight",
    "WeightFlags",
    "build_root_system",
    "pair",
    "is_integer",
    "is_zero",
    "weight_flags",
    "require_antidominant",
]

MAX_RANK = 6

Value = tuple[Fraction, tuple[Fraction, ...]]


@dataclass(frozen=True)
class WeightFlags:
    antidominant: bool
    regular: bool
    integral: bool


@dataclass(frozen=True)
class Weight:
    """Exact point of h*, as the tuple of simple-coroot values."""

    coords: tuple[Value, ...]
    n_transcendentals: int

    def __post_init__(self):
        for rational, tvec in self.coords:
            if len(tvec) != self.n_transcendentals:
                raise ValueError("inconsistent transcendental dimensions")
            if not isinstance(rational, Fraction) or not all(
                isinstance(c, Fraction) for c in tvec
            ):
                raise TypeError("weight coordinates must be Fractions")

    @property
    def rank(self) -> int:
        return len(self.coords)

    @classmethod
    def from_values(cls, values, n_transcendentals: int = 0) -> "Weight":
        """Build from per-simple values; plain rationals get a zero t-vector."""
        coords = []
        for v in values:
            if isinstance(v, tuple):
                rational, tvec = v
                coords.append(
                    (Fraction(rational), tuple(Fraction(c) for c in tvec))
                )
            else:
                coords.append(
                    (Fraction(v), (Fraction(0),) * n_transcendentals)
                )
        k = n_transcendentals
        for _, tvec in coords:
            k = max(k, len(tvec))
        coords = [
            (r, tvec + (Fraction(0),) * (k - len(tvec))) for r, tvec in coords
        ]
        return cls(tuple(coords), k)

    @classmethod
    def rho(cls, rank: int) -> "Weight":
        return cls.from_values([1] * rank)

    @classmethod
    def minus_rho(cls, rank: int) -> "Weight":
        return cls.from_values([-1] * rank)

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls.from_values([0] * rank)


class RootSystem:
    """Finite crystallographic root datum.

    ``roots[:rank]`` are the simple roots in Cartan order; the remaining
    positive roots follow sorted by (height, coordinates); the negative of
    ``roots[i]`` sits at index ``i + positive_root_count``.
    ``simple_reflections[i][r]`` is the index of s_i(roots[r]).
    """

    def __init__(self, type_letter: str, rank: int, cartan_matrix):
        self.type_letter = type_letter
        self.rank = rank
        self.cartan_matrix = tuple(tuple(row) for row in cartan_matrix)
        coroot_of = _close_roots(self.cartan_matrix)
        positives = [r for r in coroot_of if all(c >= 0 for c in r)]
        if 2 * len(positives) != len(coroot_of):
            raise AssertionError("roots do not split into +/- halves")
        simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        others = sorted(
            (r for r in positives if r not in set(simple)),
            key=lambda r: (sum(r), r),
        )
        pos_roots = simple + others
        self.positive_root_count = len(pos_roots)
        self.roots = tuple(pos_roots + [tuple(-c for c in r) for r in pos_roots])
        self.root_index = {r: i for i, r in enumerate(self.roots)}
        self.coroot_coords = tuple(coroot_of[r] for r in self.roots)
        self.simple_reflections = tuple(
            tuple(
                self.root_index[_reflect(self.cartan_matrix, i, r)]
                for r in self.roots
            )
            for i in range(rank)
        )

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    def negate(self, root_index: int) -> int:
        p = self.positive_root_count
        return root_index - p if root_index >= p else root_index + p

    def root_pairing(self, i: int, j: int) -> int:
        """Integer pairing roots[i]^vee(roots[j])."""
        d = self.coroot_coords[i]
        r = self.roots[j]
        return sum(
            d[k] * sum(self.cartan_matrix[k][m] * r[m] for m in range(self.rank))
            for k in range(self.rank)
        )

    def reflect(self, simple_index: int, root_index: int) -> int:
        """Index of s_i(roots[root_index])."""
        return self.simple_reflections[simple_index][root_index]

    def __repr__(self):
        return f"RootSystem({self.type_letter}{self.rank}, {self.n_roots} roots)"


def _cartan_matrix(type_letter: str, rank: int):
    n = rank
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def bond(i, j, down=-1, up=-1):
        a[i][j] = down
        a[j][i] = up

    if type_letter == "A":
        if n < 1:
            return None
        for i in range(n - 1):
            bond(i, i + 1)
    elif type_letter == "B":
        if n < 2:
            return None
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, down=-1, up=-2)  # alpha_n short
    elif type_letter == "C":
        if n < 2:
            return None
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, down=-2, up=-1)  # alpha_n long
    elif type_letter == "D":
        if n < 3:
            return None
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif type_letter == "E":
        if n != 6:
            return None
        # Bourbaki numbering: node 2 hangs off node 4
        for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
            bond(i, j)
    elif type_letter == "F":
        if n != 4:
            return None
        bond(0, 1)
        bond(1, 2, down=-1, up=-2)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        bond(2, 3)
    elif type_letter == "G":
        if n != 2:
            return None
        bond(0, 1, down=-1, up=-3)  # alpha_1 long, alpha_2 short
    else:
        return None
    return a


def build_root_system(type_letter: str, rank: int) -> RootSystem:
    """Construct the root system of the given finite type, rank <= 6."""
    letter = type_letter.upper()
    if letter not in "ABCDEFG":
        raise ValueError(f"unknown type letter {type_letter!r}")
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank {rank} out of range 1..{MAX_RANK}")
    cartan = _cartan_matrix(letter, rank)
    if cartan is None:
        raise ValueError(f"{letter}{rank} is not a valid finite type at this rank")
    return RootSystem(letter, rank, cartan)


def _reflect(cartan, i: int, r: tuple[int, ...]) -> tuple[int, ...]:
    """s_i(r) = r - alpha_i^vee(r) alpha_i, in the simple-root basis."""
    image = list(r)
    image[i] -= sum(cartan[i][m] * r[m] for m in range(len(cartan)))
    return tuple(image)


def _close_roots(cartan) -> dict:
    """Every root with its coroot, as {root: coroot} in the simple-root and
    simple-coroot bases, by closing the simple roots under the simple
    reflections: s_i sends a root r to r - alpha_i^vee(r) alpha_i and its
    coroot d to d - alpha_i(d) alpha_i^vee."""
    n = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    coroot_of = {r: r for r in simple}
    queue = list(simple)
    while queue:
        r = queue.pop()
        d = coroot_of[r]
        for i in range(n):
            t = _reflect(cartan, i, r)
            if t not in coroot_of:
                dimage = list(d)
                dimage[i] -= sum(d[k] * cartan[k][i] for k in range(n))
                coroot_of[t] = tuple(dimage)
                queue.append(t)
    return coroot_of


def pair(rs: RootSystem, root_index: int, lam: Weight) -> Value:
    """Evaluate the coroot of roots[root_index] against lam, exactly."""
    if lam.rank != rs.rank:
        raise ValueError(f"weight rank {lam.rank} does not match system rank {rs.rank}")
    d = rs.coroot_coords[root_index]
    rational = Fraction(0)
    tvec = [Fraction(0)] * lam.n_transcendentals
    for k, dk in enumerate(d):
        if dk == 0:
            continue
        r, t = lam.coords[k]
        rational += dk * r
        for j, c in enumerate(t):
            tvec[j] += dk * c
    return (rational, tuple(tvec))


def is_integer(value: Value) -> bool:
    rational, tvec = value
    return rational.denominator == 1 and all(c == 0 for c in tvec)


def is_zero(value: Value) -> bool:
    rational, tvec = value
    return rational == 0 and all(c == 0 for c in tvec)


def weight_flags(rs: RootSystem, lam: Weight) -> WeightFlags:
    """Antidominant: no positive root pairs to an integer >= 0.  Regular: no
    root pairs to 0.  Integral: every root pairs to an integer."""
    antidominant = True
    regular = True
    integral = True
    for i in range(rs.positive_root_count):
        v = pair(rs, i, lam)
        if not is_integer(v):
            integral = False
        elif v[0] >= 0:
            antidominant = False
        if is_zero(v):
            regular = False
    return WeightFlags(antidominant, regular, integral)


def require_antidominant(rs: RootSystem, lam: Weight, allow_zero: bool) -> None:
    """Raise ValueError at the first positive root whose coroot pairs with
    lam to a positive integer, or to 0 unless allow_zero.

    With allow_zero, antidominance is meant in the weak sense under which
    singular weights can still be antidominant.
    """
    bound = 0 if allow_zero else -1
    for i in range(rs.positive_root_count):
        v = pair(rs, i, lam)
        if is_integer(v) and v[0] > bound:
            raise ValueError(
                f"lambda is not antidominant: coroot pairing {v[0].numerator} "
                f"on root {i}"
            )
