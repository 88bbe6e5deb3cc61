"""Exact arithmetic in Z[q, q^-1].

Polynomials are kept in sparse canonical form (no zero coefficients), so
equal values always compare and render identically.  The text form used by
the CLI and golden files writes terms with descending exponents, e.g.
``q^2 + 3*q - 1``.

Validation happens at the boundary: the public constructor
``LaurentPoly(terms)`` checks that every exponent and coefficient is an
``int`` and drops zero coefficients, and :func:`parse` checks the text form.
Arithmetic on values that are already ``LaurentPoly``s (``+``, ``-``, ``*``,
:meth:`LaurentPoly.shift`, ...) yields int exponents and coefficients by
construction, drops zeros as it goes and wraps its result with the private
``_trusted``, which checks nothing.
"""

from __future__ import annotations

import re

__all__ = ["LaurentPoly", "parse"]


class LaurentPoly:
    """Integer-coefficient Laurent polynomial in one variable q."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for exp, coeff in dict(terms).items():
                if not isinstance(exp, int) or not isinstance(coeff, int):
                    raise TypeError("exponents and coefficients must be int")
                if coeff != 0:
                    canonical[exp] = coeff
        object.__setattr__(self, "_terms", canonical)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def q(cls) -> "LaurentPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentPoly":
        return cls({exp: coeff})

    # -- ring structure -----------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            total = terms.get(exp, 0) + coeff
            if total:
                terms[exp] = total
            else:
                del terms[exp]
        return _trusted(terms)

    __radd__ = __add__

    def __neg__(self):
        return _trusted({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            total = terms.get(exp, 0) - coeff
            if total:
                terms[exp] = total
            else:
                del terms[exp]
        return _trusted(terms)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return _trusted({})
            return _trusted({e: c * other for e, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return _trusted({e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return _trusted({e + k: c for e, c in self._terms.items()})

    def __eq__(self, other):
        if type(other) is LaurentPoly:
            return self._terms == other._terms
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- queries --------------------------------------------------------

    def coeff(self, exp: int) -> int:
        return self._terms.get(exp, 0)

    def items(self):
        """Pairs (exponent, coefficient), exponents descending."""
        return sorted(self._terms.items(), reverse=True)

    def eval_minus_one(self) -> int:
        return sum(c if e % 2 == 0 else -c for e, c in self._terms.items())

    def in_qZq(self) -> bool:
        """True iff the polynomial lies in qZ[q] (every exponent >= 1)."""
        return all(e >= 1 for e in self._terms)

    def parity_homogeneous(self, d: int) -> bool:
        """True iff every exponent is congruent to d mod 2."""
        return all((e - d) % 2 == 0 for e in self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(self._terms)

    def subst_q_power(self, m: int) -> "LaurentPoly":
        """Substitute q -> q^m (exponent dilation; m may be negative)."""
        return _trusted({e * m: c for e, c in self._terms.items()})

    def truncate_above(self, bound: int) -> "LaurentPoly":
        """Keep only the terms of exponent <= bound."""
        return _trusted({e: c for e, c in self._terms.items() if e <= bound})

    # -- text form -------------------------------------------------------

    def text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, (exp, coeff) in enumerate(self.items()):
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                qpart = "q" if exp == 1 else f"q^{exp}"
                body = qpart if mag == 1 else f"{mag}*{qpart}"
            if i == 0:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    __str__ = text

    def __repr__(self):
        return f"LaurentPoly({self.text()!r})"


_new = object.__new__


def _trusted(terms: dict) -> LaurentPoly:
    """Wrap terms, a dict from int exponents to nonzero int coefficients
    that the new value owns, without checking it."""
    poly = _new(LaurentPoly)
    poly._terms = terms
    return poly


def _coerce(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly({0: value})
    return NotImplemented


_TERM_RE = re.compile(
    r"""(?P<coeff>\d+)?          # optional magnitude
        (?P<star>\*)?            # separator, only with explicit magnitude
        (?P<q>q(\^(?P<exp>-?\d+))?)?   # optional q power
        $""",
    re.VERBOSE,
)


def parse(text: str) -> LaurentPoly:
    """Parse the text form produced by :meth:`LaurentPoly.text`."""
    s = text.strip()
    if s == "0":
        return LaurentPoly.zero()
    if not s:
        raise ValueError("empty polynomial text")
    # split into signed chunks; a sign directly after ^ belongs to an exponent
    chunks = re.split(r"\s*(?<!\^)([+-])\s*", s)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2 != 0:
        raise ValueError(f"malformed polynomial text: {text!r}")
    terms = {}
    for sign, body in zip(chunks[::2], chunks[1::2]):
        m = _TERM_RE.match(body.strip())
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"malformed term {body!r} in {text!r}")
        if m.group("star") and (m.group("coeff") is None or m.group("q") is None):
            raise ValueError(f"malformed term {body!r} in {text!r}")
        mag = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("q"):
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        else:
            exp = 0
        coeff = mag if sign == "+" else -mag
        terms[exp] = terms.get(exp, 0) + coeff
    return LaurentPoly(terms)
