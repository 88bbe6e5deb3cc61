"""The row type of the coset modules: finitely supported maps from coset
ids to Laurent polynomials, and the space tags that name their basis.

Every element carries a space tag identifying its basis-index set; mixing
tags is a hard error, because the global coset module and the per-double-
coset models are all isomorphic-looking and silent index confusion is the
main hazard here.  Tags that are the same object pass the check in
`+`/`-` on identity; tags that are different objects are still compared
by value.

A model tag names the model's class, (Theta, Theta(u,lambda), lambda), not
its u: the models of one class are one module, with one basis.

The `HeckeElt` operators combine coefficients with `LaurentPoly`
arithmetic, whose results need no validation (see `laurent`); the public
`HeckeElt(tag, coeffs)` drops zero coefficients, and the private
`_trusted_elt` wraps a map that already has none (a relabelling of an
element, a finished basis element).  The operators of the paper's Sec. 3
(T_alpha, restriction to the integral models) act on these rows in
`oracle`, as the references the tests hold the engine to.
"""

from __future__ import annotations

from .cosetlab import IntegralModel, ThetaCosets
from .laurent import LaurentPoly

__all__ = [
    "SpaceMismatchError",
    "HeckeElt",
    "global_tag",
    "model_tag",
]


class SpaceMismatchError(ValueError):
    pass


def global_tag(tc: ThetaCosets):
    return ("global", tc.theta)


def model_tag(model: IntegralModel):
    return ("model", model.tc.theta, model.theta_u_lambda, model.idata.lam)


class HeckeElt:
    """Finitely supported map from coset ids to Laurent polynomials."""

    __slots__ = ("tag", "coeffs")

    def __init__(self, tag, coeffs=None):
        self.tag = tag
        clean = {}
        if coeffs:
            for cid, poly in coeffs.items():
                if poly:
                    clean[cid] = poly
        self.coeffs = clean

    def coeff(self, cid: int) -> LaurentPoly:
        return self.coeffs.get(cid, LaurentPoly.zero())

    def _check(self, other: "HeckeElt"):
        if self.tag is not other.tag and self.tag != other.tag:
            raise SpaceMismatchError(
                f"cannot combine elements tagged {self.tag} and {other.tag}"
            )

    def __add__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        coeffs = dict(self.coeffs)
        for cid, poly in other.coeffs.items():
            mine = coeffs.get(cid)
            coeffs[cid] = poly if mine is None else mine + poly
        return HeckeElt(self.tag, coeffs)

    def __sub__(self, other: "HeckeElt") -> "HeckeElt":
        self._check(other)
        coeffs = dict(self.coeffs)
        for cid, poly in other.coeffs.items():
            mine = coeffs.get(cid)
            coeffs[cid] = -poly if mine is None else mine - poly
        return HeckeElt(self.tag, coeffs)

    def scale(self, factor) -> "HeckeElt":
        return HeckeElt(
            self.tag, {cid: poly * factor for cid, poly in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, HeckeElt):
            return NotImplemented
        return self.tag == other.tag and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        body = " + ".join(
            f"({poly.text()})*d{cid}" for cid, poly in sorted(self.coeffs.items())
        )
        return f"HeckeElt({body or '0'})"


_new_elt = object.__new__


def _trusted_elt(tag, coeffs: dict) -> HeckeElt:
    """Wrap coeffs, a map with no zero coefficient that the new element
    owns, without checking it."""
    elt = _new_elt(HeckeElt)
    elt.tag = tag
    elt.coeffs = coeffs
    return elt

