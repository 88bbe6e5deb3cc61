"""Free Laurent-polynomial modules on coset bases with the three-case
operators T_alpha, the right W-action on labels, and the restriction map.

Every element carries a space tag identifying its basis-index set; mixing
tags is a hard error, because the global coset module and the per-double-
coset models are all isomorphic-looking and silent index confusion is the
main hazard here.  The operators check their input's tag against the space
they act on and give their result the input's own tag object, so elements
derived from one `delta` share it and the check in `+`/`-` succeeds on
identity; tags that are different objects are still compared by value.

A model tag names the model's class, (Theta, Theta(u,lambda), lambda), not
its u: the models of one class are one module, with one basis.

`t_alpha`, `t_alpha_model` (both through `_apply_three_case`) and the
`HeckeElt` operators combine coefficients with `LaurentPoly` arithmetic,
whose results need no validation (see `laurent`); the public
`HeckeElt(tag, coeffs)` drops zero coefficients, and the private
`_trusted_elt` wraps a map that already has none (a relabelling of an
element, a finished basis element).
"""

from __future__ import annotations

from .cosetlab import CosetStep, IntegralData, IntegralModel, ThetaCosets
from .laurent import LaurentPoly

__all__ = [
    "SpaceMismatchError",
    "HeckeElt",
    "global_tag",
    "model_tag",
    "delta",
    "t_alpha",
    "t_alpha_model",
    "right_mult_simple",
    "restrict_lambda",
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


def delta(tag, cid: int) -> HeckeElt:
    return HeckeElt(tag, {cid: LaurentPoly.one()})


def _own_tag(x: HeckeElt, tag):
    """x's tag, after checking that it equals tag."""
    if x.tag is not tag and x.tag != tag:
        raise SpaceMismatchError(f"element tagged {x.tag} is not in {tag}")
    return x.tag


def _apply_three_case(x: HeckeElt, tc: ThetaCosets, s, tag) -> HeckeElt:
    times_simple = tc.times_simple
    out: dict[int, LaurentPoly] = {}
    for cid, poly in x.coeffs.items():
        step, target = times_simple(cid, s)
        if step is CosetStep.FIX:
            continue
        shifted = poly.shift(1 if step is CosetStep.RAISE else -1)
        prev = out.get(cid)
        out[cid] = shifted if prev is None else prev + shifted
        prev = out.get(target)
        out[target] = poly if prev is None else prev + poly
    return HeckeElt(tag, out)


def t_alpha(tc: ThetaCosets, alpha: int, x: HeckeElt) -> HeckeElt:
    """T_alpha on the global module: q d_C + d_{C s} / 0 / q^-1 d_C + d_{C s}."""
    tag = _own_tag(x, global_tag(tc))
    return _apply_three_case(x, tc, alpha, tag)


def t_alpha_model(model: IntegralModel, alpha_root: int, x: HeckeElt) -> HeckeElt:
    """The same three-case operator inside one integral model."""
    if alpha_root not in model.pi_lambda:
        raise ValueError(f"root {alpha_root} is not in Pi_lambda")
    tag = _own_tag(x, model_tag(model))
    return _apply_three_case(x, model.quotient, alpha_root, tag)


def right_mult_simple(tc: ThetaCosets, x: HeckeElt, i: int) -> HeckeElt:
    """Relabel basis indices by C -> C s_i (the right W-action on labels).

    C -> C s_i is a bijection on cosets, so no two coefficients meet.
    """
    tag = _own_tag(x, global_tag(tc))
    out: dict[int, LaurentPoly] = {}
    for cid, poly in x.coeffs.items():
        _, target = tc.times_simple(cid, i)
        if target in out:
            raise AssertionError(f"C -> C s_{i} sends two cosets to {target}")
        out[target] = poly
    return _trusted_elt(tag, out)


def restrict_lambda(
    tc: ThetaCosets,
    idata: IntegralData,
    models: list[IntegralModel],
    x: HeckeElt,
) -> list[HeckeElt]:
    """Split along double cosets and relabel into each integral model."""
    _own_tag(x, global_tag(tc))
    pieces = []
    seen: set[int] = set()
    for model in models:
        coeffs = {}
        for cid, poly in x.coeffs.items():
            f = model.restrict.get(cid)
            if f is not None:
                coeffs[f] = poly
                seen.add(cid)
        pieces.append(HeckeElt(model_tag(model), coeffs))
    missing = set(x.coeffs) - seen
    if missing:
        raise ValueError(f"coset ids {sorted(missing)} not covered by any model")
    return pieces
