"""Exact Whittaker Kazhdan-Lusztig polynomials and character formulas
over crystallographic root systems, for arbitrary infinitesimal characters."""

from .charformula import (
    CharacterFormula,
    invert_multiplicities,
    regular_formula,
    singular_formula,
)
from .cosetlab import (
    IntegralData,
    IntegralModel,
    StabilizerData,
    ThetaCosets,
    build_integral_model,
    build_theta_cosets,
    integral_data,
    stabilizer_data,
)
from .heckemodule import HeckeElt, SpaceMismatchError, global_tag, model_tag
from .klengine import (
    KLTable,
    build_kl_table,
    build_models,
    kl_basis_model,
    phi_direct,
    phi_transport,
)
from .laurent import LaurentPoly
from .rootsystem import (
    RootSystem,
    Weight,
    WeightFlags,
    build_root_system,
    pair,
    weight_flags,
)
from .weylgroup import WeylElt, WeylGroup, enumerate_group

__version__ = "0.1.0"

__all__ = [
    "CharacterFormula",
    "HeckeElt",
    "IntegralData",
    "IntegralModel",
    "KLTable",
    "LaurentPoly",
    "RootSystem",
    "SpaceMismatchError",
    "StabilizerData",
    "ThetaCosets",
    "Weight",
    "WeightFlags",
    "WeylElt",
    "WeylGroup",
    "build_integral_model",
    "build_kl_table",
    "build_models",
    "build_root_system",
    "build_theta_cosets",
    "enumerate_group",
    "global_tag",
    "integral_data",
    "invert_multiplicities",
    "kl_basis_model",
    "model_tag",
    "pair",
    "phi_direct",
    "phi_transport",
    "regular_formula",
    "singular_formula",
    "stabilizer_data",
    "weight_flags",
]
