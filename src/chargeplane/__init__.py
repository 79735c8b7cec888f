"""Resonance location for potential scattering via eigenvalue trajectories
of the complex-rotated charge operator in a Laguerre basis."""

from .basis import ChannelConfig, QuadratureRule, build_j_matrix, gauss_rule
from .config import parse_potential
from .eigensolver import EigenSet, eigen_decompose, eigenvalue_derivative, eigenvalues
from .errors import ChargePlaneError, ConfigError, DegenerateEigenvectorError, EigensolverError
from .hamiltonian import RotatedHamiltonian, potential_matrix
from .potential import (
    GAUSSIAN_WELL_POTENTIAL,
    R2_EXP_POTENTIAL,
    PotentialModel,
    PotentialTerm,
    eval_potential,
)
from .resonance import (
    Resonance,
    StabilityReport,
    auto_search,
    poles,
    refine_resonance,
    stability_reports,
)
from .trajectory import EnergyGrid, Trajectory, match_step, sweep

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "ChargePlaneError",
    "ConfigError",
    "DegenerateEigenvectorError",
    "EigenSet",
    "EigensolverError",
    "EnergyGrid",
    "GAUSSIAN_WELL_POTENTIAL",
    "PotentialModel",
    "PotentialTerm",
    "QuadratureRule",
    "R2_EXP_POTENTIAL",
    "Resonance",
    "RotatedHamiltonian",
    "StabilityReport",
    "Trajectory",
    "auto_search",
    "build_j_matrix",
    "eigen_decompose",
    "eigenvalue_derivative",
    "eigenvalues",
    "eval_potential",
    "gauss_rule",
    "match_step",
    "parse_potential",
    "poles",
    "potential_matrix",
    "refine_resonance",
    "stability_reports",
    "sweep",
]
