"""Exact secant-variety, Grassmann-secant and identifiability engine.

Dimensions, defects, generic ranks and identifiability verdicts are
computed exactly over large prime fields; see the README for the CLI.
"""

from .field import CONFIRMATION_PRIME, DEFAULT_PRIME, DEFAULT_PRIMES
from .varieties import SegreVeroneseSpec, prepend_projective_factor
from .secant import SecantReport, classify_secant_range, expected_secant_dim, generic_rank, secant_dim
from .grassec import GrassmannSecantReport, expected_gs_dim, gs_dim_direct, gs_report
from .phimap import PluckerPoint, SecantWitness, SlicedTensor, count_decompositions, phi, random_secant_point
from .criteria import (
    DimsegreCase,
    IdentifiabilityVerdict,
    codimension_criterion,
    dimsegre_classify,
    identifiability_report,
    linear_system_report,
    never_defective_check,
    theorem_tre,
)
from .errors import BudgetExceededError, InconsistencyError, SamplingError

__version__ = "0.1.0"

__all__ = [
    "CONFIRMATION_PRIME",
    "DEFAULT_PRIME",
    "DEFAULT_PRIMES",
    "SegreVeroneseSpec",
    "prepend_projective_factor",
    "SecantReport",
    "classify_secant_range",
    "expected_secant_dim",
    "generic_rank",
    "secant_dim",
    "GrassmannSecantReport",
    "expected_gs_dim",
    "gs_dim_direct",
    "gs_report",
    "PluckerPoint",
    "SecantWitness",
    "SlicedTensor",
    "count_decompositions",
    "phi",
    "random_secant_point",
    "DimsegreCase",
    "IdentifiabilityVerdict",
    "codimension_criterion",
    "dimsegre_classify",
    "identifiability_report",
    "linear_system_report",
    "never_defective_check",
    "theorem_tre",
    "BudgetExceededError",
    "InconsistencyError",
    "SamplingError",
    "__version__",
]
