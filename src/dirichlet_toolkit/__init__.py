"""Truncated Dirichlet series: exact convolution algebra, Bohr lifts,
permutation-group invariant projections, and a numerical layer for sup
estimation and coefficient recovery.
"""

from .analysis import (
    convexity_check,
    line_sup,
    perron_error_bound,
    perron_recover,
    seminorm_Pr,
    seminorm_profile,
    sigma_u_plus_estimate,
)
from .bohr import (
    SparseMultiPoly,
    bohr_drop,
    bohr_lift,
    cauchy_coefficient,
    torus_sup,
)
from .group import (
    FiniteSupportPermutation,
    PermutationGroup,
    RulePermutation,
    act,
    group_average,
    hat_apply,
    infinite_index_cycle,
    invariant_orbit_sums,
    is_invariant,
    phi_restrict,
    project_invariant,
)
from .primes import PrimeTable
from .scalars import EXACT, FLOAT, ExactComplex
from .series import TruncatedDirichletSeries

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "ExactComplex",
    "FiniteSupportPermutation",
    "PermutationGroup",
    "PrimeTable",
    "RulePermutation",
    "SparseMultiPoly",
    "TruncatedDirichletSeries",
    "act",
    "bohr_drop",
    "bohr_lift",
    "cauchy_coefficient",
    "convexity_check",
    "group_average",
    "hat_apply",
    "infinite_index_cycle",
    "invariant_orbit_sums",
    "is_invariant",
    "line_sup",
    "perron_error_bound",
    "perron_recover",
    "phi_restrict",
    "project_invariant",
    "seminorm_Pr",
    "seminorm_profile",
    "sigma_u_plus_estimate",
    "torus_sup",
]
