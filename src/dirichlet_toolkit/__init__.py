"""Truncated Dirichlet series: exact convolution algebra, Bohr lifts,
permutation-group invariant projections, and a numerical layer for sup
estimation and coefficient recovery.
"""

from .analysis import (
    convexity_check,
    line_sup,
    partial_sum,
    perron_error_bound,
    perron_recover,
    seminorm_Pr,
    seminorm_profile,
    sigma_u_plus_estimate,
)
from .bohr import (
    PolydiscPoint,
    SparseMultiPoly,
    bohr_drop,
    bohr_lift,
    cauchy_coefficient,
    eval_c,
    poly_eval,
    torus_sup,
)
from .group import (
    FiniteSupportPermutation,
    IntegerOrbit,
    OrbitPartition,
    PermutationGroup,
    RulePermutation,
    act,
    group_average,
    hat_apply,
    index_orbits,
    infinite_index_cycle,
    integer_orbit,
    invariant_orbit_sums,
    is_invariant,
    phi_restrict,
    project_invariant,
)
from .primes import Factorization, PrimeTable
from .scalars import EXACT, FLOAT, ExactComplex
from .series import TruncatedDirichletSeries

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "ExactComplex",
    "Factorization",
    "FiniteSupportPermutation",
    "IntegerOrbit",
    "OrbitPartition",
    "PermutationGroup",
    "PolydiscPoint",
    "PrimeTable",
    "RulePermutation",
    "SparseMultiPoly",
    "TruncatedDirichletSeries",
    "act",
    "bohr_drop",
    "bohr_lift",
    "cauchy_coefficient",
    "convexity_check",
    "eval_c",
    "group_average",
    "hat_apply",
    "index_orbits",
    "infinite_index_cycle",
    "integer_orbit",
    "invariant_orbit_sums",
    "is_invariant",
    "line_sup",
    "partial_sum",
    "perron_error_bound",
    "perron_recover",
    "phi_restrict",
    "poly_eval",
    "project_invariant",
    "seminorm_Pr",
    "seminorm_profile",
    "sigma_u_plus_estimate",
    "torus_sup",
]
