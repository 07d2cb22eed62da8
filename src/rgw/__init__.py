"""Reinforced Galton-Watson processes: rate functions, simulation, persistence.

A reinforced Galton-Watson tree grows from a reproduction law ``nu`` and a
memory parameter ``q``: each individual repeats the offspring number of a
uniformly chosen ancestor on its lineage with probability q and otherwise
draws fresh from nu. The package computes the large-deviation machinery of
lineage empirical measures (cumulant generating functions, rate functions,
concentration targets), simulates the trees and their urn and spine
representations, classifies offspring laws as evanescent or persistent, and
certifies survival of persistent traits, cross-validating every analytic
quantity against independent Monte Carlo and enumeration oracles.
"""

from .errors import (
    ContractViolationError,
    DegenerateLawError,
    InfeasibleError,
    NumericError,
    StatisticalFailureError,
    SupportMismatchError,
)
from .measures import (
    EmpiricalMeasure,
    LogWeights,
    OffspringLaw,
    ProbVector,
    align,
    linf_distance,
    load_offspring_law,
    log_degree_weights,
    mixed_entropy,
    offspring_law_from_json,
    pair,
    relative_entropy,
    size_biased,
)
from .rate import (
    RateDual,
    concentration_target,
    growth_exponent,
    min_rate_over_halfspace,
    reinforced_log_mgf,
    reinforced_log_mgf_grad,
    reinforced_rate,
)
from .rng import RngStream
from .control import (
    ControlPath,
    rate_by_control,
)
from .simulate import (
    ReplacementSpectrum,
    SpineUrnState,
    TreeCampaign,
    enumerate_expected_counts,
    gibbs_conditional_estimate,
    many_to_one_estimate,
    replacement_matrix,
    simulate_reinforced_urn,
    simulate_spine_urn,
    simulate_tree_campaign,
)
from .classify import (
    DECISION_TOL,
    TwoTypeCertificate,
    Verdict,
    VerdictKind,
    classify_memoryless,
    classify_reinforced,
    min_memory_for_persistence,
    search_two_type_decomposition,
    two_type_weak_persistence,
)
from .survival import (
    SurvivalReport,
    activity_constraint_residual,
    activity_from_law,
    lambert_w0,
    law_from_activity,
    proportional_baseline,
    solve_survival_minimizer,
    stationarity_ratios,
    survival_functional,
    validate_activities,
)
from .verify import verify_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
