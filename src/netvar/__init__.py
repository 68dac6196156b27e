"""netvar: variability statistics and significance tests for bootstrapped
network structures.

A collection of graphs over a fixed node set is modeled through its binary
edge-indicator vectors.  The package estimates the first and second
moments of that vector, summarizes structure variability (trace,
determinant and Frobenius statistics with normalized forms), tests the
maximum-entropy null both asymptotically and by parametric Monte Carlo,
and ships a CLI (``netvar``) over all of it.
"""

from .asymptotic import (
    TestResult,
    test_gen_gamma,
    test_gen_gaussian,
    test_nagao,
    test_total,
)
from .distributions import (
    chi_square_cdf,
    gamma_cdf,
    reg_lower_gamma,
    reg_upper_gamma,
    std_normal_cdf,
)
from .graphs import (
    NodeSet,
    SampleSet,
    SampleSetError,
    biorient,
    edge_index,
    edge_pairs,
    format_sample_set,
    parse_sample_set,
    sample_set_from_edge_lists,
)
from .moments import (
    CovMatrix,
    Diagnostic,
    MomentEstimate,
    Violation,
    estimate_moments,
    marginal_subvector,
    validate_covariance,
)
from .variability import (
    EntropySummary,
    GenVar,
    StatKind,
    StatValue,
    classify_entropy,
    describe,
    frobenius_bounds,
    normalize,
    var_frobenius,
    var_generalized,
    var_total,
)

__version__ = "0.1.0"

__all__ = [
    "CovMatrix",
    "Diagnostic",
    "EntropySummary",
    "GenVar",
    "McEstimate",
    "MomentEstimate",
    "NodeSet",
    "SampleSet",
    "SampleSetError",
    "StatKind",
    "StatValue",
    "TestResult",
    "Violation",
    "biorient",
    "chi_square_cdf",
    "classify_entropy",
    "describe",
    "edge_index",
    "edge_pairs",
    "estimate_moments",
    "format_sample_set",
    "frobenius_bounds",
    "gamma_cdf",
    "marginal_subvector",
    "mc_pvalues",
    "normalize",
    "observed_statistic_exact",
    "parse_sample_set",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "sample_null_statistics",
    "sample_set_from_edge_lists",
    "std_normal_cdf",
    "test_gen_gamma",
    "test_gen_gaussian",
    "test_nagao",
    "test_total",
    "validate_covariance",
    "var_frobenius",
    "var_generalized",
    "var_total",
]


def __getattr__(name):  # PEP 562: montecarlo, and its thread pool, load on first use
    if name in ("McEstimate", "mc_pvalues", "observed_statistic_exact", "sample_null_statistics"):
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
