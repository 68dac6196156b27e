"""netvar: variability statistics and significance tests for bootstrapped
network structures.

A collection of graphs over a fixed node set is modeled through its binary
edge-indicator vectors.  The package estimates the first and second
moments of that vector, summarizes structure variability (trace,
determinant and Frobenius statistics with normalized forms), tests the
maximum-entropy null both asymptotically and by parametric Monte Carlo,
and ships a CLI (``netvar``) over all of it.

``import netvar`` loads no submodule and no numpy: each module loads on
first use of one of its names here (``netvar.CovMatrix`` loads moments).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # module: the public names it defines
    "asymptotic": ("TestResult", "test_gen_gamma", "test_gen_gaussian", "test_nagao",
                   "test_total"),
    "distributions": ("chi_square_cdf", "gamma_cdf", "reg_lower_gamma", "reg_upper_gamma",
                      "std_normal_cdf"),
    "graphs": ("NodeSet", "SampleSet", "SampleSetError", "biorient", "edge_index", "edge_pairs",
               "format_sample_set", "parse_sample_set", "sample_set_from_edge_lists"),
    "moments": ("CovMatrix", "Diagnostic", "MomentEstimate", "Violation", "estimate_moments",
                "validate_covariance"),
    "montecarlo": ("McEstimate", "mc_pvalues", "observed_statistic_exact",
                   "sample_null_statistics"),
    "variability": ("EntropySummary", "GenVar", "StatKind", "StatValue", "classify_entropy",
                    "describe", "frobenius_bounds", "var_frobenius", "var_generalized",
                    "var_total"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):  # PEP 562: only names not yet in the namespace reach here
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
