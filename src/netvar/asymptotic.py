"""Asymptotic significance tests against the maximum-entropy null.

The null hypothesis is that every potential edge flips an independent
fair coin, i.e. the covariance matrix equals (1/4)*I.  Four statistics
are available:

* ``t_T``: scaled trace, chi-square with m*k degrees of freedom.
* ``t_G1``: scaled determinant ratio minus one, normal with variance 2k.
* ``t_G2``: scaled k-th root of the determinant ratio, gamma with shape
  k*(m+1-k)/2 and unit rate.
* ``t_N``: scaled squared Frobenius distance of 4*sigma from the
  identity, chi-square with k*(k+1)/2 degrees of freedom (upper tail).

The determinant ratio det(sigma) / det((1/4) I) is the strict
:attr:`~netvar.variability.GenVar.ratio`, as ``describe`` normalizes it.

Each result carries the raw significance and a finite-sample corrected
one that conditions the reference distribution on the attainable range of
the statistic; both are always computed.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import chi_square_cdf, gamma_cdf, std_normal_cdf
from .moments import CovMatrix
from .variability import _clamp01, var_generalized


@dataclass(frozen=True)
class TestResult:
    method: str
    statistic: float
    params: dict
    p_raw: float
    p_adjusted: float
    m: int
    k: int


def test_total(sigma: CovMatrix, m: int) -> TestResult:
    """Trace test: statistic 4*m*tr(sigma), lower tail of chi-square(m*k).

    The trace cannot exceed k/4, so the statistic is capped at m*k; the
    corrected significance conditions on that range.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    k = sigma.k
    stat = 4.0 * m * sigma.trace()
    df = m * k
    p_raw = chi_square_cdf(max(stat, 0.0), df)
    p_adj = _clamp01(p_raw / chi_square_cdf(df, df))
    return TestResult("t_T", stat, {"df": df}, p_raw, p_adj, m, k)


def test_gen_gaussian(sigma: CovMatrix, m: int) -> TestResult:
    """Determinant test, Gaussian form: sqrt(m)*(det ratio - 1) ~ N(0, 2k).

    The statistic lives in [-sqrt(m), 0]; the corrected significance is
    the raw one conditioned on that window (clamped to [0, 1] against
    boundary rounding).
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    k = sigma.k
    stat = math.sqrt(m) * (var_generalized(sigma).ratio - 1.0)
    sd = math.sqrt(2.0 * k)
    p_raw = std_normal_cdf(min(max(stat / sd, -40.0), 40.0))  # Phi is 0 or 1 past |z| = 39
    lower = std_normal_cdf(-math.sqrt(m) / sd)
    p_adj = _clamp01((p_raw - lower) / (0.5 - lower))
    return TestResult("t_G1", stat, {"mean": 0.0, "var": 2.0 * k}, p_raw, p_adj, m, k)


def test_gen_gamma(sigma: CovMatrix, m: int) -> TestResult:
    """Determinant test, gamma form.

    Statistic (m*k/2) * (det ratio)^(1/k), lower tail of a
    Gamma(k*(m+1-k)/2, 1); needs m + 1 > k for a positive shape.  The
    statistic is capped at m*k/2, which the correction conditions on.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    k = sigma.k
    shape = k * (m + 1 - k) / 2.0
    if shape <= 0:
        raise ValueError(f"gamma shape non-positive: need m + 1 > k, got m={m}, k={k}")
    lam, ratio = sigma.eigenvalues, var_generalized(sigma).ratio
    if ratio < sys.float_info.min and lam.min() > 0:  # underflowed (k = 1225 under the null)
        root = 4.0 * math.exp(float(np.mean(np.log(lam))))  # geometric mean of 4*lambda
    else:
        root = max(ratio, 0.0) ** (1.0 / k)  # indefinite forced inputs act as singular
    stat = (m * k / 2.0) * root
    p_raw = gamma_cdf(stat, shape)
    p_adj = _clamp01(p_raw / gamma_cdf(m * k / 2.0, shape))
    return TestResult("t_G2", stat, {"shape": shape, "rate": 1.0}, p_raw, p_adj, m, k)


def nagao_statistic_max(m: int, k: int) -> float:
    """Largest attainable Nagao statistic over admissible eigenvalues.

    The squared distance sum((lambda - 1/4)^2) is convex, so its maximum
    over the admissible set (lambda >= 0, sum <= k/4) sits at a vertex:
    all mass on one eigenvalue gives k*(k-1)/16 for k >= 2, while for
    k = 1 the best vertex is the origin with value 1/16.
    """
    peak = k * (k - 1) / 16.0 if k >= 2 else 1.0 / 16.0
    return 8.0 * m * peak


def test_nagao(sigma: CovMatrix, m: int) -> TestResult:
    """Sphericity-style distance test: 8*m*sum((lambda - 1/4)^2), upper tail.

    Reference distribution chi-square with k*(k+1)/2 degrees of freedom.
    The correction conditions on the statistic's attainable range
    [0, t_max]; see :func:`nagao_statistic_max`.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    k = sigma.k
    with np.errstate(over="ignore"):  # eigenvalues past ~1e154 square to inf
        stat = 8.0 * m * float(np.sum((sigma.eigenvalues - 0.25) ** 2))
    df = k * (k + 1) / 2.0
    p_raw = chi_square_cdf(stat, df, upper=True)
    t_max = nagao_statistic_max(m, k)
    upper_at_max = chi_square_cdf(t_max, df, upper=True)
    p_adj = _clamp01((p_raw - upper_at_max) / chi_square_cdf(t_max, df))
    return TestResult("t_N", stat, {"df": df}, p_raw, p_adj, m, k)


METHODS = {
    "tt": test_total,
    "tg1": test_gen_gaussian,
    "tg2": test_gen_gamma,
    "tn": test_nagao,
}
