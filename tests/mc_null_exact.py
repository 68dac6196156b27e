"""Exact oracles for the Monte Carlo statistics.

``statistic`` evaluates a statistic of an exact covariance matrix in
plain ``Fraction`` arithmetic (Gaussian elimination for the
determinant), independently of the integer forms the library uses;
``replicate_covariance`` builds a replicate's exact covariance from its
counts.

Exact null distribution of the k=2 statistics:

For k = 2 the plug-in covariance of m independent fair-coin edge pairs is
a function of the multinomial cell counts (n11, n10, n01, n00).  This
module enumerates those counts and evaluates, in exact integer
arithmetic, which side of the observed statistic every outcome falls on;
the resulting p-values are exact up to the float rounding of the
multinomial weights (~1e-13 relative).

Inclusive counts outcomes with statistic == observed, strict does not;
the gap between the two is the probability mass sitting exactly on the
observed value (zero unless the observed covariance is realizable at m).
"""

from fractions import Fraction
from math import lgamma, log

import numpy as np


def exact_pvalues(m: int, t0: Fraction, kind: str) -> tuple[float, float]:
    """(inclusive, strict) null p-values for one observed statistic.

    ``kind`` is one of "total", "generalized", "frobenius"; ``t0`` the
    observed statistic as an exact rational.
    """
    a, b = t0.numerator, t0.denominator
    lg = [lgamma(i + 1) for i in range(m + 1)]
    log4m = m * log(4.0)
    incl = excl = 0.0
    m2 = m * m
    for n11 in range(m + 1):
        rest = m - n11
        n10 = np.arange(rest + 1)
        n01g, n10g = np.meshgrid(n10, n10)
        mask = n10g + n01g <= rest
        n10v = n10g[mask].astype(np.int64)
        n01v = n01g[mask].astype(np.int64)
        n00v = rest - n10v - n01v
        lw = (
            lgamma(m + 1)
            - lg[n11]
            - np.array([lg[i] for i in n10v])
            - np.array([lg[i] for i in n01v])
            - np.array([lg[i] for i in n00v])
            - log4m
        )
        w = np.exp(lw)
        s1 = n11 + n10v
        s2 = n11 + n01v
        d1 = 4 * s1 * (m - s1)  # 4 m^2 sigma_11
        d2 = 4 * s2 * (m - s2)
        c4 = 4 * (m * n11 - s1 * s2)  # 4 m^2 sigma_12
        if kind == "total":
            lhs = (2 * m2 - (d1 + d2)) * b  # T* scaled by 4 m^2, then by b
            rhs = a * 4 * m2
        elif kind == "generalized":
            lhs = (m2 * m2 - (d1 * d2 - c4 * c4)) * b  # T* x 16 m^4
            rhs = a * 16 * m2 * m2
        elif kind == "frobenius":
            lhs = ((d1 - m2) ** 2 + (d2 - m2) ** 2 + 2 * c4 * c4) * b
            rhs = a * 16 * m2 * m2
        else:
            raise ValueError(kind)
        incl += float(w[lhs >= rhs].sum())
        excl += float(w[lhs > rhs].sum())
    return incl, excl


def replicate_covariance(s1, s2, m: int) -> list[list[Fraction]]:
    """Plug-in covariance of one replicate from its counts, as Fractions."""
    k = len(s1)
    return [[Fraction(m * int(s2[i][j]) - int(s1[i]) * int(s1[j]), m * m) for j in range(k)]
            for i in range(k)]


def determinant(cov) -> Fraction:
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    a = [list(row) for row in cov]
    n, det = len(a), Fraction(1)
    for i in range(n):
        pivot = next((r for r in range(i, n) if a[r][i] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            a[i], a[pivot] = a[pivot], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return det


def statistic(kind: str, cov) -> Fraction:
    """Distance-from-maximum-entropy statistic of an exact covariance.

    ``kind`` is one of "total", "generalized", "frobenius"; ``cov`` a
    square matrix of Fractions.
    """
    k = len(cov)
    quarter = Fraction(1, 4)
    if kind == "total":
        return k * quarter - sum(cov[i][i] for i in range(k))
    if kind == "generalized":
        return quarter**k - determinant(cov)
    if kind == "frobenius":
        return sum((cov[i][j] - (quarter if i == j else 0)) ** 2
                   for i in range(k) for j in range(k))
    raise ValueError(kind)
