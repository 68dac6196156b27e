"""CDF routines for the reference distributions of the significance tests.

Self-contained on top of ``math``.  The gamma family is evaluated through
the regularized incomplete gamma function with the classic split: power
series below ``a + 1``, continued fraction above.  Both branches carry the
``exp(a*log(x) - x - lgamma(a))`` prefactor, so deep tails come out with
full relative accuracy instead of dying in a ``1 - cdf`` subtraction.
Lower-tail values down to about 1e-300 are representable; anything smaller
flushes to 0.
"""

import math

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 1_000_000


def _lower_series(a: float, x: float) -> float:
    """P(a, x) by series; preferred for x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return math.exp(a * math.log(x) - x - math.lgamma(a) + math.log(total))
    raise ArithmeticError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _upper_cf(a: float, x: float) -> float:
    """Q(a, x) by modified Lentz continued fraction; preferred for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return math.exp(a * math.log(x) - x - math.lgamma(a) + math.log(h))
    raise ArithmeticError(f"incomplete gamma fraction did not converge (a={a}, x={x})")


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Absolute error is below 1e-10 everywhere; the lower tail keeps
    relative accuracy because it is summed directly rather than obtained
    by complementing the upper tail.
    """
    if not a > 0:
        raise ValueError(f"shape must be positive, got {a}")
    if x < 0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_series(a, x)
    return 1.0 - _upper_cf(a, x)


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    if not a > 0:
        raise ValueError(f"shape must be positive, got {a}")
    if x < 0:
        raise ValueError(f"argument must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _lower_series(a, x)
    return _upper_cf(a, x)


def gamma_cdf(x: float, shape: float) -> float:
    """CDF of the Gamma(shape, rate 1) distribution."""
    return reg_lower_gamma(shape, x)


def chi_square_cdf(x: float, df: float, upper: bool = False) -> float:
    """CDF of the chi-square distribution with ``df`` degrees of freedom."""
    if not df > 0:
        raise ValueError(f"degrees of freedom must be positive, got {df}")
    if upper:
        return reg_upper_gamma(df / 2.0, x / 2.0)
    return reg_lower_gamma(df / 2.0, x / 2.0)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
