"""CDF routines for the reference distributions of the significance tests.

Self-contained on top of ``math``.  The gamma family is evaluated through
the regularized incomplete gamma function with the classic split: power
series below ``a + 1``, continued fraction above.  Both branches carry the
prefactor ``x^a e^-x / Gamma(a)`` (:func:`_log_prefactor`), so deep tails
come out with full relative accuracy instead of dying in a ``1 - cdf``
subtraction.  Lower-tail values down to about 1e-300 are representable;
anything smaller flushes to 0.
"""

import math

_EPS = 1e-16
_FPMIN = 1e-300
_MAX_ITER = 1_000_000
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling(a: float) -> float:
    """lgamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2): by its asymptotic series from
    a = 10 on, where six terms leave an error below 1e-15."""
    if a < 10.0:
        return math.lgamma(a) - ((a - 0.5) * math.log(a) - a + _HALF_LOG_2PI)
    b = 1.0 / (a * a)
    return (1 / 12 - b * (1 / 360 - b * (1 / 1260 - b * (1 / 1680 - b * (
        1 / 1188 - b * 691 / 360360))))) / a


def _log_prefactor(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)) = a (log1p(t) - t) + log(a / 2 pi) / 2 - stirling(a),
    t = (x - a) / a (DiDonato & Morris, ACM TOMS 12, 1986): no a log a is formed and
    cancelled, which cost about a log(a) eps.  Near x = a, log1p(t) - t is the series
    ``2 atanh(u) - t = 2 (u^3/3 + u^5/5 + ...) - t u``, u = t / (2 + t)."""
    t = (x - a) / a
    if abs(t) < 0.5:
        u = t / (2.0 + t)
        u2, power, tail = u * u, u, 0.0
        for n in range(3, 200, 2):
            power *= u2
            if tail + power / n == tail:
                break
            tail += power / n
        d = 2.0 * tail - t * u
    else:  # two logs: log1p(t) loses digits as x / a -> 0, where x / a may underflow
        d = math.log(x) - math.log(a) - t
    return a * d + 0.5 * math.log(a) - _HALF_LOG_2PI - _stirling(a)


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
            return math.exp(_log_prefactor(a, x) + math.log(total))
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
            return math.exp(_log_prefactor(a, x) + math.log(h))
    raise ArithmeticError(f"incomplete gamma fraction did not converge (a={a}, x={x})")


def _tail(a: float, x: float) -> tuple[bool, float]:
    """The tail computed directly at (a, x): ``(True, P)`` by series, or
    ``(False, Q)`` by continued fraction (and at x = inf, where Q = 0)."""
    if not a > 0:
        raise ValueError(f"shape must be positive, got {a}")
    if not x >= 0:  # NaN too
        raise ValueError(f"argument must be non-negative, got {x}")
    if x < a + 1.0:  # x = 0 included, where P = 0
        return True, _lower_series(a, x) if x > 0 else 0.0
    return False, _upper_cf(a, x) if x < math.inf else 0.0


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Absolute error is below 1e-10 for a <= 2^31 (t_T's shape m k / 2 at
    ``m k <= 2^32``, t_N's k (k + 1) / 4 up to k = 92681), where each loop
    also stays within its iteration cap; the lower tail keeps relative
    accuracy because it is summed directly rather than obtained by
    complementing the upper tail.  The continued fraction's Lentz start
    fails at scattered x near 1e300, which no test reaches (x <= 2^34 k).
    """
    lower, value = _tail(a, x)
    return value if lower else 1.0 - value


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x)."""
    lower, value = _tail(a, x)
    return 1.0 - value if lower else value


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
