import math

import mpmath as mp
import numpy as np
import pytest

from netvar.distributions import (
    chi_square_cdf,
    gamma_cdf,
    reg_lower_gamma,
    reg_upper_gamma,
    std_normal_cdf,
)

mp.mp.dps = 40


def mp_lower(a, x):
    return float(mp.gammainc(a, 0, x, regularized=True))


def mp_upper(a, x):
    return float(mp.gammainc(a, x, mp.inf, regularized=True))


def test_lower_gamma_at_zero():
    for a in (0.5, 1.0, 3.7, 200.0):
        assert reg_lower_gamma(a, 0.0) == 0.0
        assert reg_upper_gamma(a, 0.0) == 1.0


@pytest.mark.parametrize("x", [1.0, 2.0, 5.0])
def test_lower_gamma_shape_one_is_exponential(x):
    assert reg_lower_gamma(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-14)


def test_lower_gamma_known_value():
    # statistic/shape pair behind the gamma determinant test at m=10; the
    # quoted x is itself rounded, so compare loosely there and exactly at x
    assert reg_lower_gamma(9, 9.46574) == pytest.approx(0.6039442, abs=5e-6)
    assert reg_lower_gamma(9, 9.46574) == pytest.approx(mp_lower(9, 9.46574), rel=1e-12)


@pytest.mark.parametrize(
    "a,x",
    [
        (0.5, 0.3), (1.5, 2.0), (2.0, 7.5), (9.0, 9.46574), (9.0, 10.0),
        (19.0, 0.7572586), (199.0, 7.5725738), (50.0, 120.0), (0.7, 40.0),
        (300.0, 300.0), (1e-3, 0.5), (5.0, 5.9999),
    ],
)
def test_gamma_tails_against_mpmath(a, x):
    lo, hi = mp_lower(a, x), mp_upper(a, x)
    assert reg_lower_gamma(a, x) == pytest.approx(lo, rel=1e-10, abs=1e-13)
    assert reg_upper_gamma(a, x) == pytest.approx(hi, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize("a", [1e5, 306250.0, 1e6, 2.0**31])
def test_gamma_at_large_shapes_against_mpmath(a):
    # x = a + f sqrt(a), the bulk: exp(a log x - x - lgamma(a)) lost about
    # a log(a) eps there (2e-10 at t_T's shape 306250 on a v50 input, 8e-7 at
    # 2^31, the largest shape of the tests)
    for f in (-1.0, 0.0):
        x = a + f * math.sqrt(a)
        upper = mp_upper(a, x)
        assert reg_upper_gamma(a, x) == pytest.approx(upper, rel=0, abs=1e-12)
        assert reg_lower_gamma(a, x) == pytest.approx(1.0 - upper, rel=0, abs=1e-12)


def test_extreme_lower_tail_keeps_relative_accuracy():
    # deep lower tail of the order 1e-201; must not underflow or lose digits
    val = reg_lower_gamma(199.0, 7.5725738)
    assert val == pytest.approx(mp_lower(199.0, 7.5725738), rel=1e-8)
    assert 1e-205 < val < 1e-195


def test_extreme_upper_tail_keeps_relative_accuracy():
    val = reg_upper_gamma(1.5, 60.0)
    assert val == pytest.approx(mp_upper(1.5, 60.0), rel=1e-10)
    assert 0 < val < 1e-20


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        reg_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(-2.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(1.0, -0.5)
    with pytest.raises(ValueError):
        chi_square_cdf(1.0, 0)
    with pytest.raises(ValueError, match="shape must be positive, got 0"):
        reg_upper_gamma(0, 1.0)
    with pytest.raises(ValueError, match="argument must be non-negative, got -1"):
        reg_upper_gamma(1.0, -1)
    with pytest.raises(ValueError, match="argument must be non-negative, got nan"):
        reg_lower_gamma(1.0, math.nan)


@pytest.mark.parametrize("a", [0.5, 1.5, 10.0, 1e6])
def test_gamma_at_infinity(a):
    # the end of the range, like x = 0: an overflowed statistic has p = 0
    assert reg_lower_gamma(a, math.inf) == 1.0
    assert reg_upper_gamma(a, math.inf) == 0.0
    assert chi_square_cdf(math.inf, 2 * a, upper=True) == 0.0


def test_chi_square_df2_closed_form():
    for x in np.linspace(0.0, 40.0, 81):
        assert chi_square_cdf(x, 2) == pytest.approx(1.0 - math.exp(-x / 2.0), abs=1e-12)


def test_chi_square_matches_gamma():
    assert chi_square_cdf(19.2, 20) == pytest.approx(mp_lower(10, 9.6), rel=1e-12)
    assert chi_square_cdf(0.272, 3, upper=True) == pytest.approx(
        mp_upper(1.5, 0.136), rel=1e-12
    )


def test_monotone_nondecreasing():
    for df in (1, 2, 3, 7.5, 40):
        vals = [chi_square_cdf(x, df) for x in np.linspace(0, 60, 200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    for shape in (0.3, 1.0, 9.0, 80.0):
        vals = [gamma_cdf(x, shape) for x in np.linspace(0, 150, 200)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    vals = [std_normal_cdf(x) for x in np.linspace(-10, 10, 401)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_complementarity_well_conditioned():
    for a, x in [(2.0, 1.0), (9.0, 9.0), (30.0, 28.0), (1.0, 0.3)]:
        assert reg_lower_gamma(a, x) + reg_upper_gamma(a, x) == pytest.approx(
            1.0, abs=1e-12
        )


def test_std_normal_values():
    assert std_normal_cdf(0.0) == 0.5
    # quantile and far tail against high-precision quadrature
    assert std_normal_cdf(1.959964) == pytest.approx(float(mp.ncdf(1.959964)), abs=1e-13)
    assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    assert std_normal_cdf(-8.0) == pytest.approx(float(mp.ncdf(-8)), rel=1e-12)
    assert std_normal_cdf(-8.0) == pytest.approx(6.22e-16, rel=1e-2)


def test_std_normal_symmetry_and_domain():
    for x in (0.1, 1.0, 2.5, 6.0):
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-14)
    with pytest.raises(ValueError):
        std_normal_cdf(float("nan"))
    with pytest.raises(ValueError):
        std_normal_cdf(float("inf"))
