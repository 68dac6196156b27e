import math

import mpmath as mp
import numpy as np
import pytest

from netvar import asymptotic
from netvar.graphs import SampleSet
from netvar.moments import CovMatrix, estimate_moments
from netvar.montecarlo import mc_pvalues
from netvar.variability import StatKind

mp.mp.dps = 40

S1 = CovMatrix(np.array([[6.0, 1.0], [1.0, 6.0]]) / 25.0)
S2 = CovMatrix(np.array([[66.0, -21.0], [-21.0, 126.0]]) / 625.0)
S3 = CovMatrix(np.array([[66.0, 91.0], [91.0, 126.0]]) / 625.0)
QI2 = CovMatrix(0.25 * np.eye(2))
ZERO2 = CovMatrix(np.zeros((2, 2)))


def test_total_sigma1_m10():
    r = asymptotic.test_total(S1, 10)
    assert r.statistic == pytest.approx(19.2, abs=1e-12)
    assert r.params == {"df": 20}
    assert r.p_raw == pytest.approx(0.4911379, abs=5e-8)
    assert r.p_adjusted == pytest.approx(0.906041, abs=5e-7)


def test_total_sigma2_m50():
    r = asymptotic.test_total(S2, 50)
    assert r.p_raw == pytest.approx(0.00085298104, rel=1e-7)


def test_total_at_null_point():
    r = asymptotic.test_total(QI2, 17)
    assert r.statistic == pytest.approx(17 * 2, abs=1e-12)
    assert r.p_adjusted == pytest.approx(1.0, abs=1e-12)


def test_gen_gaussian_examples():
    r = asymptotic.test_gen_gaussian(QI2, 12)
    assert r.statistic == pytest.approx(0.0, abs=1e-12)
    assert r.p_raw == pytest.approx(0.5, abs=1e-12)
    assert r.p_adjusted == pytest.approx(1.0, abs=1e-12)

    r = asymptotic.test_gen_gaussian(ZERO2, 25)
    assert r.statistic == pytest.approx(-5.0, abs=1e-12)
    assert r.p_raw == pytest.approx(float(mp.ncdf(-2.5)), abs=1e-12)
    assert r.p_adjusted == 0.0  # determinant 0 pins the statistic to -sqrt(m)

    r = asymptotic.test_gen_gaussian(S1, 10)
    assert r.statistic == pytest.approx(math.sqrt(10) * (16 * 0.056 - 1), rel=1e-12)
    assert r.p_raw == pytest.approx(0.434693, abs=5e-7)


def test_gen_gamma_at_k1225_takes_the_root_in_the_log_domain():
    # the product of 4 * lambda underflows to 0 at k = 1225; the statistic
    # is (m*k/2) times the geometric mean of 4 * lambda
    r = asymptotic.test_gen_gamma(CovMatrix(np.eye(1225) / 8), 1300)
    assert r.statistic == pytest.approx(1300 * 1225 / 4, rel=1e-12)
    # a fair-coin sample (v = 50 nodes) is far from rejected
    rows = np.random.default_rng(1225).integers(0, 2, size=(1361, 1225), dtype=np.uint8)
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    r = asymptotic.test_gen_gamma(sigma, 1361)
    sign, logdet = np.linalg.slogdet(4.0 * sigma.entries)
    assert sign == 1.0
    assert r.statistic == pytest.approx(1361 * 1225 / 2 * math.exp(logdet / 1225), rel=1e-9)
    assert r.p_raw == 1.0


def test_gen_gamma_sigma1_m10():
    r = asymptotic.test_gen_gamma(S1, 10)
    assert r.statistic == pytest.approx(10 * math.sqrt(0.896), rel=1e-12)
    assert r.params["shape"] == 9
    assert r.p_raw == pytest.approx(0.6039442, abs=5e-8)
    assert r.p_adjusted == pytest.approx(0.9052188, abs=5e-8)


def test_gen_gamma_extreme_tail():
    r = asymptotic.test_gen_gamma(S3, 20)
    assert r.p_raw == pytest.approx(2.03e-20, rel=5e-3)


def test_gen_gamma_zero_matrix_and_shape_guard():
    r = asymptotic.test_gen_gamma(ZERO2, 9)
    assert r.statistic == 0.0 and r.p_raw == 0.0
    with pytest.raises(ValueError, match="gamma shape non-positive"):
        asymptotic.test_gen_gamma(S1, 1)  # m + 1 == k


def test_forced_determinant_tests_read_the_sign_of_the_ratio():
    # the tests read det(sigma) / 4^-k, not the eigenvalues' signs: under
    # --force diag(-0.1, -0.1) has ratio 0.16, as diag(0.1, 0.1) does, and
    # every determinant statistic equals the positive matrix's.  Only a
    # negative ratio (an odd number of negative eigenvalues) acts as singular
    negative, positive = (CovMatrix(np.diag([v, v])) for v in (-0.1, 0.1))
    for test in (asymptotic.test_gen_gaussian, asymptotic.test_gen_gamma):
        assert test(negative, 10) == test(positive, 10)
    assert asymptotic.test_gen_gamma(negative, 10).statistic == pytest.approx(4.0, abs=1e-12)
    t_g1 = asymptotic.test_gen_gaussian(negative, 10).statistic
    assert t_g1 == pytest.approx(-2.656313, abs=5e-7)
    (got,), (expected,) = (mc_pvalues(s, (StatKind.GENERALIZED,), 2000, 10, seed=1)
                           for s in (negative, positive))
    assert got == expected and got.observed_statistic == 1 / 16 - 0.01 and got.p_value > 0
    assert asymptotic.test_gen_gamma(CovMatrix(np.diag([-0.1, 0.1])), 10).statistic == 0.0


def test_nagao_sigma1_m10():
    r = asymptotic.test_nagao(S1, 10)
    assert r.statistic == pytest.approx(0.272, abs=1e-12)
    assert r.params == {"df": 3}
    assert r.p_raw == pytest.approx(0.9652055, abs=5e-8)
    assert r.p_adjusted == pytest.approx(0.9645473, abs=5e-8)


def test_nagao_extreme_and_null():
    assert asymptotic.test_nagao(S3, 200).p_raw == pytest.approx(1.34e-22, rel=5e-3)
    r = asymptotic.test_nagao(QI2, 33)
    assert r.statistic == 0.0 and r.p_raw == 1.0


def test_nagao_statistic_max():
    # k=2 bound equals m: truncation point of the corrected tail
    assert asymptotic.nagao_statistic_max(10, 2) == 10.0
    assert asymptotic.nagao_statistic_max(7, 5) == 7 * 5 * 4 / 2
    # k=1: the admissible set is [0, 1/4]; the vertex at 0 is the max
    assert asymptotic.nagao_statistic_max(12, 1) == 6.0


def test_nagao_k1_correction_stays_in_range():
    one = CovMatrix([[0.16]])
    r = asymptotic.test_nagao(one, 40)
    assert 0.0 <= r.p_adjusted <= 1.0
    assert 0.0 <= r.p_raw <= 1.0


def test_trace_equal_matrices_give_equal_total_test():
    for m in (10, 20, 50, 100, 200):
        a = asymptotic.test_total(S2, m)
        b = asymptotic.test_total(S3, m)
        assert a.statistic == b.statistic
        assert a.p_raw == b.p_raw and a.p_adjusted == b.p_adjusted


def test_all_tests_do_not_reject_at_null():
    for m in (5, 50):
        assert asymptotic.test_total(QI2, m).p_raw >= 0.5
        assert asymptotic.test_gen_gaussian(QI2, m).p_raw >= 0.5
        assert asymptotic.test_gen_gamma(QI2, m).p_raw >= 0.5
        assert asymptotic.test_nagao(QI2, m).p_raw == 1.0


def test_adjusted_dominates_raw_for_ratio_corrections():
    rng = np.random.default_rng(10)
    for _ in range(200):
        m = int(rng.integers(2, 60))
        a = rng.uniform(-0.25, 0.25, size=(2, 2))
        sig = CovMatrix(np.clip((a + a.T) / 2, -0.24, 0.24) * 0.5 + 0.12 * np.eye(2))
        for fn in (asymptotic.test_total, asymptotic.test_gen_gamma):
            r = fn(sig, m)
            assert r.p_adjusted >= r.p_raw - 1e-15
            assert 0.0 <= r.p_adjusted <= 1.0


def test_p_values_bounded_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(4, 80))
        k = int(rng.integers(1, 5))
        x = rng.integers(0, 2, size=(m, k)).astype(float)
        cov = np.cov(x, rowvar=False, bias=True).reshape(k, k)
        sig = CovMatrix(cov)
        for fn in (asymptotic.test_total, asymptotic.test_gen_gaussian,
                   asymptotic.test_nagao):
            r = fn(sig, m)
            assert 0.0 <= r.p_raw <= 1.0
            assert 0.0 <= r.p_adjusted <= 1.0


def test_monotone_in_m_for_non_null_matrix():
    for fn in (asymptotic.test_total, asymptotic.test_gen_gamma):
        for sig in (S2, S3):
            ps = [fn(sig, m).p_raw for m in (10, 20, 50, 100, 200)]
            assert all(b <= a for a, b in zip(ps, ps[1:]))


def test_nagao_eigen_form_equals_trace_form():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        a = rng.uniform(0, 0.25, size=(k, k))
        sig = CovMatrix((a + a.T) / 2)
        m = int(rng.integers(1, 50))
        direct = (m / 2.0) * np.trace(
            np.linalg.matrix_power(4.0 * sig.entries - np.eye(k), 2)
        )
        r = asymptotic.test_nagao(sig, m)
        assert r.statistic == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_sample_count_guard():
    for fn in (asymptotic.test_total, asymptotic.test_gen_gaussian,
               asymptotic.test_gen_gamma, asymptotic.test_nagao):
        with pytest.raises(ValueError, match="sample count"):
            fn(S1, 0)
