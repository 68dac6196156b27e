import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from netvar import montecarlo
from netvar.graphs import SampleSet
from netvar.moments import CovMatrix, estimate_moments
from netvar.variability import (
    StatKind,
    classify_entropy,
    describe,
    frobenius_bounds,
    normalize,
    var_frobenius,
    var_generalized,
    var_total,
)

S1 = CovMatrix(np.array([[6.0, 1.0], [1.0, 6.0]]) / 25.0)
S2 = CovMatrix(np.array([[66.0, -21.0], [-21.0, 126.0]]) / 625.0)
S3 = CovMatrix(np.array([[66.0, 91.0], [91.0, 126.0]]) / 625.0)
ZERO2 = CovMatrix(np.zeros((2, 2)))
QI = lambda k: CovMatrix(0.25 * np.eye(k))


def test_var_total_examples():
    assert var_total(S1) == pytest.approx(0.48, abs=1e-15)
    assert var_total(S2) == pytest.approx(0.3072, abs=1e-15)
    assert var_total(ZERO2) == 0.0
    assert var_total(S2) == var_total(S3)  # equal traces by construction


def test_var_generalized_examples():
    assert var_generalized(S1, "strict").value == pytest.approx(0.056, abs=1e-12)
    assert var_generalized(S3, "strict").value == pytest.approx(8.96e-5, abs=1e-12)
    strict = var_generalized(S1, "strict")
    assert strict.k_effective == 2 and not strict.rank_deficient
    with pytest.raises(ValueError, match="rank_policy"):
        var_generalized(S1, "pseudo")


def test_var_generalized_reduce_drops_constant_edges():
    block = np.zeros((4, 4))
    block[:3, :3] = 0.25 * np.eye(3)
    gen = var_generalized(CovMatrix(block), "reduce")
    assert gen.value == pytest.approx(0.25**3, abs=1e-18)
    assert gen.k_effective == 3 and gen.rank_deficient
    # strict view of the same matrix is plain zero
    assert var_generalized(CovMatrix(block), "strict").value == 0.0
    # everything constant: empty product defined as zero variability
    gen = var_generalized(CovMatrix(np.zeros((3, 3))), "reduce")
    assert gen.value == 0.0 and gen.k_effective == 0 and gen.rank_deficient


def test_var_generalized_reduce_spectral_truncation():
    # full diagonal but rank-deficient: falls back to spectral truncation
    m = CovMatrix([[0.15, 0.15], [0.15, 0.15]])
    gen = var_generalized(m, "reduce")
    assert gen.k_effective == 1 and gen.rank_deficient
    assert gen.value == pytest.approx(0.3, rel=1e-12)


def test_strict_generalized_of_a_rank_one_matrix_at_the_float_range():
    # eigenvalues [inf, 0]: the zero makes the determinant 0, not inf * 0 = nan
    sigma = CovMatrix([[1e308, 1e308], [1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen = var_generalized(sigma, "strict")
    with np.errstate(over="ignore"):  # the trace overflows to inf, as under `--force`
        described = describe(sigma, "strict")[1]
    assert gen.value == 0.0 and gen.ratio == 0.0
    assert described.raw == 0.0 and described.normalized == 0.0


def test_describe_at_the_float_range_overflows_without_a_warning():
    # a library call has the CLI's np.errstate(over="ignore"): trace,
    # determinant and Frobenius distance overflow to inf with no
    # RuntimeWarning (an error in this suite), and the caller's state stays
    sigma = CovMatrix([[1e308, 0], [0, 1e308]])
    for policy in ("strict", "reduce"):
        values = describe(sigma, policy)
        assert [(v.raw, v.normalized) for v in values] == [(np.inf, 1.0), (np.inf, 1.0),
                                                           (np.inf, 0.0)]
    assert np.geterr()["over"] == "warn"


def test_reduce_on_constant_edges_matches_the_exact_core_determinant():
    # never-present and always-present edges have zero rows: reduce drops
    # their eigenvalues and keeps the other 19, whose product is the exact
    # determinant of the core to 1e-13
    rows = np.random.default_rng(16).integers(0, 2, size=(200, 28), dtype=np.uint8)
    rows[:, :6] = 0
    rows[:, 6:9] = 1
    sigma = estimate_moments(make_samples(rows)).sigma
    gen = var_generalized(sigma, "reduce")
    assert gen.k_effective == 19 and gen.rank_deficient
    num, den = sigma.exact
    core = np.ix_(range(9, 28), range(9, 28))
    exact = Fraction(int(montecarlo._int_det(num[core].astype(object))), den**19)
    assert abs(gen.value - exact) <= 1e-13 * exact
    assert gen.ratio == math.ldexp(gen.value, 38)  # 4 * lambda scales exactly


def test_reduce_keeps_tiny_diagonals_above_the_eigenvalue_cut():
    # a diagonal in (0, 1e-12] is not a constant edge: the top block's
    # eigenvalue 2e-12 is above RANK_EPS and is kept (sample data would need
    # more than 10^12 graphs for such a diagonal)
    sigma = CovMatrix.from_csv_text("1e-12,1e-12,0\n1e-12,1e-12,0\n0,0,0.25\n")
    gen = var_generalized(sigma, "reduce")
    assert gen.k_effective == 2 and gen.rank_deficient
    assert gen.value == pytest.approx(5e-13, rel=1e-12)


def test_var_frobenius_examples():
    assert var_frobenius(S1) == pytest.approx(0.1384, abs=1e-12)
    assert var_frobenius(S2) == pytest.approx(0.24685184, abs=1e-10)
    assert var_frobenius(ZERO2) == 0.5  # k^3/16 at the zero matrix, exactly


def test_var_frobenius_eigen_equals_entrywise():
    rng = np.random.default_rng(8)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        a = rng.uniform(-0.2, 0.2, size=(k, k))
        m = CovMatrix((a + a.T) / 2.0)
        direct = float(((m.entries - (k / 4.0) * np.eye(k)) ** 2).sum())
        assert var_frobenius(m) == pytest.approx(direct, abs=1e-9)


def test_frobenius_bounds():
    assert frobenius_bounds(2) == (0.125, 0.5)
    assert frobenius_bounds(1) == (0.0, 1.0 / 16.0)
    assert frobenius_bounds(3) == (0.75, 1.6875)
    with pytest.raises(ValueError):
        frobenius_bounds(0)


def test_normalize_examples():
    assert normalize(StatKind.TOTAL, 0.48, 2) == pytest.approx(0.96, abs=1e-15)
    assert normalize(StatKind.GENERALIZED, 0.056, 2) == pytest.approx(0.896, abs=1e-15)
    assert normalize(StatKind.FROBENIUS, 0.1384, 2) == pytest.approx(
        0.96426667, abs=5e-9
    )


def test_normalize_generalized_is_exact_past_k512():
    # 4^k scaling by exponent only: no exp/log rounding at large k
    raw = math.ldexp(0.5, -1040)
    assert normalize(StatKind.GENERALIZED, raw, 520) == 0.5
    assert normalize(StatKind.GENERALIZED, math.ldexp(1.0, -1040), 520) == 1.0
    assert math.copysign(1.0, normalize(StatKind.GENERALIZED, -0.0, 520)) == 1.0


def test_normalize_clamps_and_rejects():
    assert normalize(StatKind.TOTAL, -5e-10, 2) == 0.0
    assert normalize(StatKind.TOTAL, 0.5 + 5e-10, 2) == 1.0
    with pytest.raises(ValueError, match="outside"):
        normalize(StatKind.TOTAL, 0.6, 2)
    with pytest.raises(ValueError, match="outside"):
        normalize(StatKind.FROBENIUS, 0.05, 2)  # below the k=2 minimum


def test_extremes_orientation():
    # zero matrix: no variability at all, every normalized statistic is 0
    for sv in describe(ZERO2, "strict"):
        assert sv.normalized == 0.0
        assert sv.complemented == 1.0
    # quarter identity: maximal variability, every normalized statistic is 1
    for sv in describe(QI(3), "strict"):
        assert sv.normalized == 1.0
        assert sv.complemented == 0.0


@pytest.mark.parametrize("k", [538, 666])
def test_describe_quarter_identity_past_the_raw_underflow(k):
    # the raw determinant 4^-k is 0 in floats from k = 538 on; the
    # normalized value is the product of 4 * lambda, which stays 1
    gen = describe(QI(k))[1]
    assert gen.raw == 0.0 and gen.k_effective == k
    assert gen.normalized == 1.0 and gen.complemented == 0.0


def test_describe_saturates_below_the_range():
    # forced or bias-corrected inputs leave the admissible range: the
    # normalized values pin to the boundary instead of raising
    over = {sv.kind: sv for sv in describe(CovMatrix([[0.5, 0.0], [0.0, 0.5]]))}
    assert over[StatKind.FROBENIUS].raw == 0.0  # below the k=2 minimum 1/8
    assert over[StatKind.FROBENIUS].normalized == 1.0
    neg = {sv.kind: sv for sv in describe(CovMatrix([[-0.1, 0.0], [0.0, 0.2]]), "strict")}
    assert neg[StatKind.GENERALIZED].raw < 0.0
    assert neg[StatKind.GENERALIZED].normalized == 0.0


def test_describe_normalizes_reduced_determinant_by_k_effective():
    block = np.zeros((3, 3))
    block[:2, :2] = 0.25 * np.eye(2)
    values = {sv.kind: sv for sv in describe(CovMatrix(block), "reduce")}
    gen = values[StatKind.GENERALIZED]
    assert gen.k_effective == 2 and gen.rank_deficient
    assert gen.normalized == pytest.approx(1.0)  # 4^2 * 0.0625
    assert values[StatKind.TOTAL].complemented == pytest.approx(1.0 / 3.0)


def test_complement_is_exact():
    for sv in describe(S2, "strict"):
        assert sv.complemented == 1.0 - sv.normalized


def make_samples(rows):
    return SampleSet(None, np.atleast_2d(np.array(rows, dtype=np.uint8)))


def test_classify_entropy():
    summary = classify_entropy(make_samples([[1, 0, 1]] * 3))
    assert summary.classification == "minimum"
    assert summary.frequencies == (("101", 3),)

    summary = classify_entropy(make_samples([[1, 1], [1, 0], [1, 0]]))
    assert summary.classification == "intermediate"
    assert dict(summary.frequencies) == {"11": 1, "10": 2}

    rows = [[1, 1], [1, 0], [0, 1], [0, 0]]
    summary = classify_entropy(make_samples(rows))
    assert summary.classification == "intermediate"
    assert all(count == 1 for _, count in summary.frequencies)
