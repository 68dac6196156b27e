import math

import numpy as np
import pytest

from netvar.graphs import SampleSet
from netvar.moments import CovMatrix
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
