import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from netvar import asymptotic, montecarlo
from netvar.graphs import SampleSet
from netvar.moments import INT64_MAX, CovMatrix, estimate_moments, validate_covariance
from netvar.variability import (
    StatKind,
    classify_entropy,
    describe,
    frobenius_bounds,
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


def hadamard(doublings: int) -> np.ndarray:
    """Sylvester's Hadamard matrix of order 2^doublings: entries +-1, eigenvalues +-2^(d/2)."""
    h = np.ones((1, 1))
    for _ in range(doublings):
        h = np.block([[h, h], [h, -h]])
    return h


H256 = CovMatrix(hadamard(8))  # forced, at the ends of [-1, 1]: prod(4 lambda) = 64^256


def test_strict_generalized_of_a_singular_matrix_past_the_float_range():
    # 0 + H_256 (k = 257): the other 256 factors of 4 lambda pass the float
    # range, and the exact zero eigenvalue makes the determinant 0, not nan
    entries = np.zeros((257, 257))
    entries[1:, 1:] = hadamard(8)
    sigma = CovMatrix(entries)
    assert (sigma.eigenvalues == 0).sum() == 1
    gen = var_generalized(sigma, "strict")
    described = describe(sigma, "strict")[1]
    assert gen.value == 0.0 and gen.ratio == 0.0
    assert described.raw == 0.0 and described.normalized == 0.0


def test_statistics_at_the_float_range_overflow_without_a_warning():
    # inside the entry domain only prod(4 lambda) overflows: to inf for a forced
    # H_256, with no RuntimeWarning (an error in this suite), and the caller's
    # state stays; the trace (0) and the Frobenius distance stay finite, and
    # both determinant tests read the infinite ratio as p = 1
    total, gen, frob = describe(H256, "strict")
    assert var_generalized(H256, "strict").ratio == np.inf and gen.normalized == 1.0
    assert (total.raw, total.normalized, frob.normalized) == (0.0, 0.0, 0.0)
    assert frob.raw == pytest.approx(128 * (48**2 + 80**2), rel=1e-12)  # lambda = +-16
    for test in (asymptotic.test_gen_gaussian, asymptotic.test_gen_gamma):
        result = test(H256, 300)
        assert (result.statistic, result.p_raw, result.p_adjusted) == (np.inf, 1.0, 1.0)
    assert np.geterr()["over"] == "warn"


@pytest.mark.parametrize("entries", [[[1e308, 0], [0, 1e308]], [[1e308, 1e308], [1e308, 1e308]],
                                     [[1e200, 0], [0, 0.1]]])
def test_entries_past_the_domain_are_rejected(entries):
    with pytest.raises(ValueError, match=r"entries must lie in \[-1, 1\], got 1e\+(308|200)"):
        CovMatrix(entries)


@pytest.mark.parametrize("statistic", [
    validate_covariance, var_total, var_generalized, var_frobenius,
    *(lambda sigma, test=test: test(sigma, 300) for test in (
        asymptotic.test_total, asymptotic.test_gen_gaussian, asymptotic.test_gen_gamma,
        asymptotic.test_nagao)),
], ids=["validate", "total", "generalized", "frobenius", "t_T", "t_G1", "t_G2", "t_N"])
def test_library_calls_at_the_domain_ends_run_without_a_warning(statistic):
    # a forced H_256: the determinant ratio overflows quietly, as in the CLI,
    # nothing else overflows, and the caller's state stays
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        statistic(H256)
    assert np.geterr() == before


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


def exact_statistics(sigma, m):
    """Total, Frobenius, t_T and t_N of ``sigma.exact`` in plain Fractions, each correctly
    rounded: the Frobenius distances are summed entry by entry, with no closed form."""
    num, den = sigma.exact
    k, s = sigma.k, [[Fraction(int(v), den) for v in row] for row in num.tolist()]
    trace = sum(s[i][i] for i in range(k))

    def distance(c):  # squared Frobenius distance from c I
        return sum((s[i][j] - c * (i == j)) ** 2 for i in range(k) for j in range(k))

    return (float(trace), float(distance(Fraction(k, 4))), float(4 * m * trace),
            float(8 * m * distance(Fraction(1, 4))))


def fair_coins(seed, m=200, k=28):
    rows = np.random.default_rng([seed, k]).random((m, k)) < 0.5
    return estimate_moments(make_samples(rows)).sigma


def at_the_int64_bound(den):
    """A forced k = 3 covariance of entries +-1, whose sum of squared numerators is 9 den^2:
    at most INT64_MAX at ``den = isqrt(INT64_MAX) // 3``, past it (an int64 sum would wrap)
    one den later."""
    return CovMatrix.from_exact(den * np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1]]), den)


SUMS_BOUND_DEN = math.isqrt(INT64_MAX) // 3  # (k den)^2 <= INT64_MAX at k = 3


@pytest.mark.parametrize("make, m", [
    *((lambda s=s: fair_coins(s), 200) for s in (1, 2, 3)),
    (lambda: fair_coins(2, 50, 10), 50),
    (lambda: estimate_moments(make_samples(np.eye(7, dtype=np.uint8)), "unbiased").sigma, 7),
    (lambda: CovMatrix.from_csv_text("0.24,0.04\n0.04,0.24\n"), 10),
    (lambda: CovMatrix.from_csv_text("".join(",".join(
        f"{(i + 1) * (j + 1) / 97:.9f}" if i != j else f"{0.25 - i / 89:.7f}" for j in range(6))
        + "\n" for i in range(6))), 7),
    (lambda: CovMatrix(np.array([[0.1, 1e-300, 0.03], [1e-300, 0.2, -0.07],
                                 [0.03, -0.07, 0.15]])), 9),
    (lambda: CovMatrix(np.array([[6.0, 1.0], [1.0, 6.0]]) / 25.0), 3),
    (lambda: at_the_int64_bound(SUMS_BOUND_DEN), 11),
    (lambda: at_the_int64_bound(SUMS_BOUND_DEN + 1), 11),
], ids=["samples-k28-1", "samples-k28-2", "samples-k28-3", "samples-k10", "unbiased-k7",
        "csv-k2", "csv-k6", "floats-tiny", "floats-25ths", "int64-bound", "past-int64-bound"])
def test_trace_and_frobenius_statistics_are_the_exact_values_correctly_rounded(make, m):
    # describe's total and Frobenius, t_T and t_N all read the exact value num / den
    # through one set of sums: each is the exact rational correctly rounded, on
    # sample-set, decimal CSV and float-built input and on both sides of the bound
    # that sends the sums from int64 to Python ints
    sigma = make()
    total, frobenius, t_total, t_nagao = exact_statistics(sigma, m)
    described = describe(sigma)
    assert (described[0].raw, described[2].raw) == (total, frobenius)
    assert (var_total(sigma), var_frobenius(sigma)) == (total, frobenius)
    assert asymptotic.test_total(sigma, m).statistic == t_total
    assert asymptotic.test_nagao(sigma, m).statistic == t_nagao


def test_frobenius_bounds():
    assert frobenius_bounds(2) == (0.125, 0.5)
    assert frobenius_bounds(1) == (0.0, 1.0 / 16.0)
    assert frobenius_bounds(3) == (0.75, 1.6875)
    with pytest.raises(ValueError):
        frobenius_bounds(0)


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
    # forced or bias-corrected inputs leave the admissible range: the raw
    # value is clamped to it, so the normalized values pin to the boundary
    above, below = (describe(CovMatrix(entries))[0]
                    for entries in ([[0.25 + 5e-10, 0.0], [0.0, 0.25]], [[-5e-10, 0.0], [0.0, 0.0]]))
    assert above.raw > 0.5 and above.normalized == 1.0  # the k=2 maximum is 1/2
    assert below.raw < 0.0 and below.normalized == 0.0 and below.complemented == 1.0
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


@pytest.mark.parametrize("k", [1, 7, 8, 9])
def test_classify_entropy_strings_match_the_bits_in_order(k):
    rng = np.random.default_rng(k)
    rows = np.vstack([np.zeros(k), np.ones(k), rng.random((40, k)) < 0.5]).astype(np.uint8)
    bits = Counter("".join("1" if b else "0" for b in row) for row in rows.tolist())
    want = tuple(sorted(bits.items()))  # lexicographic, as the bit patterns
    assert classify_entropy(make_samples(rows)).frequencies == want
    assert {want[0][0], want[-1][0]} == {"0" * k, "1" * k}
