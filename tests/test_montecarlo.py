from fractions import Fraction

import numpy as np
import pytest

from mc_null_exact import replicate_covariance, statistic
from netvar import asymptotic, montecarlo
from netvar.graphs import SampleSet
from netvar.moments import CovMatrix, estimate_moments
from netvar.montecarlo import mc_pvalues, observed_statistic_exact, sample_null_statistics
from netvar.variability import StatKind

S1 = CovMatrix.from_csv_text("0.24,0.04\n0.04,0.24\n")
S2 = CovMatrix.from_csv_text("0.1056,-0.0336\n-0.0336,0.2016\n")
QI2 = CovMatrix.from_csv_text("0.25,0\n0,0.25\n")

ALL_KINDS = (StatKind.TOTAL, StatKind.GENERALIZED, StatKind.FROBENIUS)


def test_observed_statistic_exact_rationals():
    assert observed_statistic_exact(StatKind.TOTAL, S1) == Fraction(1, 50)
    assert observed_statistic_exact(StatKind.GENERALIZED, S1) == Fraction(13, 2000)
    assert observed_statistic_exact(StatKind.FROBENIUS, S1) == Fraction(17, 5000)
    assert observed_statistic_exact(StatKind.TOTAL, QI2) == 0
    assert observed_statistic_exact(StatKind.GENERALIZED, QI2) == 0
    assert observed_statistic_exact(StatKind.FROBENIUS, QI2) == 0


def test_same_seed_reproduces_and_seeds_differ():
    a = mc_pvalues(S1, (StatKind.TOTAL,), 5000, 10, seed=42)[0]
    b = mc_pvalues(S1, (StatKind.TOTAL,), 5000, 10, seed=42)[0]
    assert a.p_value == b.p_value
    c = mc_pvalues(S1, (StatKind.TOTAL,), 5000, 10, seed=43)[0]
    assert c.p_value != a.p_value


def test_thread_count_invariance():
    # replicate count spans several chunks; tallies must be bit-identical
    results = {
        w: mc_pvalues(S1, ALL_KINDS, 12_345, 10, 7, workers=w) for w in (1, 2, 8)
    }
    for kind_pos in range(3):
        vals = {results[w][kind_pos].p_value for w in (1, 2, 8)}
        assert len(vals) == 1


def test_single_sample_replicate_has_zero_covariance():
    assert (sample_null_statistics(StatKind.TOTAL, 1, 3, 5, seed=0) == 3 / 4.0).all()
    assert (sample_null_statistics(StatKind.FROBENIUS, 1, 2, 5, seed=0) == 0.125).all()


def test_null_statistic_consistency_large_m():
    # far from the null the statistic vanishes: mean at m=500 is ~k/(4m)
    stats = sample_null_statistics(StatKind.TOTAL, 500, 2, 10_000, seed=3)
    assert abs(stats.mean()) < 0.01
    assert stats.mean() == pytest.approx(2 / (4 * 500), rel=0.2)


def test_quarter_identity_observed_gives_p_one():
    # T0 is exactly 0 and every replicate statistic is >= 0 in exact arithmetic
    for kind in ALL_KINDS:
        est = mc_pvalues(QI2, (kind,), 3000, 8, seed=5)[0]
        assert est.p_value == 1.0


def test_exact_tie_counting_one_dimensional():
    # k=1, m=4: T* = 1/4 - s(4-s)/16 over Binomial(4, 1/2) counts s.
    # With sigma = [[3/16]] the tie set {s in {1,3}} has mass 1/2, so the
    # inclusive p-value is 10/16 and naive strict counting would give 2/16.
    sigma = CovMatrix.from_csv_text("0.1875\n")
    est = mc_pvalues(sigma, (StatKind.TOTAL,), 200_000, 4, seed=9)[0]
    assert est.p_value == pytest.approx(10 / 16, abs=0.01)
    # just above the atom (64 T0 = 4.0064, not an integer) the atom drops out
    sigma = CovMatrix.from_csv_text("0.1874\n")
    est = mc_pvalues(sigma, (StatKind.TOTAL,), 200_000, 4, seed=9)[0]
    assert est.p_value == pytest.approx(2 / 16, abs=0.01)


def test_tie_atom_matches_exact_enumeration():
    # alpha_incl from exact enumeration of the multinomial null at m=10
    targets = {
        StatKind.TOTAL: 0.7375640869140614,
        StatKind.GENERALIZED: 0.8558044433593739,
        StatKind.FROBENIUS: 0.8077392578124989,
    }
    ests = mc_pvalues(S1, ALL_KINDS, 50_000, 10, seed=21)
    for est in ests:
        alpha = targets[est.stat]
        band = 3.3 * np.sqrt(alpha * (1 - alpha) / 50_000)
        assert abs(est.p_value - alpha) <= band


def test_pvalue_times_r_is_integer():
    for est in mc_pvalues(S2, ALL_KINDS, 7919, 20, seed=1):
        n = est.p_value * est.replicates
        assert n == round(n)
        assert est.stderr == pytest.approx(
            np.sqrt(est.p_value * (1 - est.p_value) / est.replicates)
        )


def test_below_resolution_annotation():
    # observed statistic far beyond anything m=50 nulls can reach
    est = mc_pvalues(S2, (StatKind.TOTAL,), 2000, 50, seed=2)[0]
    assert est.p_value == 0.0
    assert est.below_resolution


def test_mc_pvalues_rejects_bad_arguments():
    # mc_pvalues and sample_null_statistics share one argument check
    for draw in (
        lambda count, m, seed: mc_pvalues(S1, (StatKind.TOTAL,), count, m, seed=seed),
        lambda count, m, seed: sample_null_statistics(StatKind.TOTAL, m, 2, count, seed=seed),
    ):
        with pytest.raises(ValueError, match="replicate count"):
            draw(0, 5, 0)
        with pytest.raises(ValueError, match="sample count"):
            draw(10, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            draw(10, 5, -1)
        with pytest.raises(ValueError, match="seed"):
            draw(10, 5, 2**64)


def test_generalized_at_m_not_above_k_is_decided_by_rank():
    # every replicate covariance has rank <= m - 1 < k, so det = 0 and all
    # replicates sit at the maximum 4^-k; no determinant is evaluated
    import time

    m, k = 20, 28
    rows = np.random.default_rng(28).integers(0, 2, size=(m, k), dtype=np.uint8)
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    started = time.perf_counter()
    est = mc_pvalues(sigma, (StatKind.GENERALIZED,), 2000, m, seed=3, workers=1)[0]
    assert time.perf_counter() - started < 1.0
    assert est.p_value == 1.0
    # an indefinite observed matrix (det < 0) lies beyond the maximum: p = 0
    indefinite = CovMatrix.from_csv_text("0.25,0.25,0.25\n0.25,0.25,-0.25\n0.25,-0.25,0.25\n")
    g0 = Fraction(1, 64) + Fraction(1, 16)  # 4^-3 - det, det = -1/16
    assert observed_statistic_exact(StatKind.GENERALIZED, indefinite) == g0
    assert mc_pvalues(indefinite, (StatKind.GENERALIZED,), 500, 3, seed=3)[0].p_value == 0.0


def test_netvar_threads_env_caps_workers(monkeypatch):
    monkeypatch.setenv("NETVAR_THREADS", "1")
    capped = mc_pvalues(S1, (StatKind.TOTAL,), 9000, 10, seed=6, workers=8)[0]
    monkeypatch.delenv("NETVAR_THREADS")
    free = mc_pvalues(S1, (StatKind.TOTAL,), 9000, 10, seed=6, workers=8)[0]
    assert capped.p_value == free.p_value  # env bounds workers, result unchanged


def test_k3_pvalue_matches_exhaustive_enumeration():
    # k=3, m=3: the null has 8 cell patterns; enumerate all count vectors
    # with exact rational statistics, ties included, as the ground truth
    from itertools import product
    from math import factorial

    rows = np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    m = 3
    patterns = [np.array(bits) for bits in product((0, 1), repeat=3)]

    def exact_alpha(kind):
        t0 = statistic(kind.value, sigma.exact_entries())
        total = Fraction(0)
        for counts in product(range(m + 1), repeat=7):
            if sum(counts) > m:
                continue
            counts = (*counts, m - sum(counts))
            weight = Fraction(factorial(m), 8**m)
            for c in counts:
                weight /= factorial(c)
            x = sum(c * p for c, p in zip(counts, patterns))
            xx = sum(c * np.outer(p, p) for c, p in zip(counts, patterns))
            if statistic(kind.value, replicate_covariance(x, xx, m)) >= t0:
                total += weight
        return float(total)

    for kind in ALL_KINDS:
        alpha = exact_alpha(kind)
        est = mc_pvalues(sigma, (kind,), 40_000, m, seed=17)[0]
        band = 3.3 * np.sqrt(max(alpha * (1 - alpha), 1e-9) / 40_000)
        assert abs(est.p_value - alpha) <= band, (kind, est.p_value, alpha)


@pytest.mark.parametrize("k, m", [(2, 10), (3, 10), (1, 56_000)])
def test_pvalue_counts_equal_oracle_counts_on_the_same_draws(k, m):
    # an on-grid observed covariance (estimated at the replicates' m) has
    # ties with positive probability; p * R must be exactly the oracle's
    # count of replicates at or above it, over the very same draws
    replicates, seed = 2000, 5
    if m > 10:
        # half ones gives sigma = 1/4 exactly; Frobenius is past int64 here,
        # so it is compared in Python ints
        assert not montecarlo._int_stats_fit(StatKind.FROBENIUS, m, k)
        rows = (np.arange(m) % 2).astype(np.uint8).reshape(m, k)
    else:
        rows = np.random.default_rng(k).integers(0, 2, size=(m, k), dtype=np.uint8)
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    ests = mc_pvalues(sigma, ALL_KINDS, replicates, m, seed)
    chunk = montecarlo._chunk_size(m, k)
    draws = [montecarlo._draw_counts(seed, c, min(chunk, replicates - c * chunk), m, k)
             for c in range((replicates + chunk - 1) // chunk)]
    ties = 0
    for est in ests:
        t0 = statistic(est.stat.value, sigma.exact_entries())
        values = [statistic(est.stat.value, replicate_covariance(s1[r], s2[r], m))
                  for s1, s2 in draws for r in range(len(s1))]
        assert est.p_value == sum(v >= t0 for v in values) / replicates, est.stat
        ties += sum(v == t0 for v in values)
    assert ties > 0  # the exact comparison is exercised


def test_asymmetric_csv_is_symmetrized_exactly():
    # asymmetry within 1e-12 is averaged away in the exact view as well
    skew = CovMatrix.from_csv_text("0.24,0.04\n0.0400000000005,0.24\n")
    mean = CovMatrix.from_csv_text("0.24,0.04000000000025\n0.04000000000025,0.24\n")
    exact = skew.exact_entries()
    assert exact[0][1] == exact[1][0] == Fraction(4000000000025, 10**14)
    for kind in ALL_KINDS:
        assert observed_statistic_exact(kind, skew) == observed_statistic_exact(kind, mean)


def test_null_pvalues_roughly_uniform():
    # statistics drawn under the null, each scored against a held-out
    # replicate set: the p-values land close to uniform on [0, 1]
    held = sample_null_statistics(StatKind.FROBENIUS, 30, 2, 2000, seed=200)
    bits = montecarlo._draw_bits(np.random.default_rng(201).bit_generator, 200, 30, 2)
    s1, s2 = montecarlo._bit_counts(bits, 30)
    scaled = montecarlo._scaled_stat(StatKind.FROBENIUS, montecarlo._count_num(s1, s2, 30), 900)
    stats = scaled / montecarlo._scale(StatKind.FROBENIUS, 2, 900)
    pvals = [(held >= t).mean() for t in stats]
    freq, _ = np.histogram(pvals, bins=10, range=(0.0, 1.0))
    assert freq.min() / 200 >= 0.04
    assert freq.max() / 200 <= 0.16


def test_agreement_with_asymptotics_far_from_null():
    # at m=200 both routes put Sigma2's total-variance significance way
    # below any usable level (the asymptotic one at ~2e-10)
    mc = mc_pvalues(S2, (StatKind.TOTAL,), 20_000, 200, seed=8)[0]
    asy = asymptotic.test_total(S2, 200)
    assert mc.p_value <= 1e-4
    assert asy.p_adjusted < 1e-9


def test_resolve_workers_caps_at_chunks_and_env(monkeypatch):
    monkeypatch.delenv("NETVAR_THREADS", raising=False)
    assert montecarlo._resolve_workers(8, 3) == 3
    assert montecarlo._resolve_workers(2, 100) == 2
    assert montecarlo._resolve_workers(None, 1) == 1
    monkeypatch.setenv("NETVAR_THREADS", "4")
    assert montecarlo._resolve_workers(16, 100) == 4
    assert montecarlo._resolve_workers(16, 2) == 2
    assert montecarlo._resolve_workers(3, 100) == 3
    monkeypatch.setenv("NETVAR_THREADS", "")  # empty means unset
    assert montecarlo._resolve_workers(5, 100) == 5


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_bad_netvar_threads_is_rejected(monkeypatch, value):
    monkeypatch.setenv("NETVAR_THREADS", value)
    with pytest.raises(ValueError, match="NETVAR_THREADS"):
        montecarlo._resolve_workers(2, 10)
    with pytest.raises(ValueError, match="NETVAR_THREADS"):
        mc_pvalues(S1, (StatKind.TOTAL,), 100, 10, seed=1)
    with pytest.raises(ValueError, match="NETVAR_THREADS"):
        sample_null_statistics(StatKind.TOTAL, 10, 2, 100, seed=1)


def test_worker_count_below_one_is_rejected():
    with pytest.raises(ValueError, match="worker count"):
        montecarlo._resolve_workers(0, 10)
    with pytest.raises(ValueError, match="worker count"):
        mc_pvalues(S1, (StatKind.TOTAL,), 100, 10, seed=1, workers=-2)


@pytest.mark.parametrize("k", [1, 2, 3, 28])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 200])
def test_integer_statistics_match_exact_oracle(k, m):
    bitgen = np.random.Philox(key=np.array([k, m], dtype=np.uint64))
    words = montecarlo._draw_bits(bitgen, 4, m, k)
    assert words.shape == (4, k, (m + 63) // 64)
    # no bit at or past position m is set in any column
    positions = np.arange(64 * words.shape[2]).reshape(words.shape[2], 64)
    bits = (words[..., :, None] >> (positions % 64).astype(np.uint64)) & np.uint64(1)
    assert not bits.reshape(4, k, -1)[:, :, m:].any()
    # counts agree with an integer recomputation from the shifted-out bits
    x = bits.reshape(4, k, -1)[:, :, :m].astype(np.int64)
    s1, s2 = montecarlo._bit_counts(words, m)
    assert s1.dtype == s2.dtype == np.int64
    assert (s1 == x.sum(axis=2)).all() and (s1 <= m).all()
    assert (s2 == x @ x.transpose(0, 2, 1)).all()
    # each statistic's integer form is scale x the independent Fraction oracle
    num, den = montecarlo._count_num(s1, s2, m), m * m
    for kind in ALL_KINDS:
        if kind is StatKind.GENERALIZED:
            got = [montecarlo._scaled_stat(kind, num[r].astype(object), den) for r in range(4)]
        else:
            assert montecarlo._int_stats_fit(kind, m, k)
            got = montecarlo._scaled_stat(kind, num, den)
            assert got.dtype == np.int64
        scale = montecarlo._scale(kind, k, den)
        for r in range(4):
            exact = statistic(kind.value, replicate_covariance(s1[r], s2[r], m))
            assert int(got[r]) == scale * exact


def test_integer_path_bounds():
    # the scaled Frobenius statistic reaches k^2 m^4; total only k m^2
    assert montecarlo._int_stats_fit(StatKind.FROBENIUS, 10_000, 28)
    assert not montecarlo._int_stats_fit(StatKind.FROBENIUS, 11_000, 28)
    assert montecarlo._int_stats_fit(StatKind.TOTAL, 11_000, 28)
    assert not montecarlo._int_stats_fit(StatKind.GENERALIZED, 2, 2)


def test_exact_ties_above_k64():
    # k=70, m=2, sigma = diag(35 zeros, 35 quarters): 16 T* = 4 Bin(70, 1/2)
    # and T0 = 35/4, so p = P(Bin >= 35) = 0.548; strict counting gives 0.453
    from math import comb

    sigma = CovMatrix(np.diag([0.0] * 35 + [0.25] * 35))
    assert observed_statistic_exact(StatKind.TOTAL, sigma) == Fraction(35, 4)
    alpha = sum(comb(70, j) for j in range(35, 71)) / 2**70
    strict = sum(comb(70, j) for j in range(36, 71)) / 2**70
    assert alpha - strict > 0.09
    est = mc_pvalues(sigma, (StatKind.TOTAL,), 20_000, 2, seed=70)[0]
    band = 3.3 * np.sqrt(alpha * (1 - alpha) / 20_000)
    assert abs(est.p_value - alpha) <= band, (est.p_value, alpha)


def test_null_draws_share_the_mc_stream():
    # an observed point off the 1/m^2 grid: float counts over the sampled
    # statistics equal the tallies of mc_pvalues on the same seed
    sigma = CovMatrix.from_csv_text("0.2,0.03\n0.03,0.17\n")
    ests = mc_pvalues(sigma, ALL_KINDS, 5000, 7, seed=12)
    for est in ests:
        stats = sample_null_statistics(est.stat, 7, 2, 5000, seed=12)
        assert int((stats >= est.observed_statistic).sum()) == round(est.p_value * 5000)
    # replicate r's statistic depends only on (seed, r): a shorter batch is a prefix
    first = sample_null_statistics(StatKind.FROBENIUS, 7, 2, 3, seed=12)
    assert (first == sample_null_statistics(StatKind.FROBENIUS, 7, 2, 5000, seed=12)[:3]).all()
