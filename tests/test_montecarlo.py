import functools
import itertools
import signal
import sys
import threading
from bisect import bisect_left
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt, log

import numpy as np
import pytest

from mc_null_exact import determinant, replicate_covariance, statistic
from netvar import asymptotic, montecarlo, variability
from netvar.graphs import SampleSet
from netvar.moments import CovMatrix, estimate_moments, validate_covariance
from netvar.montecarlo import mc_pvalues, observed_statistic_exact, sample_null_statistics
from netvar.variability import StatKind

S1 = CovMatrix.from_csv_text("0.24,0.04\n0.04,0.24\n")
S2 = CovMatrix.from_csv_text("0.1056,-0.0336\n-0.0336,0.2016\n")
QI2 = CovMatrix.from_csv_text("0.25,0\n0,0.25\n")

ALL_KINDS = (StatKind.TOTAL, StatKind.GENERALIZED, StatKind.FROBENIUS)


def numerators(seed, chunk, n, m, k):
    """The numerators (k, k, n) of the first n replicates of chunk ``chunk`` of the stream."""
    words = montecarlo._draw_bits(montecarlo._chunk_rng(seed, chunk), n, m, k)
    return montecarlo._numerators(words, m)


def covariance(num, m):
    """The exact covariance ``num / m^2`` of one replicate's numerators (k, k), as Fractions."""
    return [[Fraction(v, m * m) for v in row] for row in num.tolist()]


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
    # replicate count spans several chunks; tallies must be bit-identical.
    # At m = 10 the chunks are small enough to run on one thread; at m = 200
    # the requested workers run
    for m in (10, 200):
        results = {
            w: mc_pvalues(S1, ALL_KINDS, 12_345, m, 7, workers=w) for w in (1, 2, 8)
        }
        for kind_pos in range(3):
            vals = {results[w][kind_pos].p_value for w in (1, 2, 8)}
            assert len(vals) == 1


def test_small_chunks_run_on_one_thread():
    # a chunk whose popcount ANDs fewer than CHUNK_TARGET // 128 words runs
    # on one thread; larger chunks get the requested workers, capped as
    # before, and the worker arguments are checked either way
    def pool(workers, m, k, replicates=100_000):
        return montecarlo._plan(ALL_KINDS, replicates, m, k, 1, workers)[-1]

    assert pool(2, 10, 2) == pool(8, 50, 2) == pool(2, 64, 3) == 1
    # 4096 replicates x 3 column pairs x 2 or 3 words, against 2^22 // 128 = 32768
    assert pool(2, 128, 2) == 1 and pool(2, 129, 2) == 2
    assert pool(2, 2, 6) == 2 and pool(2, 200, 28) == 2 and pool(8, 200, 28) == 8
    assert pool(8, 200, 28, replicates=1000) == 2  # one worker per chunk at most
    with pytest.raises(ValueError, match="worker count"):
        pool(0, 10, 2)


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
        # no hit (p = 0) has no standard error
        assert est.stderr == (pytest.approx(
            np.sqrt(est.p_value * (1 - est.p_value) / est.replicates)
        ) if est.p_value else None)


def test_below_resolution_annotation():
    # observed statistic far beyond anything m=50 nulls can reach
    est = mc_pvalues(S2, (StatKind.TOTAL,), 2000, 50, seed=2)[0]
    assert est.p_value == 0.0
    assert est.below_resolution
    # sqrt(p (1 - p) / R) = 0 would claim no uncertainty: there is no standard error
    assert est.stderr is None


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
    for k in (0, -1):
        with pytest.raises(ValueError, match="dimension k must be >= 1"):
            sample_null_statistics(StatKind.TOTAL, 5, k, 3, seed=1)


@pytest.mark.parametrize("argument, value, name", [
    ("replicates", 2.5, "replicate count"), ("m", 10.0, "sample count"),
    ("seed", 1.9, "seed"), ("workers", 1.5, "worker count")])
def test_mc_pvalues_rejects_a_non_integral_argument(argument, value, name, monkeypatch):
    # each is rejected by name before any observed value or draw: a float
    # seed would run the stream of its integer part and report the float
    monkeypatch.setattr(montecarlo, "_draw_bits", None)  # no draw is made
    monkeypatch.setattr(montecarlo, "_counter", None)  # no observed value is computed
    args = {"replicates": 2000, "m": 10, "seed": 1, "workers": 1, argument: value}
    message = f"{name} must be an integer, got {value}"
    with pytest.raises(TypeError, match=message):
        mc_pvalues(S1, ALL_KINDS, **args)
    if argument != "workers":
        with pytest.raises(TypeError, match=message):
            sample_null_statistics(StatKind.TOTAL, args["m"], 2, args["replicates"], args["seed"])


@pytest.mark.parametrize("call", ["mc_pvalues", "sample_null_statistics", "observed_statistic_exact"])
def test_a_statistic_that_is_not_a_statkind_is_rejected(call, monkeypatch):
    # a name is not a StatKind: each dispatch on the kind used to fall
    # through to generalized, and a "total" run reported its p-value
    monkeypatch.setattr(montecarlo, "_draw_bits", None)  # no draw is made
    monkeypatch.setattr(montecarlo, "_counter", None)  # no observed value is computed
    with pytest.raises(TypeError, match="statistic must be a StatKind, got 'total'"):
        if call == "mc_pvalues":
            mc_pvalues(S1, (StatKind.FROBENIUS, "total"), 2000, 10, seed=1)
        elif call == "sample_null_statistics":
            sample_null_statistics("total", 10, 2, 2000, 1)
        else:
            observed_statistic_exact("total", S1)


def test_numpy_integer_arguments_run_the_integer_stream():
    # numpy ints are taken as Python ints: at k = 28 an int64 m would
    # overflow the exact arithmetic
    sigma = estimate_moments(SampleSet(None, np.random.default_rng(3).integers(
        0, 2, size=(200, 28), dtype=np.uint8))).sigma
    expected = mc_pvalues(sigma, ALL_KINDS, 200, 200, seed=1, workers=1)
    got = mc_pvalues(sigma, ALL_KINDS, np.int64(200), np.int64(200), seed=np.int64(1),
                     workers=np.int64(1))
    assert got == expected
    assert all(type(e.seed) is int and type(e.replicates) is int for e in got)
    assert (sample_null_statistics(StatKind.TOTAL, np.int64(10), np.int64(2), 50, np.int64(1))
            == sample_null_statistics(StatKind.TOTAL, 10, 2, 50, 1)).all()


def test_mc_pvalues_without_a_statistic_is_rejected_before_drawing(monkeypatch):
    monkeypatch.setattr(montecarlo, "_draw_bits", None)  # no draw is made
    with pytest.raises(ValueError, match="at least one statistic"):
        mc_pvalues(S1, (), 2000, 10, seed=1)


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


@pytest.mark.parametrize("k, m", [(2, 1), (2, 10), (2, 55108), (3, 400), (6, 20)])
def test_observed_beyond_every_replicate(k, m):
    # a forced covariance with trace above k/4 and determinant above 4^-k has
    # negative total and generalized statistics: every replicate reaches them.
    # Generalized goes through the integer threshold at k = 2 (m = 1, 10 and
    # 55108, the largest m of its int64 domain; t0 < 0 clamps cut at 0) and
    # the float stages (k = 3, 6); its Frobenius distance is beyond every
    # replicate's
    sigma = CovMatrix(np.identity(k))
    total, generalized, frobenius = mc_pvalues(sigma, tuple(StatKind), 64, m, seed=1, workers=1)
    assert total.observed_statistic < 0 and generalized.observed_statistic < 0
    assert (total.p_value, generalized.p_value, frobenius.p_value) == (1.0, 1.0, 0.0)
    # a Python float on every path, not a numpy scalar that reprs as np.float64(1.0)
    assert {type(e.p_value) for e in (total, generalized, frobenius)} == {float}


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


@functools.cache
def reachable_null(k, m):
    """Every distinct replicate numerator (k, k, n) at k edges and m samples (one per
    multiset of m rows from the 2^k edge patterns), and each statistic's oracle values."""
    patterns = np.array(list(itertools.product((0, 1), repeat=k)))
    counts = np.array([np.bincount(rows, minlength=2**k)
                       for rows in itertools.combinations_with_replacement(range(2**k), m)])
    s1, s2 = counts @ patterns, np.einsum("np,pi,pj->nij", counts, patterns, patterns)
    num = np.unique((m * s2 - s1[:, :, None] * s1[:, None, :]).reshape(-1, k * k), axis=0)
    num = np.ascontiguousarray(num.reshape(-1, k, k).transpose(1, 2, 0))
    covs = [covariance(num[..., r], m) for r in range(num.shape[-1])]
    return num, {kind: [statistic(kind.value, cov) for cov in covs] for kind in ALL_KINDS}


def count_every_reachable_replicate(k, distinct, off_grid):
    """Counts all reachable replicates at k and each m of ``distinct`` (m: n distinct
    numerators) in one batch against observed values that sit on replicate values (the
    smallest, quartiles and largest of each statistic: ties) and the off-grid ``off_grid``."""
    for m, n in distinct.items():
        num, oracle = reachable_null(k, m)
        assert num.shape == (k, k, n)
        for kind, values in oracle.items():
            ranked, by_value = sorted(range(n), key=values.__getitem__), sorted(values)
            observed = [CovMatrix.from_exact(num[..., ranked[q * (n - 1) // 4]].copy(), m * m)
                        for q in range(5)]
            for sigma in observed + [off_grid]:
                t0 = statistic(kind.value, sigma.exact_entries())
                expected = n - bisect_left(by_value, t0)
                count = montecarlo._counter(kind, sigma, m)[1](num, np.empty(num.size))
                assert count == expected, (m, kind, sigma)


@pytest.mark.parametrize("int64", [True, False])
def test_every_k3_count_path_counts_every_reachable_replicate_exactly(int64, monkeypatch):
    # k = 3, m = 1..8, an off-grid decimal CSV included.  With int64 every statistic
    # takes the integer threshold.  Without it, generalized goes through the rank rule
    # (m <= 3), then the Cholesky and eigen brackets and Python-int Bareiss, and total
    # and Frobenius through object arrays
    if not int64:
        monkeypatch.setattr(montecarlo, "_int_stats_fit", lambda *_: False)
    off_grid = CovMatrix.from_csv_text("0.2301,0.0413,-0.0207\n0.0413,0.2189,0.0131\n"
                                       "-0.0207,0.0131,0.1877\n")
    distinct = {1: 1, 2: 14, 3: 36, 4: 131, 5: 317, 6: 744, 7: 1488, 8: 2766}
    count_every_reachable_replicate(3, distinct, off_grid)


@pytest.mark.parametrize("int64", [True, False])
def test_every_k4_count_path_counts_every_reachable_replicate_exactly(int64, monkeypatch):
    # the k = 3 check at k = 4, m = 1..5 (m = 6 has 22845 distinct numerators: a ~4 s
    # oracle).  With int64 every statistic takes the integer threshold; without it
    # generalized takes the rank rule (m <= 4), and the Cholesky and eigen brackets and
    # Python-int Bareiss at m = 5
    if not int64:
        monkeypatch.setattr(montecarlo, "_int_stats_fit", lambda *_: False)
    off_grid = CovMatrix.from_csv_text("0.2301,0.0413,-0.0207,0.0102\n"
                                       "0.0413,0.2189,0.0131,-0.0311\n"
                                       "-0.0207,0.0131,0.1877,0.0244\n"
                                       "0.0102,-0.0311,0.0244,0.2033\n")
    count_every_reachable_replicate(4, {1: 1, 2: 41, 3: 221, 4: 1423, 5: 6181}, off_grid)


@pytest.mark.parametrize("k, m", [(2, 10), (3, 10), (3, 300), (4, 40), (5, 20), (6, 11),
                                  (1, 56_000)])
def test_pvalue_counts_equal_oracle_counts_on_the_same_draws(k, m):
    # an on-grid observed covariance (estimated at the replicates' m) has
    # ties with positive probability; p * R must be exactly the oracle's
    # count of replicates at or above it, over the very same draws
    replicates, seed = 2000, 5
    # generalized is decided by the int64 integer threshold in every case
    assert montecarlo._int_stats_fit(StatKind.GENERALIZED, m, k)
    if k == 1:
        # half ones gives sigma = 1/4 exactly; Frobenius is past int64 here,
        # so it is compared in Python ints
        assert not montecarlo._int_stats_fit(StatKind.FROBENIUS, m, k)
        rows = (np.arange(m) % 2).astype(np.uint8).reshape(m, k)
    else:
        rows = np.random.default_rng(k).integers(0, 2, size=(m, k), dtype=np.uint8)
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    ests = mc_pvalues(sigma, ALL_KINDS, replicates, m, seed)
    chunk = montecarlo._chunk_size(m, k)
    draws = [numerators(seed, c, min(chunk, replicates - c * chunk), m, k)
             for c in range((replicates + chunk - 1) // chunk)]
    ties = 0
    for est in ests:
        t0 = statistic(est.stat.value, sigma.exact_entries())
        values = [statistic(est.stat.value, covariance(num[..., r], m))
                  for num in draws for r in range(num.shape[-1])]
        assert est.p_value == sum(v >= t0 for v in values) / replicates, est.stat
        ties += sum(v == t0 for v in values)
    assert ties > 0  # the exact comparison is exercised


@pytest.mark.parametrize("last", ["one replicate", "one short of a chunk"])
def test_short_last_chunk_counts_equal_per_replicate_counts(last):
    # each worker passes its chunks through one scratch of full chunk size;
    # a run that ends on a short chunk must tally exactly what each
    # replicate's own (owned) numerator counts on the same draws, on any
    # number of workers; the observed covariance is the last replicate's
    # own, so every statistic has a tie
    k, m, seed = 28, 200, 3
    chunk = montecarlo._chunk_size(m, k)
    replicates = chunk + 1 if last == "one replicate" else 2 * chunk - 1
    sizes = montecarlo._plan(ALL_KINDS, replicates, m, k, seed, 1)[4]
    assert len(sizes) == 2 and sizes[-1] < chunk
    nums = [numerators(seed, c, n, m, k) for c, n in enumerate(sizes)]
    own = nums[-1][..., -1]
    sigma = CovMatrix.from_exact(own, m * m)
    floats = np.empty(k * k)  # one replicate's float copy
    expected = [sum(count(num[..., r:r + 1].copy(), floats)
                    for num in nums for r in range(num.shape[-1]))
                for _, count in (montecarlo._counter(kind, sigma, m) for kind in ALL_KINDS)]
    assert all(expected)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers' chunk hand-out often
    try:
        for workers in (1, 2, 4):
            ests = mc_pvalues(sigma, ALL_KINDS, replicates, m, seed, workers=workers)
            assert [round(est.p_value * replicates) for est in ests] == expected, workers
    finally:
        sys.setswitchinterval(interval)


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
    scaled = montecarlo._scaled_stat(StatKind.FROBENIUS, montecarlo._numerators(bits, 30), 900)
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


def threads(workers, chunks):
    """The worker threads that ``_plan`` gives a run of ``chunks`` full chunks at k = 28,
    m = 200, where each chunk is large enough for a thread of its own."""
    replicates = chunks * montecarlo._chunk_size(200, 28)
    return montecarlo._plan(ALL_KINDS, replicates, 200, 28, 1, workers)[-1]


def test_resolve_workers_caps_at_chunks_and_env():
    assert threads(8, 3) == 3
    assert threads(2, 100) == 2
    assert threads(None, 1) == 1
    assert threads(16, 2) == 2
    assert threads(3, 100) == 3
    assert threads(5, 100) == 5


def test_worker_count_below_one_is_rejected(monkeypatch):
    monkeypatch.setattr(montecarlo, "_draw_bits", None)  # no draw is made
    monkeypatch.setattr(montecarlo, "_counter", None)  # no observed value is computed
    with pytest.raises(ValueError, match="worker count"):
        threads(0, 10)
    with pytest.raises(ValueError, match="worker count"):
        mc_pvalues(S1, (StatKind.TOTAL,), 100, 10, seed=1, workers=-2)


def test_a_worker_count_past_the_ceiling_fails_before_any_scratch_or_thread(monkeypatch):
    # 100,000 workers on 10^9 replicates at k = 2 (244,141 chunks) would allocate 100,000
    # scratches and start 99,999 threads; the plan rejects the count before either exists
    ceiling = montecarlo.MAX_WORKERS
    assert ceiling >= 64  # well above the largest count the tests run (16)

    def fail(*args, **kwargs):
        raise AssertionError("a scratch or a thread was made")

    monkeypatch.setattr(montecarlo, "_scratch", fail)
    monkeypatch.setattr(threading, "Thread", fail)
    for workers in (ceiling + 1, 100_000):
        message = f"^worker count must be <= {ceiling}, got {workers}$"
        with pytest.raises(ValueError, match=message):
            mc_pvalues(S1, ALL_KINDS, 10**9, 10, seed=1, workers=workers)
        with pytest.raises(ValueError, match=message):
            threads(workers, 10)
    assert threads(ceiling, ceiling + 1) == ceiling  # planned, not run


def test_the_default_worker_count_is_capped_at_the_ceiling_not_rejected(monkeypatch):
    cpus = set(range(4 * montecarlo.MAX_WORKERS))
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert threads(None, len(cpus)) == montecarlo.MAX_WORKERS  # planned, not run


@pytest.mark.parametrize("k", [1, 2, 3, 28, 64])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 200, 2000])
def test_integer_statistics_match_exact_oracle(k, m):
    # at m = 2000 each column spans 32 words
    n = 20 if k == 64 else 4
    bitgen = np.random.Philox(key=np.array([k, m], dtype=np.uint64))
    words = montecarlo._draw_bits(bitgen, n, m, k)
    assert words.shape == (n, k, (m + 63) // 64)
    # no bit at or past position m is set in any column
    positions = np.arange(64 * words.shape[2]).reshape(words.shape[2], 64)
    bits = (words[..., :, None] >> (positions % 64).astype(np.uint64)) & np.uint64(1)
    assert not bits.reshape(n, k, -1)[:, :, m:].any()
    # numerators agree with an integer recomputation from the shifted-out bits
    x = bits.reshape(n, k, -1)[:, :, :m].astype(np.int64)
    s1 = x.sum(axis=2)
    num = montecarlo._numerators(words, m)
    assert num.dtype == np.int64 and num.shape == (k, k, n)
    expected = m * (x @ x.transpose(0, 2, 1)) - s1[:, :, None] * s1[:, None, :]
    assert (num.transpose(2, 0, 1) == expected).all()
    if k > 28:
        return  # the Fraction determinant oracle is slow past here
    # each statistic's integer form is scale x the independent Fraction oracle
    den = m * m
    for kind in ALL_KINDS:
        if kind is StatKind.GENERALIZED:
            got = [montecarlo._scaled_stat(kind, num[..., r].astype(object), den) for r in range(4)]
        else:
            assert montecarlo._int_stats_fit(kind, m, k)
            got = montecarlo._scaled_stat(kind, num, den)
            assert got.dtype == np.int64
        scale = montecarlo._scale(kind, k, den)
        for r in range(4):
            exact = statistic(kind.value, covariance(num[..., r], m))
            assert int(got[r]) == scale * exact


def test_integer_path_bounds():
    # the scaled Frobenius statistic reaches k^2 m^4; total only k m^2
    assert montecarlo._int_stats_fit(StatKind.FROBENIUS, 10_000, 28)
    assert not montecarlo._int_stats_fit(StatKind.FROBENIUS, 11_000, 28)
    assert montecarlo._int_stats_fit(StatKind.TOTAL, 11_000, 28)
    # generalized: m^2k and the Bareiss intermediates (Hadamard-bounded
    # minors of entries <= m^2/4) fit in int64 up to these m, and from k = 32
    # on at no m (4^k does not fit)
    largest = {1: isqrt(montecarlo.INT64_MAX), 2: 55_108, 3: 362, 4: 54, 5: 20, 6: 11, 7: 7,
               8: 5, 9: 4, 10: 3, 11: 3, **dict.fromkeys(range(12, 17), 2),
               **dict.fromkeys(range(17, 32), 1), 32: 0}
    for k, m in largest.items():
        assert montecarlo._int_stats_fit(StatKind.GENERALIZED, m, k) == (m > 0)
        assert not montecarlo._int_stats_fit(StatKind.GENERALIZED, m + 1, k)
    for k, m in ((2, 55_108), (3, 362), (4, 54), (5, 20), (6, 11)):
        assert montecarlo._int_stats_fit(StatKind.GENERALIZED, m, k)
        assert not montecarlo._int_stats_fit(StatKind.GENERALIZED, m + 1, k)
        b = m * m // 4
        # worst-case replicate numerators: all columns equal with S = m/2
        # (every entry m^2/4, floored at odd m), and the diagonal b I
        column = np.zeros(64 * ((m + 63) // 64), np.uint8)
        column[:m // 2] = 1
        words = np.tile(np.packbits(column, bitorder="little").view("<u8"), (1, k, 1))
        equal = montecarlo._numerators(words, m)
        assert (equal == b).all()
        diagonal = np.diag(np.full(k, b))[..., None]
        # +-b in the leading block of the 8 x 8 Sylvester-Hadamard matrix:
        # |det| = 2 b^2, 4 b^3, 16 b^4 (the largest that entries <= b allow),
        # 32 b^5 and 128 b^6
        hadamard = functools.reduce(np.kron, [np.array([[1, 1], [1, -1]])] * 3)
        signs = hadamard[:k, :k] * b
        for num in (equal, diagonal, signs[..., None]):
            assert montecarlo._int_det(num)[0] == montecarlo._int_det(num.astype(object))[0]
            exact = determinant([[Fraction(x) for x in row] for row in num[..., 0].tolist()])
            assert montecarlo._int_det(num.astype(object))[0] == exact
        for num in (equal, diagonal):
            got = montecarlo._scaled_stat(StatKind.GENERALIZED, num, m * m)
            assert got.dtype == np.int64
            assert got[0] == montecarlo._scaled_stat(StatKind.GENERALIZED, num.astype(object), m * m)[0]
        got = montecarlo._scaled_stat(StatKind.GENERALIZED, diagonal, m * m)[0]
        assert got == m ** (2 * k) - (4 * b) ** k  # 0 at even m
    assert not montecarlo._int_stats_fit(StatKind.GENERALIZED, 200, 28)


@pytest.mark.parametrize("k", [1, 2, 28])
def test_frobenius_int64_at_the_largest_fitting_m(k):
    # numpy int64 wraps without a warning, so at the largest m within
    # _int_stats_fit the replicates that reach the bound must still give the
    # Python-int value: identical or complementary columns at p = 1/2
    # (|num_ij| = m^2/4, floored at odd m) make 16 sum(num^2) = k^2 m^4 and
    # den (k den - 8 tr num) = -k m^4; constant columns (num = 0) give +k m^4
    m = isqrt(isqrt(montecarlo.INT64_MAX // (k * k)))
    assert montecarlo._int_stats_fit(StatKind.FROBENIUS, m, k)
    assert not montecarlo._int_stats_fit(StatKind.FROBENIUS, m + 1, k)
    den, b = m * m, m * m // 4
    signs = np.where(np.arange(k) % 2, -1, 1)
    for num in (np.full((k, k, 1), b), b * np.outer(signs, signs)[..., None], np.zeros((k, k, 1), int)):
        got = montecarlo._scaled_stat(StatKind.FROBENIUS, num.astype(np.int64), den)
        assert got.dtype == np.int64
        exact = sum((4 * int(num[i, j, 0]) - den * (i == j)) ** 2
                    for i in range(k) for j in range(k))
        assert int(got[0]) == exact == montecarlo._scaled_stat(
            StatKind.FROBENIUS, num.astype(object), den)[0]


def _det_cases(rng, k):
    """Random integer matrices with the shapes Bareiss has to handle."""
    cases = [rng.integers(-9, 10, size=(k, k)) for _ in range(20)]
    for a in cases[:5]:
        a[0, 0] = 0  # zero leading pivot: needs a row swap (or is singular)
    if k > 1:
        for a in cases[5:10]:
            a[:, -1] = a[:, 0] - 2 * a[:, k // 2]  # singular by a column dependence
        for a in cases[10:12]:
            a[:, 0] = 0  # zero column: no row swap can help
        b = rng.integers(-5, 6, size=(k, k))
        cases.append(b @ np.diag([1] + [-1] * (k - 1)) @ b.T)  # indefinite symmetric
        cases.append(np.eye(k, dtype=np.int64)[::-1] * 3)  # every pivot needs a swap
    return cases


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_int_det_matches_fraction_elimination(k):
    # the batched Bareiss determinant against Fraction Gaussian elimination,
    # matrix by matrix and as one batch, in int64 and in Python ints
    cases = _det_cases(np.random.default_rng(k), k)
    exact = [determinant([[Fraction(int(x)) for x in row] for row in a]) for a in cases]
    assert any(d == 0 for d in exact) and any(d < 0 for d in exact)
    batch = np.stack(cases, axis=-1).astype(np.int64)
    for dtype in (np.int64, object):
        got = montecarlo._int_det(batch.astype(dtype))
        assert got.shape == (len(cases),)
        assert [int(d) for d in got] == exact
        for a, d in zip(cases, exact):
            one = montecarlo._int_det(a.astype(dtype))
            assert one == d and np.ndim(one) == 0
        # a batch with two trailing axes keeps them
        assert montecarlo._int_det(batch[..., :12].reshape(k, k, 3, 4).astype(dtype)).shape == (3, 4)
    assert type(montecarlo._int_det(cases[0].astype(object))) is int


def test_generalized_band_recheck_past_the_int64_bound(monkeypatch):
    # k = 5, m = 21 is past the int64 bound: Cholesky brackets decide
    # where they are proven, eigenvalue brackets and Python-int Bareiss the
    # rest.  The observed covariance is one replicate's own, so
    # there is at least one exact tie, and p * R must equal the Fraction
    # oracle's count on the same draws
    k, m, replicates, seed = 5, 21, 3000, 11
    assert not montecarlo._int_stats_fit(StatKind.GENERALIZED, m, k)
    assert replicates <= montecarlo._chunk_size(m, k)  # one chunk holds every replicate
    num = numerators(seed, 0, replicates, m, k)
    sigma = CovMatrix.from_exact(num[..., 3], m * m)
    est = mc_pvalues(sigma, (StatKind.GENERALIZED,), replicates, m, seed)[0]
    t0 = statistic("generalized", covariance(num[..., 3], m))
    values = [statistic("generalized", covariance(num[..., r], m)) for r in range(replicates)]
    assert sum(v == t0 for v in values) >= 1
    assert round(est.p_value * replicates) == sum(v >= t0 for v in values)
    # with every Cholesky bracket left open, the eigenvalue brackets decide the same
    monkeypatch.setattr(montecarlo, "_cholesky_bracket",
                        lambda a: (np.full(len(a), -np.inf), np.full(len(a), np.inf)))
    assert mc_pvalues(sigma, (StatKind.GENERALIZED,), replicates, m, seed)[0] == est
    # a singular observed matrix (a duplicated variable: limit 0) leaves the
    # bracket of every singular replicate reaching 0; at k = 7, m = 8 there
    # are several re-check blocks of them, and only they hit
    k, m, replicates = 7, 8, 600
    num = numerators(seed, 0, replicates, m, k)
    dup = np.r_[0, 0, 2:k]
    sigma = CovMatrix.from_exact(num[..., 3][np.ix_(dup, dup)], m * m)
    est = mc_pvalues(sigma, (StatKind.GENERALIZED,), replicates, m, seed)[0]
    singular = sum(determinant([[Fraction(int(x)) for x in row] for row in a]) == 0
                   for a in num.transpose(2, 0, 1).tolist())
    assert singular > 3 * montecarlo.BAND_BLOCK
    assert round(est.p_value * replicates) == singular


@pytest.mark.parametrize("k, m, n", [
    (3, 4, 2000), (3, 5, 2000), (3, 6, 2000), (3, 400, 2000),
    (14, 15, 600),  # float LU gives some singular replicates log-dets > 0
    (28, 29, 60), (28, 30, 60), (28, 56, 60),
    (45, 46, 16), (45, 47, 16), (45, 90, 16),
])
def test_generalized_float_count_equals_bareiss(k, m, n):
    # on every replicate of one chunk, the count of det(num) <= limit equals
    # the Python-int Bareiss count, at a limit in the bulk (a replicate's
    # own det, a tie), just below it, and at the singular limit 0, where
    # only det = 0 hits
    num = numerators(8, 0, n, m, k)
    exact = montecarlo._int_det(num.astype(object))
    nonzero = np.sort(exact[exact != 0])
    median = int(nonzero[len(nonzero) // 2])
    for limit in (median, median - 1, 0):
        # an open observed bracket defers every decision to the exact limit;
        # the point bracket of log(limit) lets the replicate brackets decide
        point = log(limit) if limit > 0 else -np.inf
        for lo0, hi0 in ((-np.inf, np.inf), (point, point)):
            count = montecarlo._count_det_at_most(num, lo0, hi0, lambda: limit, np.empty(num.size))
            assert count == (exact <= limit).sum(), limit


def _factored_bracket(bracket, num, monkeypatch):
    """``bracket``'s ``(lo, hi)`` on ``num`` (k, k, n), and the float matrices it factored
    (as passed to ``np.linalg.cholesky``: num plus its shift)."""
    factored, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a.copy()) or cholesky(a))
    lo, hi = bracket(np.ascontiguousarray(num.transpose(2, 0, 1), np.float64))
    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    (a,) = factored
    return lo, hi, a


def _exact_log_det(a):
    """log det of the float matrix a (k, k) to 60 digits: p clears the fractions."""
    p = max(Fraction(x).denominator for x in a.ravel().tolist())
    with localcontext() as context:
        context.prec = 60
        det = montecarlo._int_det(np.frompyfunc(int, 1, 1)(a * float(p)))
        return Decimal(det).ln() - len(a) * Decimal(p).ln()


@pytest.mark.parametrize("k, m, n", [(3, 4, 2000), (5, 21, 3000), (7, 8, 600), (14, 15, 600),
                                     (28, 29, 60), (28, 200, 120), (45, 90, 16)])
def test_cholesky_bracket_contains_the_exact_log_det(k, m, n, monkeypatch):
    # the shifted Cholesky bracket is proven (Higham, Thm 10.3; the shift's
    # Weyl term): every nonsingular replicate's exact log det lies in it, and
    # no exactly singular one (m near k gives many, and the first replicate
    # here gets a zero-variance edge) is proven nonzero.  hi also bounds the
    # exact log det of the shifted float matrix that was factored, which the
    # mutant dropping the rounding error term (err = 0) fails: the float log
    # det falls on both sides of it
    import inspect

    num = numerators(8, 0, n, m, k)
    num[0, :, 0] = num[:, 0, 0] = 0  # edge 0 constant in replicate 0
    exact = montecarlo._int_det(num.astype(object))
    lo, hi, shifted = _factored_bracket(montecarlo._cholesky_bracket, num, monkeypatch)
    assert not any(not (a <= log(d) <= b) if d else a != -np.inf for a, b, d in zip(lo, hi, exact))
    if (k, m) != (28, 29):  # there AM-GM's lambda_min bound is too pessimistic for most
        assert not any(a == -np.inf for a, d in zip(lo, exact) if d)
    shifted = [_exact_log_det(a) for a in shifted[:8]]
    assert all(s <= Decimal(b) for s, b in zip(shifted, hi))
    source = inspect.getsource(montecarlo._cholesky_bracket)
    (error,) = [s for s in source.splitlines(keepends=True) if s.startswith("    err = ")]
    namespace = dict(vars(montecarlo))
    exec(source.replace(error, "    err = 0 * slack\n"), namespace)
    hi = _factored_bracket(namespace["_cholesky_bracket"], num, monkeypatch)[1]
    assert any(s > Decimal(b) for s, b in zip(shifted, hi))


def _counted_eigvalsh(monkeypatch):
    """Sizes of the batches passed to ``np.linalg.eigvalsh`` from now on."""
    sizes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(len(a)) or eigvalsh(a))
    return sizes


@pytest.mark.parametrize("k, m, n", [(3, 4, 4096), (7, 8, 4096), (14, 15, 2000)])
def test_one_cholesky_per_chunk_even_where_replicates_are_singular(k, m, n, monkeypatch):
    # just above m = k many replicates are exactly singular; the shifted
    # factorization never fails, so a chunk takes one batched Cholesky.  Far
    # below the observed bracket every replicate hits, without eigvalsh or
    # the exact limit
    num = numerators(8, 0, n, m, k)
    assert (montecarlo._int_det(num[..., :200].astype(object)) == 0).any()
    calls, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(len(a)) or cholesky(a))
    sizes = _counted_eigvalsh(monkeypatch)
    far = 2 * k * log(m * m)  # above log(prod(diag)) >= every log det
    assert montecarlo._count_det_at_most(num, far, far, None, np.empty(num.size)) == n
    assert (calls, sizes) == ([n], [])


def test_only_the_observed_matrix_reaches_eigvalsh_at_k7_m8(monkeypatch):
    # the quarter identity's det(m^2 sigma) = 16^7 is the most a replicate can
    # reach (Hadamard's inequality), far above the bulk: every Cholesky
    # bracket of the chunk, the singular replicates' included, lies below the
    # observed one, so eigvalsh sees only the observed matrix
    k, m, replicates = 7, 8, 4096
    assert replicates <= montecarlo._chunk_size(m, k)  # one chunk holds every replicate
    sigma = CovMatrix(np.identity(k) / 4)
    sizes = _counted_eigvalsh(monkeypatch)
    est = mc_pvalues(sigma, (StatKind.GENERALIZED,), replicates, m, seed=8, workers=1)[0]
    assert (sizes, est.p_value) == ([k], 1.0)


def test_no_replicate_reaches_eigvalsh_at_k28_m200(monkeypatch):
    # the benchmark's shape: over two chunks, the only eigvalsh call is the
    # observed covariance's bracket; every replicate is decided by Cholesky
    k, m = 28, 200
    rows = np.random.default_rng(28).integers(0, 2, size=(m, k), dtype=np.uint8)
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    replicates = 2 * montecarlo._chunk_size(m, k)
    sizes = _counted_eigvalsh(monkeypatch)
    mc_pvalues(sigma, (StatKind.GENERALIZED,), replicates, m, seed=5, workers=1)
    assert sizes == [k]


def test_validation_and_the_observed_bracket_share_one_eigvalsh(monkeypatch):
    # validate_covariance and the generalized observed bracket (k = 7, m = 8 is
    # past the int64 bound) both read the covariance's one eigendecomposition;
    # no replicate reaches eigvalsh there (the quarter identity's test above)
    k = 7
    sigma = CovMatrix.from_csv_text("".join(  # fresh: nothing cached
        ",".join("0.25" if i == j else "0" for j in range(k)) + "\n" for i in range(k)))
    sizes = _counted_eigvalsh(monkeypatch)
    assert validate_covariance(sigma)
    mc_pvalues(sigma, (StatKind.GENERALIZED,), 1000, 8, seed=3, workers=1)
    assert sizes == [k]


def test_trace_and_frobenius_statistics_need_no_eigenvalues(monkeypatch):
    # total, Frobenius, t_T and t_N read the exact sums of num / den, not the
    # spectrum: on fresh covariances (CSV, sample-set and float-built) none of
    # them, nor the exact observed values of Monte Carlo, calls eigvalsh
    sizes = _counted_eigvalsh(monkeypatch)
    rows = np.random.default_rng(5).integers(0, 2, size=(30, 6), dtype=np.uint8)
    for fresh in (lambda: CovMatrix.from_csv_text("0.24,0.04\n0.04,0.24\n"),
                  lambda: estimate_moments(SampleSet(None, rows)).sigma,
                  lambda: CovMatrix(np.identity(5) / 3)):
        for statistic in (variability.var_total, variability.var_frobenius,
                          lambda sigma: asymptotic.test_total(sigma, 30),
                          lambda sigma: asymptotic.test_nagao(sigma, 30),
                          lambda sigma: observed_statistic_exact(StatKind.TOTAL, sigma),
                          lambda sigma: observed_statistic_exact(StatKind.FROBENIUS, sigma)):
            statistic(fresh())
    assert sizes == []


@pytest.mark.parametrize("workers", [1, 2])
def test_each_worker_factors_every_chunk_in_one_float_copy(workers, monkeypatch):
    # the float copy of num is in its worker's scratch, reused chunk after
    # chunk: a fresh one per chunk cost ~90k minor page faults against ~3k at
    # k = 28, R = 50000.  Every factored array is kept alive, so no freed
    # address can recur
    k, m, chunks = 28, 200, 4
    seen, bracket = [], montecarlo._cholesky_bracket
    monkeypatch.setattr(montecarlo, "_cholesky_bracket", lambda a: seen.append(a) or bracket(a))
    replicates = chunks * montecarlo._chunk_size(m, k)
    assert montecarlo._plan(ALL_KINDS, replicates, m, k, 6, workers)[-1] == workers
    sigma = CovMatrix(np.identity(k) / 4)
    est = mc_pvalues(sigma, (StatKind.GENERALIZED,), replicates, m, seed=6, workers=workers)[0]
    assert est.p_value == 1.0 and len(seen) == chunks
    assert len({a.__array_interface__["data"][0] for a in seen}) <= workers


def map_k28_chunks(first_call, workers):
    """``_map_chunks`` over 40 chunks at k = 28, m = 200, with a chunk function that
    runs ``first_call`` on its first call: what the pass raised, and the calls made."""
    k, m, calls = 28, 200, itertools.count()  # next() on a count is atomic
    *_, sizes, n_workers = montecarlo._plan(ALL_KINDS, 40 * montecarlo._chunk_size(m, k), m, k,
                                            1, workers)
    assert len(sizes) == 40 and n_workers == workers

    def fn(num, floats):
        if next(calls) == 0:
            first_call()

    with pytest.raises(BaseException) as raised:
        montecarlo._map_chunks(fn, 1, sizes, m, k, n_workers)
    return raised.value, next(calls)


@pytest.mark.parametrize("workers", [1, 2])
def test_an_error_stops_every_worker_after_its_current_chunk(workers):
    # without the stop, fn ran on all 40 chunks before the error was re-raised
    error = ValueError("first chunk")

    def fail():
        raise error

    raised, calls = map_k28_chunks(fail, workers)
    assert raised is error and calls <= workers + 1


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
@pytest.mark.parametrize("workers", [1, 2])
def test_ctrl_c_stops_every_worker_after_its_current_chunk(workers):
    # a real SIGINT to the main thread, which runs a chunk of its own or waits for
    # a lock or another worker (_thread.interrupt_main does not wake a wait).  Like
    # a terminal's Ctrl-C, its sender then holds no GIL: it waits until the main
    # thread has taken it
    main, handled = threading.main_thread().ident, threading.Event()

    def on_sigint(*_):
        handled.set()
        raise KeyboardInterrupt

    def interrupt():
        signal.pthread_kill(main, signal.SIGINT)
        handled.wait(60)

    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        raised, calls = map_k28_chunks(interrupt, workers)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert isinstance(raised, KeyboardInterrupt) and calls <= workers + 1


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
def test_ctrl_c_while_waiting_ends_the_pass_after_the_other_workers_chunk(monkeypatch):
    # the calling thread has run out of chunks and waits for the other worker's:
    # a SIGINT then is recorded, the wait is repeated until that chunk ends, and
    # the pass raises KeyboardInterrupt with no thread of it left running.  (A
    # Thread.join that Ctrl-C interrupts marks the thread stopped before Python
    # 3.13, so a repeated join returns while the thread still runs)
    main = threading.main_thread().ident
    started, waiting, handled = threading.Event(), threading.Event(), threading.Event()
    done = []

    class Event(threading.Event):
        def wait(self, timeout=None):
            if threading.get_ident() == main and main in done:
                waiting.set()  # the calling thread's wait for the other worker
            return super().wait(timeout)

    def on_sigint(*_):
        handled.set()
        raise KeyboardInterrupt

    def fn(num, floats):
        if threading.get_ident() == main:
            started.wait(60)  # each worker holds one of the two chunks
        else:
            started.set()
            waiting.wait(60)
            signal.pthread_kill(main, signal.SIGINT)
            handled.wait(60)
        done.append(threading.get_ident())

    k, m = 28, 200
    *_, sizes, n_workers = montecarlo._plan(ALL_KINDS, 2 * montecarlo._chunk_size(m, k), m, k,
                                            1, 2)
    assert len(sizes) == n_workers == 2
    before = threading.active_count()
    monkeypatch.setattr(threading, "Event", Event)
    previous = signal.signal(signal.SIGINT, on_sigint)
    try:
        with pytest.raises(KeyboardInterrupt):
            montecarlo._map_chunks(fn, 1, sizes, m, k, n_workers)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert waiting.is_set() and handled.is_set() and len(done) == 2
    assert threading.active_count() == before


def test_a_thread_that_cannot_start_stops_the_pass(monkeypatch):
    # the second of two threads fails to start: the first stops after its current
    # chunk, the calling thread takes no chunk, and the start's error is raised
    starts, error = itertools.count(), RuntimeError("can't start new thread")

    class Thread(threading.Thread):
        def start(self):
            if next(starts) == 1:
                raise error
            super().start()

    before = threading.active_count()
    monkeypatch.setattr(threading, "Thread", Thread)
    raised, calls = map_k28_chunks(lambda: None, 3)
    assert raised is error and calls <= 2 and threading.active_count() == before


def test_one_worker_starts_no_thread(monkeypatch):
    expected = [mc_pvalues(S2, ALL_KINDS, 5000, 100, seed=4, workers=1),
                sample_null_statistics(StatKind.FROBENIUS, 100, 2, 5000, 4)]

    def no_thread(*args, **kwargs):
        raise AssertionError("a one-worker pass started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    got = [mc_pvalues(S2, ALL_KINDS, 5000, 100, seed=4, workers=1),
           sample_null_statistics(StatKind.FROBENIUS, 100, 2, 5000, 4)]
    assert got[0] == expected[0] and (got[1] == expected[1]).all()


def test_two_workers_start_one_thread(monkeypatch):
    # the calling thread is the first worker
    starts = itertools.count()

    class Thread(threading.Thread):
        def start(self):
            next(starts)
            super().start()

    k, m = 28, 200
    replicates = 2 * montecarlo._chunk_size(m, k)
    assert montecarlo._plan(ALL_KINDS, replicates, m, k, 1, 2)[-1] == 2
    sigma = CovMatrix(np.identity(k) / 4)
    expected = mc_pvalues(sigma, ALL_KINDS, replicates, m, seed=1, workers=1)
    monkeypatch.setattr(threading, "Thread", Thread)
    assert mc_pvalues(sigma, ALL_KINDS, replicates, m, seed=1, workers=2) == expected
    assert next(starts) == 1


def test_generalized_just_above_m_equal_k_is_fast():
    # past the int64 bound, just above m = k, every replicate determinant is
    # far below 4^-k; its log-determinant still decides, with no Bareiss
    # re-check of the bulk
    import time

    m, k = 55, 45
    rows = np.random.default_rng(45).integers(0, 2, size=(m, k), dtype=np.uint8)
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    started = time.perf_counter()
    est = mc_pvalues(sigma, (StatKind.GENERALIZED,), 400, m, seed=3, workers=1)[0]
    assert time.perf_counter() - started < 1.0
    assert round(est.p_value * 400) == 317


def test_generalized_large_k_compares_log_determinants(monkeypatch):
    # at k = 300 a singular (duplicated-column) and a sparse observed matrix
    # lie below every replicate's determinant, so far from the null that
    # p = 0; log-determinant brackets prove every count and the reported
    # t0 (which rounds to 4^-k) with no exact observed value
    def no_exact(kind, sigma):
        raise AssertionError("exact observed value computed")

    monkeypatch.setattr(montecarlo, "observed_statistic_exact", no_exact)
    m, k = 320, 300
    rng = np.random.default_rng(300)
    duplicated = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
    duplicated[:, 1] = duplicated[:, 0]
    sparse = (rng.random((m, k)) < 0.05).astype(np.uint8)
    for rows in (duplicated, sparse):
        sigma = estimate_moments(SampleSet(None, rows)).sigma
        est = mc_pvalues(sigma, (StatKind.GENERALIZED,), 20, m, seed=3)[0]
        assert (est.p_value, est.observed_statistic) == (0.0, 4.0**-k)


@pytest.mark.parametrize("k, m", [(3, 10), (7, 8), (28, 20), (300, 20)])
def test_a_zero_row_decides_the_observed_generalized_value_without_bareiss(k, m, monkeypatch):
    # a never-present edge gives sigma a zero row, so det sigma = 0 and t0 =
    # 4^-k; within the int64 bound (k = 3), past it (k = 7) and at m <= k
    # (k = 28, and k = 300, where an object Bareiss of sigma takes seconds)
    # the exact observed value itself, the tally and the reported value need
    # no Bareiss determinant of the observed matrix
    replicates = 200
    rows = np.random.default_rng(k).integers(0, 2, size=(m, k), dtype=np.uint8)
    rows[:, 1] = 0
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    int_det = montecarlo._int_det

    def replicates_only(a):
        assert a.ndim == 3, "a Bareiss determinant of the observed matrix"
        return int_det(a)

    monkeypatch.setattr(montecarlo, "_int_det", replicates_only)
    t0 = observed_statistic_exact(StatKind.GENERALIZED, sigma)
    assert t0 == Fraction(1, 4**k)
    if m <= k:  # every replicate is singular
        hits = replicates
    else:
        num = numerators(1, 0, replicates, m, k)
        hits = int((montecarlo._int_det(num.astype(object)) == 0).sum())
        assert 0 < hits < replicates
    est = mc_pvalues(sigma, (StatKind.GENERALIZED,), replicates, m, seed=1)[0]
    assert (est.p_value, est.observed_statistic) == (hits / replicates, float(t0))


@pytest.mark.parametrize("k, m", [(10, 3), (16, 2)])
def test_generalized_at_m_at_most_k_counts_by_rank_inside_the_int64_range(k, m, monkeypatch):
    # at m <= k every replicate is singular, so its scaled generalized statistic
    # is den^k: inside the int64 range too the count is decided by rank, and no
    # replicate reaches a Bareiss determinant.  Every replicate hits when det
    # sigma >= 0 (sample-set input, forced positive definite) and none when it
    # is negative (forced indefinite)
    assert montecarlo._int_stats_fit(StatKind.GENERALIZED, m, k)
    int_det = montecarlo._int_det

    def observed_only(a):
        assert a.ndim == 2, "a Bareiss determinant of replicates"
        return int_det(a)

    monkeypatch.setattr(montecarlo, "_int_det", observed_only)
    rows = (np.random.default_rng(k).random((m, k)) < 0.5).astype(np.uint8)
    indefinite = np.identity(k) / 5
    indefinite[0, 0] = -0.01
    for sigma, p in ((estimate_moments(SampleSet(None, rows)).sigma, 1.0),
                     (CovMatrix(np.identity(k) / 5), 1.0), (CovMatrix(indefinite), 0.0)):
        est = mc_pvalues(sigma, ALL_KINDS, 2000, m, seed=1, workers=1)
        t0 = observed_statistic_exact(StatKind.GENERALIZED, sigma)
        assert (est[1].p_value, est[1].observed_statistic) == (p, float(t0))


def test_a_zero_row_with_one_nonzero_entry_goes_to_bareiss(monkeypatch):
    # a zero diagonal entry is no certificate: with one nonzero entry in its
    # row the forced matrix is indefinite, det sigma = -1/400, and the exact
    # observed value comes from a Bareiss determinant of the observed matrix;
    # no replicate det is below 0, so p = 0
    zero_row = CovMatrix.from_csv_text("0,0,0\n0,0.25,0\n0,0,0.25\n")
    mutant = CovMatrix.from_csv_text("0,0.1,0\n0.1,0.25,0\n0,0,0.25\n")
    observed, int_det = [], montecarlo._int_det
    monkeypatch.setattr(montecarlo, "_int_det", lambda a: observed.append(a.ndim == 2) or int_det(a))
    for sigma, t0, bareiss in ((zero_row, Fraction(1, 64), False),
                               (mutant, Fraction(1, 64) + Fraction(1, 400), True)):
        observed.clear()
        est = mc_pvalues(sigma, (StatKind.GENERALIZED,), 100, 10, seed=1)[0]
        assert (est.observed_statistic, any(observed)) == (float(t0), bareiss)
    assert est.p_value == 0.0


def test_generalized_forced_entry_at_the_domain_end():
    # an entry past 1 is rejected before any Monte Carlo work; at 1 the
    # observed bracket is finite (it overflowed past ~1e154), and t0 = 1/4 - 1
    with pytest.raises(ValueError, match=r"must lie in \[-1, 1\], got 1e\+300"):
        CovMatrix.from_csv_text("1e300\n")
    est = mc_pvalues(CovMatrix.from_csv_text("1\n"), (StatKind.GENERALIZED,), 10, 10, seed=1)[0]
    assert (est.p_value, est.observed_statistic) == (1.0, -0.75)


@pytest.mark.parametrize("e", [53, 56])
def test_generalized_reported_t0_is_correctly_rounded_above_k64(e, monkeypatch):
    # sigma = c I with 4^k det(sigma) ~ 2^-e: at e = 53, t0 ~ 4^-k (1 - 2^-53)
    # rounds to a float of its own, which must come from the exact value; at
    # e = 56 the bracket proves that t0 rounds to 4^-k, with no exact value
    k, m = 66, 70
    sigma = CovMatrix(np.identity(k) * 2.0 ** (-e / k) / 4)
    t0 = float(observed_statistic_exact(StatKind.GENERALIZED, sigma))
    assert (t0 == 4.0**-k) == (e == 56)
    if e == 56:
        monkeypatch.setattr(montecarlo, "observed_statistic_exact", None)
    est = mc_pvalues(sigma, (StatKind.GENERALIZED,), 10, m, seed=1)[0]
    assert (est.observed_statistic, est.p_value) == (t0, 1.0)


@pytest.mark.parametrize("m", [40, 50, 66])
def test_generalized_singular_observed_above_k64(m):
    # a covariance estimated from m <= k samples is singular, like every
    # replicate, so the exact p is 1 and t0 is exactly 4^-k; no float
    # determinant sign may decide it
    k = 66
    for s in range(10):
        rows = np.random.default_rng(s).integers(0, 2, (m, k), dtype=np.uint8)
        sigma = estimate_moments(SampleSet(None, rows)).sigma
        est = mc_pvalues(sigma, (StatKind.GENERALIZED,), 20, m, seed=s, workers=1)[0]
        assert (est.p_value, est.observed_statistic) == (1.0, 4.0**-k), s


def test_generalized_exact_tie_above_k64(monkeypatch):
    # the observed covariance is one replicate's own, so its bracket overlaps
    # that replicate's: the exact observed value is computed once, lazily,
    # from the chunk count, and p * R equals the Python-int Bareiss count
    # of det <= the observed det, the tie included
    import sys
    import threading
    import time

    k, m, replicates, seed = 66, 70, 10, 4
    assert replicates <= montecarlo._chunk_size(m, k)  # one chunk holds every replicate
    num = numerators(seed, 0, replicates, m, k)
    dets = montecarlo._int_det(num.astype(object))
    calls = []
    exact = montecarlo.observed_statistic_exact

    def counted(kind, sigma):
        calls.append(kind)
        time.sleep(0.01)  # widens the window for racing callers
        return exact(kind, sigma)

    monkeypatch.setattr(montecarlo, "observed_statistic_exact", counted)
    for r in (0, 1):
        sigma = CovMatrix.from_exact(num[..., r], m * m)
        est = mc_pvalues(sigma, (StatKind.GENERALIZED,), replicates, m, seed, workers=2)[0]
        assert round(est.p_value * replicates) == sum(d <= dets[r] for d in dets)
        assert est.observed_statistic == float(Fraction(1, 4**k) - Fraction(dets[r], m ** (2 * k)))
    assert len(calls) == 2
    # chunk counts racing on more threads than cores compute t0 once, and agree
    calls.clear()
    _, count = montecarlo._counter(StatKind.GENERALIZED, sigma, m)
    barrier, results = threading.Barrier(8), []

    def race():
        floats = np.empty(num.size)  # each thread its own float copy, as each worker
        barrier.wait(timeout=30)
        results.append(count(num, floats))

    threads = [threading.Thread(target=race) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [sum(d <= dets[1] for d in dets)] * 8 and len(calls) == 1


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


def test_generalized_null_values_past_the_int64_bound():
    # k=5, m=30 is past _int_stats_fit: sample_null_statistics gives the
    # float 4^-k - det(num / m^2), which must equal the exact integer form
    # over its scale to the rounding of a float determinant (measured 1e-14)
    m, k, count, seed = 30, 5, 5000, 11
    kind = StatKind.GENERALIZED
    assert not montecarlo._int_stats_fit(kind, m, k)
    values = sample_null_statistics(kind, m, k, count, seed)
    sizes = montecarlo._plan((kind,), count, m, k, seed, 1)[4]
    assert len(sizes) == 2  # the chunk boundary is crossed
    num = np.concatenate(montecarlo._map_chunks(lambda num, _: num.copy(), seed, sizes, m, k, 1),
                         axis=-1)
    scale = montecarlo._scale(kind, k, m * m)
    exact = [float(Fraction(int(s), scale))
             for s in montecarlo._scaled_stat(kind, num.astype(object), m * m)]
    np.testing.assert_allclose(values, exact, rtol=1e-13, atol=0)


def test_generalized_above_k64_decided_without_determinants():
    # above k = 64 no replicate determinant is needed at m <= k (every
    # replicate det is 0, the null's maximum) or for a negative observed det
    # (beyond every replicate): p = 1 for 0.25 I and p = 0 for an indefinite
    # matrix
    k = 66
    quarter = np.identity(k) / 4
    indefinite = quarter.copy()
    indefinite[0, 1] = indefinite[1, 0] = 0.3  # eigenvalues 0.55 and -0.05
    ests = [mc_pvalues(CovMatrix(quarter), (StatKind.GENERALIZED,), 50, 60, seed=5)[0]]
    ests += [mc_pvalues(CovMatrix(indefinite), (StatKind.GENERALIZED,), 50, m, seed=5)[0]
             for m in (60, 70)]
    assert [e.p_value for e in ests] == [1.0, 0.0, 0.0]


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


@pytest.mark.parametrize("k, m, tallies", [
    (2, 200, (128, 281, 1756)),
    (28, 200, (447, 765, 889)),
    (70, 100, (756, 735, 1579)),
])
def test_stream_pin(k, m, tallies):
    # exact tallies of a fixed seed, recorded before the popcount kernel:
    # a change to the draws or the counting kernel that moves the random
    # stream fails here
    rows = np.random.default_rng(1000 + k).integers(0, 2, size=(m, k), dtype=np.uint8)
    sigma = estimate_moments(SampleSet(None, rows)).sigma
    ests = mc_pvalues(sigma, ALL_KINDS, 2000, m, seed=20090607, workers=1)
    assert tuple(round(e.p_value * e.replicates) for e in ests) == tallies


def test_only_the_generalized_observed_statistic_overflows():
    # inside the entry domain total and Frobenius t0 are at most 5k/4 and
    # 25k^2/16; generalized t0 = 4^-k - det sigma reaches -2^1024 (a forced
    # H_256) and rounds as IEEE overflow does, and the old float-range inputs
    # are rejected
    edge = 2**1024 - 2**970  # the first value that rounds to inf
    rounded = [montecarlo._float(Fraction(t0)) for t0 in (-edge + 1, -edge, edge)]
    assert rounded == [-sys.float_info.max, -np.inf, np.inf]
    for text in ("1e308,0\n0,1e308\n", "1e200,0\n0,0.1\n"):
        with pytest.raises(ValueError, match=r"must lie in \[-1, 1\]"):
            CovMatrix.from_csv_text(text)


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert threads(None, 100) == 1
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: {1, 3, 5}, raising=False)
    assert threads(None, 100) == 3
    assert threads(None, 2) == 2
    assert threads(6, 100) == 6
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)  # not on every OS
    assert threads(None, 100) == 8
