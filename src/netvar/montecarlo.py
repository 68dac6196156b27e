"""Monte Carlo significance values under the maximum-entropy null.

Replicates draw an m x k matrix of independent fair bits, form the
plug-in covariance, and evaluate a distance-from-maximum-entropy
statistic (large means far from the null):

* total:       k/4 - tr(sigma*)
* generalized: 4^-k - det(sigma*)
* frobenius:   sum((lambda* - 1/4)^2)

The p-value is the proportion of replicates whose statistic is >= the
observed one.  Two implementation guarantees matter here:

1. Determinism and thread-count invariance.  Work is split into chunks
   whose size depends only on (m, k); chunk c draws from a counter-based
   generator keyed by (seed, c), so every replicate's randomness is a
   pure function of (seed, replicate index) and the tally is identical
   for any number of workers.  One argument check and chunk plan
   (:func:`_chunk_sizes`) and one loop over the chunks
   (:func:`_map_chunks`) serve both :func:`mc_pvalues` and
   :func:`sample_null_statistics`.

2. Exact ties.  Replicate statistics are rationals with denominator a
   power of m, and an observed covariance can sit exactly on one of them
   with positive probability (it does for covariance matrices entered as
   decimals, and for any covariance estimated from a sample set).  Each
   statistic has one integer form in a covariance's exact value
   ``num / den`` (:func:`_scaled_stat`); replicates have
   ``num = m s2 - s1 s1^T`` over ``den = m^2`` and are compared with one
   integer threshold, ``ceil(t0 * scale)`` by integer division.  Total
   and Frobenius are always decided in integers: in int64 while the
   scaled statistic fits (``k m^2 < 2^63`` and ``k^2 m^4 < 2^63``), in
   Python ints past that.  Generalized at m <= k is decided by rank:
   every replicate covariance is singular, so all replicates sit at the
   maximum 4^-k.  Otherwise it is the only statistic that uses floats:
   they decide outside a narrow band around the observed value, and
   replicates inside it are re-checked in Python ints; above k = 64
   floats decide alone.  Each statistic's comparison is chosen once per
   call (:func:`_counter`).  ``p_value * R`` is thus exactly the number
   of replicates with statistic >= observed.

Replicates draw their edge bits straight from the generator's raw 64-bit
output: each column is ``ceil(m/64)`` words, bits past m are cleared, and
one batched float32 matmul of the unpacked bits gives the cross sums
(exact, since every partial sum is an integer <= m < 2^24).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .moments import CovMatrix
from .variability import StatKind

CHUNK_TARGET = 1 << 22  # edge bits per chunk, caps worker memory
NEAR_TIE_REL = 1e-11  # well above kernel float error, well below grid spacing
EXACT_TIE_MAX_K = 64  # generalized: beyond this, tie atoms are unreachable
INT64_MAX = 2**63 - 1
FLOAT32_EXACT_M = 1 << 24  # float32 sums of 0/1 values are exact below this


@dataclass(frozen=True)
class McEstimate:
    p_value: float
    replicates: int
    stderr: float
    seed: int
    observed_statistic: float
    stat: StatKind

    @property
    def below_resolution(self) -> bool:
        """True when no replicate reached the observed statistic (p < 1/R)."""
        return self.p_value == 0.0


def _chunk_size(m: int, k: int) -> int:
    return max(1, min(4096, CHUNK_TARGET // max(1, m * k)))


def _chunk_sizes(replicates: int, m: int, k: int, seed: int) -> list[int]:
    """Replicates per chunk for a run of the stream; rejects bad arguments."""
    if replicates < 1:
        raise ValueError(f"replicate count must be >= 1, got {replicates}")
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    chunk = _chunk_size(m, k)
    return [min(chunk, replicates - start) for start in range(0, replicates, chunk)]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _resolve_workers(workers: int | None, n_chunks: int) -> int:
    """Worker threads for n_chunks chunks: min(requested, n_chunks, NETVAR_THREADS)."""
    w = workers if workers is not None else (os.cpu_count() or 1)
    if w < 1:
        raise ValueError(f"worker count must be >= 1, got {w}")
    cap = os.environ.get("NETVAR_THREADS")
    if cap:
        try:
            limit = int(cap)
        except ValueError:
            limit = 0
        if limit < 1:
            raise ValueError(f"NETVAR_THREADS must be an integer >= 1, got {cap!r}")
        w = min(w, limit)
    return min(w, n_chunks)


def _draw_bits(bitgen: np.random.BitGenerator, n: int, m: int, k: int) -> np.ndarray:
    """n replicates' k edge columns of m fair bits, packed.

    Shape (n, k, ceil(m/64)) of uint64 words: bit j of a column is bit
    j % 64 of word j // 64, and bits at positions >= m are cleared.
    """
    words = bitgen.random_raw(n * k * ((m + 63) // 64)).reshape(n, k, -1)
    if m % 64:
        words[:, :, -1] &= np.uint64((1 << (m % 64)) - 1)
    return words


def _bit_counts(words: np.ndarray, m: int):
    """Column sums s1 (n, k) and cross sums s2 (n, k, k), int64, from packed bits."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    x = np.unpackbits(octets, axis=-1, count=m, bitorder="little")
    x = x.astype(np.float32 if m < FLOAT32_EXACT_M else np.float64)
    s2 = np.matmul(x, x.transpose(0, 2, 1)).astype(np.int64)  # exact: sums <= m
    s1 = s2.diagonal(axis1=1, axis2=2).copy()  # binary data: x_i . x_i = sum(x_i)
    return s1, s2


def _draw_counts(seed: int, chunk_index: int, n: int, m: int, k: int):
    """Count arrays (s1, s2) for the n replicates of one chunk."""
    bitgen = _chunk_rng(seed, chunk_index).bit_generator
    return _bit_counts(_draw_bits(bitgen, n, m, k), m)


def _count_num(s1, s2, m: int) -> np.ndarray:
    """``m s2 - s1 s1^T`` per replicate: m^2 times the plug-in covariance, int64."""
    return m * s2 - s1[:, :, None] * s1[:, None, :]


def _map_chunks(fn, seed: int, sizes: list[int], m: int, k: int, workers: int | None) -> list:
    """``fn(num)`` of each chunk's replicate numerators (:func:`_count_num`), in chunk order."""

    def task(c):
        return fn(_count_num(*_draw_counts(seed, c, sizes[c], m, k), m))

    with ThreadPoolExecutor(max_workers=_resolve_workers(workers, len(sizes))) as pool:
        return list(pool.map(task, range(len(sizes))))


def _scale(kind: StatKind, k: int, den: int) -> int:
    """Factor that makes the statistic of a covariance ``num / den`` an integer."""
    if kind is StatKind.TOTAL:
        return 4 * den
    if kind is StatKind.FROBENIUS:
        return 16 * den * den
    return 4**k * den**k


def _int_stats_fit(kind: StatKind, m: int, k: int) -> bool:
    """True when the scaled statistic of every replicate fits in int64."""
    if kind is StatKind.TOTAL:
        return k * m * m <= INT64_MAX  # k terms (2S - m)^2, each <= m^2
    if kind is StatKind.FROBENIUS:
        return k * k * m**4 <= INT64_MAX  # k^2 terms, each <= m^4
    return False


def _scaled_stat(kind: StatKind, num: np.ndarray, den: int):
    """``_scale(kind, k, den)`` times the statistic of the covariance ``num / den``.

    total: ``k den - 4 tr(num)``; frobenius: ``sum_ij (4 num_ij - den delta_ij)^2``
    (both also on a batch (n, k, k), int64 within :func:`_int_stats_fit`);
    generalized: ``den^k - 4^k det(num)``, one matrix.  Object arrays of
    Python ints never overflow.
    """
    k = num.shape[-1]
    if kind is StatKind.TOTAL:
        return k * den - 4 * num.diagonal(axis1=-2, axis2=-1).sum(axis=-1)
    if kind is StatKind.FROBENIUS:
        d = 4 * num
        d[..., range(k), range(k)] -= den
        return (d * d).sum(axis=(-2, -1))
    return den**k - 4**k * _int_det(num.tolist())


def _replicate_values(kind: StatKind, num: np.ndarray, m: int) -> np.ndarray:
    """Statistics of a batch of replicates ``num / m^2``.

    Total and Frobenius are their :func:`_scaled_stat` (int64 within
    :func:`_int_stats_fit`, Python ints past it); generalized is the float
    statistic ``4^-k - det``.
    """
    if kind is StatKind.GENERALIZED:
        return 4.0 ** -num.shape[-1] - np.linalg.det(num / float(m * m))
    fits = _int_stats_fit(kind, m, num.shape[-1])
    return _scaled_stat(kind, num if fits else num.astype(object), m * m)


def _int_det(mat: list[list[int]]) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign, prev = 1, 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i] != 0:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def _observed_scaled(kind: StatKind, sigma: CovMatrix) -> tuple[int, int]:
    """The observed statistic as the integer pair (scaled value, scale)."""
    num, den = sigma.exact
    return _scaled_stat(kind, num.astype(object), den), _scale(kind, sigma.k, den)


def observed_statistic_exact(kind: StatKind, sigma: CovMatrix) -> Fraction:
    """Observed statistic as an exact rational (same form as the replicates)."""
    return Fraction(*_observed_scaled(kind, sigma))


def _near_margin(k: int, t0f: float) -> float:
    """Width of the band around the observed generalized statistic that
    goes to exact checks.

    Scaled to the statistic's magnitude: kernel float error is at most a
    few 1e-14 of it, while distinct rational outcomes differ by at least
    ~scale/(4 m^2), so for any workable m the band isolates true ties.
    """
    return NEAR_TIE_REL * max(4.0**-k, abs(t0f), 1e-300)


def _counter(kind: StatKind, sigma: CovMatrix, m: int):
    """The observed statistic as a float, and a function that counts the
    replicates of one chunk (``num`` of :func:`_count_num`) at or above it.

    The comparison is chosen once per call: total and Frobenius against the
    integer threshold; generalized by rank when m <= k, by floats alone
    above EXACT_TIE_MAX_K, and otherwise by floats outside the near-tie
    band with a Bareiss re-check inside it.
    """
    k, den = sigma.k, m * m
    if kind is StatKind.GENERALIZED and k > EXACT_TIE_MAX_K:
        t0f = cut = float(4.0**-k - np.linalg.det(sigma.entries))
    else:
        t0, scale0 = _observed_scaled(kind, sigma)
        t0f = t0 / scale0
        # replicate value s / scale >= t0 / scale0  <=>  s >= ceil(t0 scale / scale0);
        # replicate values are >= 0, so clamping at 0 keeps every count
        cut = max(-(-t0 * _scale(kind, k, den) // scale0), 0)
        if _int_stats_fit(kind, m, k):
            cut = min(cut, INT64_MAX)  # int64 values stay below it

    if kind is StatKind.GENERALIZED and m <= k:
        # num = X^T (m I - 1 1^T) X has rank <= m - 1 < k: every replicate
        # has det 0 and sits at the maximum 4^-k (scaled: den^k)
        at_max = (4.0**-k if k > EXACT_TIE_MAX_K else den**k) >= cut
        return t0f, lambda num: len(num) * at_max
    if kind is not StatKind.GENERALIZED or k > EXACT_TIE_MAX_K:
        return t0f, lambda num: int((_replicate_values(kind, num, m) >= cut).sum())
    margin = _near_margin(k, t0f)

    def count(num):
        stats = _replicate_values(kind, num, m)
        hits = int((stats > t0f + margin).sum())
        for r in np.flatnonzero(np.abs(stats - t0f) <= margin):
            hits += _scaled_stat(kind, num[r].astype(object), den) >= cut
        return hits

    return t0f, count


def sample_null_statistics(stat: StatKind, m: int, k: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` null statistics of the :func:`mc_pvalues` stream.

    Total and Frobenius are their exact integer forms divided by the scale,
    i.e. the correctly rounded replicate values while both are below 2^53,
    so ``stats >= observed_statistic`` agrees with the tally; generalized
    is a float determinant.  Arguments are checked as in :func:`mc_pvalues`.
    """
    sizes = _chunk_sizes(count, m, k, seed)
    scale = 1 if stat is StatKind.GENERALIZED else _scale(stat, k, m * m)

    def values(num):
        return (_replicate_values(stat, num, m) / scale).astype(np.float64)

    return np.concatenate(_map_chunks(values, seed, sizes, m, k, workers=1))


def mc_pvalues(
    sigma: CovMatrix,
    kinds: tuple[StatKind, ...],
    replicates: int,
    m: int,
    seed: int,
    workers: int | None = None,
) -> list[McEstimate]:
    """Monte Carlo p-values for several statistics over one replicate stream.

    All requested statistics are evaluated on the same null draws (the
    draws depend only on seed, m and k).  Each p-value is the proportion
    of replicates whose statistic is >= the observed one.
    """
    k = sigma.k
    sizes = _chunk_sizes(replicates, m, k, seed)
    counters = [_counter(kind, sigma, m) for kind in kinds]
    tallies = _map_chunks(lambda num: [count(num) for _, count in counters],
                          seed, sizes, m, k, workers)
    out = []
    for kind, (observed, _), hits in zip(kinds, counters, zip(*tallies)):
        p = sum(hits) / replicates
        stderr = sqrt(p * (1.0 - p) / replicates)
        out.append(McEstimate(p, replicates, stderr, seed, observed, kind))
    return out
