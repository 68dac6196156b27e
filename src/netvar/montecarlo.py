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
   for any number of workers.

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
   Python ints past that.  Only the generalized statistic uses floats:
   they decide outside a narrow band around the observed value, and
   replicates inside it are re-checked in Python ints; above k = 64
   floats decide alone.  ``p_value * R`` is thus exactly the number of
   replicates with statistic >= observed.

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


def _replicate_scaled(kind: StatKind, num: np.ndarray, m: int):
    """Total or Frobenius :func:`_scaled_stat` of replicates ``num / m^2``:
    int64 within :func:`_int_stats_fit`, Python ints past it."""
    k = num.shape[-1]
    return _scaled_stat(kind, num if _int_stats_fit(kind, m, k) else num.astype(object), m * m)


def _float_generalized(cov: np.ndarray) -> np.ndarray:
    """Generalized statistic ``4^-k - det(cov)`` of a batch (n, k, k), in floats."""
    return 4.0 ** -cov.shape[-1] - np.linalg.det(cov)


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


def sample_null_statistics(stat: StatKind, m: int, k: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` null statistics of the :func:`mc_pvalues` stream.

    Total and Frobenius are their exact integer forms divided by the scale,
    i.e. the correctly rounded replicate values while both are below 2^53,
    so ``stats >= observed_statistic`` agrees with the tally; generalized
    is a float determinant.
    """
    chunk = _chunk_size(m, k)
    parts = []
    produced = 0
    for c in range((count + chunk - 1) // chunk):
        n = min(chunk, count - produced)
        s1, s2 = _draw_counts(seed, c, n, m, k)
        num = _count_num(s1, s2, m)
        if stat is StatKind.GENERALIZED:
            parts.append(_float_generalized(num / float(m * m)))
        else:
            scaled = _replicate_scaled(stat, num, m)
            parts.append((scaled / _scale(stat, k, m * m)).astype(np.float64))
        produced += n
    return np.concatenate(parts)


@dataclass(frozen=True)
class _Cut:
    """How one statistic's replicates are compared with the observed value.

    ``threshold`` is the least replicate ``_scaled_stat`` at ``den = m^2``
    that counts as >= observed; None (generalized above EXACT_TIE_MAX_K)
    leaves the comparison to floats.
    """

    kind: StatKind
    observed: float
    threshold: int | None = None


def _make_cut(kind: StatKind, sigma: CovMatrix, m: int) -> _Cut:
    k = sigma.k
    if kind is StatKind.GENERALIZED and k > EXACT_TIE_MAX_K:
        return _Cut(kind, float(_float_generalized(sigma.entries[None])[0]))
    t0, scale0 = _observed_scaled(kind, sigma)
    # replicate value s / scale >= t0 / scale0  <=>  s >= ceil(t0 scale / scale0);
    # replicate values are >= 0, so clamping at 0 keeps every count
    threshold = max(-(-t0 * _scale(kind, k, m * m) // scale0), 0)
    return _Cut(kind, t0 / scale0, threshold)


def _chunk_tally(seed, chunk_index, n, m, k, cuts):
    """Count replicates with statistic >= observed, exactly, for one chunk."""
    s1, s2 = _draw_counts(seed, chunk_index, n, m, k)
    num, den = _count_num(s1, s2, m), m * m
    counts = []
    for cut in cuts:
        if cut.kind is not StatKind.GENERALIZED:
            scaled = _replicate_scaled(cut.kind, num, m)
            # int64 values stay below INT64_MAX, so clamping keeps every count
            threshold = cut.threshold if scaled.dtype == object else min(cut.threshold, INT64_MAX)
            counts.append(int((scaled >= threshold).sum()))
            continue
        stats = _float_generalized(num / float(den))
        if cut.threshold is None:
            counts.append(int((stats >= cut.observed).sum()))
            continue
        margin = _near_margin(k, cut.observed)
        hits = int((stats > cut.observed + margin).sum())
        for r in np.flatnonzero(np.abs(stats - cut.observed) <= margin):
            hits += _scaled_stat(cut.kind, num[r].astype(object), den) >= cut.threshold
        counts.append(hits)
    return counts


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
    if replicates < 1:
        raise ValueError(f"replicate count must be >= 1, got {replicates}")
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")

    cuts = [_make_cut(kind, sigma, m) for kind in kinds]

    chunk = _chunk_size(m, k)
    n_chunks = (replicates + chunk - 1) // chunk
    sizes = [min(chunk, replicates - c * chunk) for c in range(n_chunks)]
    n_workers = _resolve_workers(workers, n_chunks)

    def task(c):
        return _chunk_tally(seed, c, sizes[c], m, k, cuts)

    if n_workers == 1:
        tallies = [task(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            tallies = list(pool.map(task, range(n_chunks)))

    out = []
    for pos, cut in enumerate(cuts):
        p = sum(t[pos] for t in tallies) / replicates
        stderr = sqrt(p * (1.0 - p) / replicates)
        out.append(McEstimate(p, replicates, stderr, seed, cut.observed, cut.kind))
    return out
