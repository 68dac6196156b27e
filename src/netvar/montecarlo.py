"""Monte Carlo significance values under the maximum-entropy null.

Replicates draw an m x k matrix of independent fair bits, form the
plug-in covariance, and evaluate a distance-from-maximum-entropy
statistic (large means far from the null):

* total:       k/4 - tr(sigma*)
* generalized: 4^-k - det(sigma*)
* frobenius:   sum((lambda* - 1/4)^2)

The p-value is the proportion of replicates whose statistic is >= the
observed one.  Two implementation guarantees matter here:

1. Determinism and thread-count invariance.  Work is split into chunks whose
   size depends only on (m, k); chunk c draws from a counter-based generator
   keyed by (seed, c), so every replicate's randomness is a pure function of
   (seed, replicate index) and the tally is identical for any number of
   workers.  One run plan (:func:`_plan`: every argument checked, the chunks
   and workers fixed, before any work) and one chunk loop (:func:`_map_chunks`:
   the calling thread is its first worker, so one worker starts no thread)
   serve both :func:`mc_pvalues` and :func:`sample_null_statistics`.

2. Exact ties.  Replicate statistics are rationals with denominator a
   power of m, and an observed covariance can sit exactly on one of them
   with positive probability (it does for decimal CSV input and for any
   covariance estimated from a sample set).  Each statistic has one integer form in a
   covariance's exact value ``num / den`` (:func:`_scaled_stat`; total and Frobenius from
   tr num and sum num_ij^2, as :attr:`CovMatrix.sums` gives the observed ones); replicates
   have ``num = m s2 - s1 s1^T`` over ``den = m^2``.  :func:`_counter` derives each
   comparison once per call from the exact observed value t0
   (:func:`observed_statistic_exact`).  Total and Frobenius compare with ``cut =
   ceil(t0 scale)`` (int64 while ``k m^2`` and ``k^2 m^4 < 2^63``, Python ints past that),
   and so does generalized at m > k while its int64 Bareiss determinant (:func:`_int_det`)
   provably fits (:func:`_int_stats_fit`: k <= 6).  Else generalized compares ``det(num)
   <= floor(den^k (4^-k - t0))``: by rank at m <= k, where every replicate is singular;
   else by proven log-determinant brackets from one shifted Cholesky per chunk, which
   cannot fail, eigenvalues for the replicates it leaves open, Python ints for the rest
   and t0 only where none decides.  ``p_value * R`` is the exact count >= t0.

Replicates draw their edge bits straight from the generator's raw 64-bit output
(:func:`_draw_bits`).  Every array of a chunk has its n replicates on the last axis, so
numpy loops run over the replicates, not over k; :func:`_numerators` forms num from the
words by popcounts, with no bit unpacked and no float formed.  A chunk is one pass (draw,
num, the counts) through arrays that its worker allocates once (:func:`_scratch`).  A run
has one worker where a second measured slower (:func:`_plan`): where a chunk's popcount ANDs
fewer than ``CHUNK_TARGET // 128`` words at k = 1 or at most ``3 CHUNK_TARGET // 256`` past
it, unless generalized factors replicates (:func:`_factors`).
"""

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, inf, log, log1p, sqrt

import numpy as np
import numpy.random

from .moments import INT64_MAX, CovMatrix, _integer, _sums, sample_count
from .variability import StatKind, _frobenius

CHUNK_TARGET = 1 << 22  # edge bits per chunk of at least one replicate of m k bits
CHOLESKY_SLAB = 1 << 17  # float64 entries (1 MiB) per float copy of replicates and its factor
BAND_BLOCK = 64  # undecided replicates per Python-int determinant (bounds its memory)
MAX_WORKERS = 256  # the most workers a run may request; each allocates its own scratch


@dataclass(frozen=True)
class McEstimate:
    stat: StatKind
    p_value: float
    replicates: int
    stderr: float | None  # sqrt(p (1 - p) / R), None with no hit (0 would claim no uncertainty)
    seed: int
    observed_statistic: float

    @property
    def below_resolution(self) -> bool:
        """True when no replicate reached the observed statistic (no hits, p = 0)."""
        return self.p_value == 0.0


def _chunk_size(m: int, k: int) -> int:
    return max(1, min(4096, CHUNK_TARGET // max(1, m * k)))


def _plan(kinds, replicates: int, m: int, k: int, seed: int, workers: int | None):
    """The plan of a run, made before any work: every argument checked (m by
    :func:`sample_count`), the counts as Python ints (numpy ints overflow in exact
    arithmetic), the replicates per chunk and the worker threads: min(requested or usable
    CPUs, chunks) where a chunk's popcount ANDs at least 2^15 words at k = 1 (m >= 449) and
    more than 3 * 2^14 past it (``CHUNK_TARGET`` 2^22: k = 2 from m = 257, k = 3 from 129, k = 4
    from 65, every m at k >= 5), or a requested generalized statistic factors replicates
    (:func:`_factors`: k = 4 at m = 55..64 adds to that, as LAPACK releases the GIL), else
    one: there a second thread measured slower and held ~1 MiB more (README).  A request
    past ``MAX_WORKERS`` is an error (the usable CPUs are capped at it).  A worker's chunk of
    n replicates holds 25 m k n / 64 bytes of bits and num's 8 k^2 n (779 MiB at k = 1225,
    m = 50)."""
    if not kinds:
        raise ValueError("kinds must name at least one statistic")
    for kind in kinds:
        _scale(kind, 1, 1)  # rejects a kind that is not a StatKind
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    names = ("replicate count", "dimension k", "worker count", "seed")
    values = [_integer(*named) for named in zip(names, (
        replicates, k, min(cpus or 1, MAX_WORKERS) if workers is None else workers, seed))]
    for name, value in zip(names[:3], values):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    replicates, k, w, seed = values
    if w > MAX_WORKERS:
        raise ValueError(f"worker count must be <= {MAX_WORKERS}, got {w}")
    m = sample_count(m, k)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    chunk = _chunk_size(m, k)
    sizes = [min(chunk, replicates - s) for s in range(0, replicates, chunk)]
    words = chunk * k * (k + 1) // 2 * ((m + 63) // 64)
    bound = CHUNK_TARGET // 128 if k == 1 else 3 * CHUNK_TARGET // 256 + 1
    threaded = words >= bound or any(_factors(kind, m, k) for kind in kinds)
    return replicates, m, k, seed, sizes, min(w, len(sizes) if threaded else 1)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Philox:
    return np.random.Philox(key=np.array([seed, chunk_index], dtype=np.uint64))


def _draw_bits(bitgen: np.random.BitGenerator, n: int, m: int, k: int) -> np.ndarray:
    """n replicates' k edge columns of m fair bits, packed.

    Shape (n, k, ceil(m/64)) of uint64 words: bit j of a column is bit
    j % 64 of word j // 64, and bits at positions >= m are cleared.
    """
    words = bitgen.random_raw(n * k * ((m + 63) // 64)).reshape(n, k, -1)
    if m % 64:
        words[:, :, -1] &= np.uint64((1 << (m % 64)) - 1)
    return words


def _scratch(n: int, k: int, n_words: int):
    """Flat arrays for up to n replicates of n_words-word columns: the words, their AND and
    its popcount, and num (:func:`_numerators`)."""
    size = n_words * k * n
    return (np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size, np.uint8),
            np.empty(k * k * n, np.int64))


def _numerators(words: np.ndarray, m: int, scratch=None) -> np.ndarray:
    """``num = m s2 - s1 s1^T`` (k, k, n), int64: m^2 times the plug-in covariances of the
    packed bits (n, k, n_words) of :func:`_draw_bits`, copied replicates-last (n_words, k, n).

    Row i of the cross sums ``s2[i, j] = x_i . x_j`` is column i ANDed with columns i..
    (n_words, k - i, n), popcounted and summed over the words.  Rows go from the last to
    the first: the first sum of row i is ``x_i . x_i = s1[i]`` (binary data), so s1[i:]
    is known when the row becomes ``m s2[i, i:] - s1[i] s1[i:]`` in place; it is then
    mirrored below the diagonal.  All arrays, num too, are views into ``scratch``
    (:func:`_scratch` for >= n replicates) if given.
    """
    n, k, n_words = words.shape
    by_word, pairs, counts, num = scratch or _scratch(n, k, n_words)
    by_word, num = by_word[:words.size].reshape(n_words, k, n), num[:k * k * n].reshape(k, k, n)
    np.copyto(by_word, words.transpose(2, 1, 0))
    s1 = np.empty((k, n), np.int64)
    for i in range(k - 1, -1, -1):
        rows = by_word[:, i:]
        pair = np.bitwise_and(rows[:, :1], rows, out=pairs[:rows.size].reshape(rows.shape))
        count = np.bitwise_count(pair, out=counts[:rows.size].reshape(rows.shape))
        row = count.sum(axis=0, dtype=np.int64, out=num[i, i:])
        s1[i] = row[0]
        row *= m
        row -= s1[i] * s1[i:]
        num[i + 1:, i] = row[1:]
    return num


def _map_chunks(fn, seed: int, sizes: list[int], m: int, k: int, n_workers: int) -> list:
    """``fn(num)`` of each chunk's replicate numerators (:func:`_numerators`), in chunk order,
    on ``n_workers`` workers (:func:`_plan`): the calling thread and the threads it starts,
    each taking the next chunk until none is left through its own :func:`_scratch`, which
    holds num: fn must not keep it.  An exception in any worker (a failed start too) or
    Ctrl-C on the calling thread is recorded: no chunk starts after it, the calling thread
    waits for each started worker to end its current chunk and joins it, and the first
    exception recorded is re-raised."""
    # scratches made here: in the workers' malloc arenas they raised the paper table's RSS ~0.5 MiB
    workers = [(_scratch(sizes[0], k, (m + 63) // 64), threading.Event()) for _ in range(n_workers)]
    results, errors, lock = [None] * len(sizes), [], threading.Lock()
    chunks = iter(range(len(sizes)))

    def worker(scratch, done, threads=()):
        try:
            for thread in threads:
                thread.start()
            while True:
                with lock:
                    if errors or (c := next(chunks, None)) is None:
                        return
                num = _numerators(_draw_bits(_chunk_rng(seed, c), sizes[c], m, k), m, scratch)
                results[c] = fn(num)
        except BaseException as exc:  # on the calling thread, Ctrl-C too
            errors.append(exc)  # atomic: no lock, which Ctrl-C could interrupt
        finally:
            done.set()

    threads = [threading.Thread(target=worker, args=args) for args in workers[1:]]
    worker(*workers[0], threads)  # worker 0 starts the others: a failed start is recorded
    for thread, (_, done) in zip(threads, workers[1:]):
        if thread.ident is None:  # its start failed
            continue
        # an Event: a join that Ctrl-C interrupts marks a running thread stopped (Python < 3.13)
        while not done.is_set():
            try:
                done.wait()
            except BaseException as exc:  # Ctrl-C while waiting: recorded, then waited again
                errors.append(exc)
        thread.join()
    if errors:
        raise errors[0]
    return results


def _scale(kind: StatKind, k: int, den: int) -> int:
    """Factor that makes the statistic of a covariance ``num / den`` an integer; the one
    check that ``kind`` is a StatKind (a name such as ``"total"`` is not)."""
    if kind is StatKind.TOTAL:
        return 4 * den
    if kind is StatKind.FROBENIUS:
        return 16 * den * den
    if kind is StatKind.GENERALIZED:
        return 4**k * den**k
    raise TypeError(f"statistic must be a StatKind, got {kind!r}")


def _int_stats_fit(kind: StatKind, m: int, k: int) -> bool:
    """True when every replicate's scaled statistic is computed in int64
    without overflow.

    A replicate's ``num = m s2 - s1 s1^T`` is m^2 times a covariance of
    binary columns, so ``|num_ij| <= B = m^2/4``.  Total is k terms
    ``(2S - m)^2 <= m^2``.  Frobenius is k^2 terms ``<= m^4``, computed by
    :func:`_frobenius` (a = 1) as ``16 sum(num^2) + den (k den - 8 tr num)``,
    ``den = m^2``: ``0 <= 16 sum(num^2) <= k^2 m^4``; ``0 <= tr num <= k m^2/4``,
    so ``|den (k den - 8 tr num)| <= k m^4``; the result is ``<= k^2 m^4``, so
    ``k^2 m^4 <= INT64_MAX`` covers every intermediate.  Generalized is
    ``m^2k - 4^k det(num)``: num is positive semidefinite, so
    ``0 <= 4^k det(num) <= 4^k prod(diag) <= m^2k``.  Its Bareiss
    elimination (:func:`_int_det`) holds only minors of num; a j x j minor
    is at most ``H_j = j^(j/2) B^j`` by Hadamard's inequality, and the
    largest intermediate is the last step's ``a d - b c`` of (k-1)-order
    minors, at most ``2 H_{k-1}^2 = 2 (k-1)^(k-1) m^(4(k-1)) / 16^(k-1)``.
    Both bounds fit for k = 1 up to m = isqrt(2^63 - 1) = 3037000499, k = 2
    up to 55108, 3 up to 362, 4 up to 54, 5 up to 20, 6 up to 11, 7 up to 7,
    8 up to 5, 9 up to 4, 10-11 up to 3, 12-16 up to 2 and 17-31 at m = 1,
    where ``4^k`` itself must fit (it does whenever ``m^2k`` does at m > 1).
    :func:`_counter` decides m <= k by rank, so it runs the Bareiss at k <= 6.
    """
    if kind is StatKind.TOTAL:
        return k * m * m <= INT64_MAX
    if kind is StatKind.FROBENIUS:
        return k * k * m**4 <= INT64_MAX
    return (4**k <= INT64_MAX and m ** (2 * k) <= INT64_MAX
            and 2 * (k - 1) ** (k - 1) * m ** (4 * (k - 1)) <= INT64_MAX * 16 ** (k - 1))


def _int_det(num: np.ndarray):
    """Exact determinants of a batch ``(k, k, ...)`` of integer matrices.

    Fraction-free Bareiss elimination (Math. Comp. 22, 1968), vectorized
    over the batch: after step i every live entry is an (i+2)-order minor
    of the input, and the division by the previous pivot is exact.  A zero
    pivot takes the first row below it with a nonzero entry in its column;
    a matrix with none is singular, and is replaced by the identity so the
    later steps stay exact.  int64 input is computed in int64 (overflow-free
    within :func:`_int_stats_fit`); object arrays of Python ints never
    overflow.  A single matrix ``(k, k)`` gives a scalar.
    """
    k, _, *batch = num.shape
    a = num.reshape(k, k, -1).copy()  # eliminated in place
    singular = np.zeros(a.shape[-1], dtype=bool)
    prev = np.ones(a.shape[-1], dtype=a.dtype)
    for i in range(k - 1):
        stuck = np.flatnonzero(a[i, i] == 0)
        if stuck.size:
            rows = i + np.argmax(a[i:, i, stuck] != 0, axis=0)
            # swap rows and negate one: the determinant is unchanged
            a[i, :, stuck], a[rows, :, stuck] = a[rows, :, stuck], -a[i, :, stuck]
            dead = stuck[a[i, i, stuck] == 0]
            if dead.size:
                singular[dead] = True
                a[:, :, dead] = np.identity(k, dtype=a.dtype)[:, :, None]
                prev[dead] = 1
        pivot = a[i, i].copy()
        rest = a[i + 1:, i + 1:]
        rest *= pivot
        rest -= a[i + 1:, i, None] * a[i, None, i + 1:]
        if i:
            rest //= prev
        prev = pivot
    det = a[-1, -1]
    det[singular] = 0
    return det.reshape(batch)[()]


def _scaled_stat(kind: StatKind, num: np.ndarray, den: int, sums=None):
    """``_scale(kind, k, den)`` times the statistic of the covariance ``num / den``: total
    ``k den - 4 tr num`` and Frobenius :func:`_frobenius` at a = 1 from ``sums = (tr num, sum
    num_ij^2)``, :func:`_sums` of num unless given; generalized ``den^k - 4^k det(num)``.  On
    a matrix (k, k) or a batch (k, k, n): int64 for replicates within :func:`_int_stats_fit`,
    object arrays of Python ints, which never overflow, otherwise."""
    k = len(num)
    if kind is StatKind.GENERALIZED:
        return den**k - 4**k * _int_det(num)
    trace, squares = sums or _sums(num, kind is StatKind.FROBENIUS)
    return k * den - 4 * trace if kind is StatKind.TOTAL else _frobenius(k, trace, squares, den, 1)


def observed_statistic_exact(kind: StatKind, sigma: CovMatrix) -> Fraction:
    """Observed statistic as an exact rational (same form as the replicates): total and
    Frobenius from the covariance's one :attr:`CovMatrix.sums`; generalized is 4^-k with no
    Bareiss where a row of num is zero (a zero diagonal entry is not enough)."""
    num, den = sigma.exact
    scale = _scale(kind, sigma.k, den)  # first: it rejects a kind that is not a StatKind
    if kind is not StatKind.GENERALIZED:
        return Fraction(_scaled_stat(kind, num, den, sigma.sums[:2]), scale)
    if not (num != 0).any(axis=1).all():
        return Fraction(1, 4**sigma.k)  # det sigma = 0; a forced matrix may be indefinite
    return Fraction(_scaled_stat(kind, num.astype(object), den), scale)


def _cholesky_bracket(a: np.ndarray):
    """Proven ``(lo, hi)``, ``lo <= log det num <= hi``, for C-contiguous float64 copies a
    (n, k, k) of integer positive semidefinite num, left as given; lo = -inf if unproven.

    ``a_ii += s max(a_ii, 1)``, ``s = c / (1 - c)``, ``c = 20 k^5/2 u``, bounds kappa_2 of the
    scaled ``num + shift`` by k (1 + s) / s: Demmel's ``20 k^3/2 kappa_2 u <= 1`` (Higham, ch. 10)
    holds: one batched Cholesky of a never fails.  Its error (Thm 10.3) and a lower bound lam
    of lambda_min (AM-GM, or the shift) bound ``log det(num + shift) >= log det num`` (Weyl);
    lo adds ``k log(1 - tau / lam)``, tau >= the scaled shift, where ``tau < lam / 2`` (README)."""
    n, k, eps = len(a), a.shape[-1], np.finfo(np.float64).eps
    g, c = (k + 1) * eps / 2 / (1 - (k + 1) * eps / 2), 20 * k**2.5 * eps / 2
    diagonal = a.reshape(n, -1)[:, ::k + 1]  # a writeable view
    unshifted = diagonal.copy()
    diagonal[...] = d = unshifted + c / (1 - c) * np.maximum(unshifted, 1)
    shift = (d - unshifted) / d  # the subtraction is exact (Sterbenz, or 0)
    tau, sigma = shift.max(axis=1) * (1 + eps), shift.min(axis=1) * (1 - eps)
    log_l, log_d = np.log(np.linalg.cholesky(a).diagonal(axis1=1, axis2=2)), np.log(d)
    logdet, delta = 2 * log_l.sum(axis=1), k * (g + eps / 2) / (1 - g)
    slack = (k + 8) * eps * (2 * np.abs(log_l).sum(axis=1) + np.abs(log_d).sum(axis=1))
    lam = np.maximum(np.exp(logdet - log_d.sum(axis=1) - slack + (k - 1) * log1p(-g) - 1),
                     sigma - delta)  # two lower bounds of lambda_min(D^-1 L L^T D^-1)
    err = 3 * k * delta / lam + slack  # |log det(num + shift) - logdet| <= err
    lam -= delta  # <= lambda_min(D^-1 (num + shift) D^-1)
    proven, drop = 2 * tau < lam, np.full(n, -np.inf)  # drop <= log det num - log det(num + shift)
    drop[proven] = k * np.log1p(-tau[proven] / lam[proven]) * (1 + 16 * eps)
    diagonal[...] = unshifted
    return logdet - err + drop, logdet + err


def _eigen_bracket(a: np.ndarray, lam: np.ndarray):
    """Proven ``(sign, lo, hi)``, ``lo <= log|det a| <= hi``, for symmetric float a (n, k, k)
    with ``eigvalsh(a) = lam`` (unclamped), lo = -inf unless det a != 0 is proven: eigenvalues
    lie within ``eta = tol (|a|_F + k tiny)`` of lam, ``tol = k^3 eps`` a generous backward-error
    constant (Weyl; entries rounded within eps/2, or 2^-1075 where subnormal), so
    ``prod(|lam| -+ eta)`` bound |det|."""
    k, fi = a.shape[-1], np.finfo(np.float64)
    tol = k**3 * fi.eps
    mag, eta = np.abs(lam), tol * (np.linalg.norm(a, axis=(1, 2))[:, None] + k * fi.tiny)
    upper = np.log((mag + eta).clip(fi.tiny))
    lower = np.log((mag - eta).clip(fi.smallest_subnormal))  # mag - eta > 0 where proven
    slack = tol * (np.abs(upper) + np.abs(lower)).sum(axis=1)  # rounding of the sums
    proven = (mag > eta).all(axis=1)
    sign = np.where(proven, np.sign(lam).prod(axis=1), 0)
    return sign, np.where(proven, lower.sum(axis=1) - slack, -np.inf), upper.sum(axis=1) + slack


def _float_slabs(num: np.ndarray):
    """Consecutive slabs of num (k, k, n), at most ``CHOLESKY_SLAB`` entries each, as C-ordered
    float64 copies (n', k, k), exact below 2^53 (astype alone would keep a view's order)."""
    step = max(1, CHOLESKY_SLAB // len(num) ** 2)
    for i in range(0, num.shape[-1], step):
        yield num[..., i:i + step].transpose(2, 0, 1).astype(np.float64, order="C")


def _count_det_at_most(num: np.ndarray, lo0: float, hi0: float, limit) -> int:
    """How many integer positive semidefinite ``num`` (k, k, n) have ``det <= limit() =
    floor(X)``, ``|X| <= e^hi0``, ``X >= e^lo0`` (lo0 = -inf if X > 0 is unproven).  A bracket
    below lo0 hits and one above hi0 misses: by slab (:func:`_float_slabs`, exact: |num_ij| <=
    m^2/4) :func:`_cholesky_bracket`, for the rest :func:`_eigen_bracket` of the same copy;
    then in the whole chunk ``log(limit())``, only now computed, and Python-int Bareiss."""
    brackets = []
    for a in _float_slabs(num):
        lo, hi = _cholesky_bracket(a)
        if (rest := np.flatnonzero((hi >= lo0) & (lo <= hi0))).size:
            _, lo_e, hi_e = _eigen_bracket(left := a[rest], np.linalg.eigvalsh(left))
            lo[rest], hi[rest] = np.maximum(lo[rest], lo_e), np.minimum(hi[rest], hi_e)
        brackets.append((lo, hi))
    lo, hi = map(np.concatenate, zip(*brackets))
    hits, unsure = int((hi < lo0).sum()), (hi >= lo0) & (lo <= hi0)
    if unsure.any():
        exact = limit()
        log_limit = log(exact) if exact > 0 else -np.inf
        hits += int((unsure & (hi < log_limit)).sum())
        rest = num[..., unsure & (hi >= log_limit) & (lo <= log_limit)]
        for i in range(0, rest.shape[-1], BAND_BLOCK):
            hits += int((_int_det(rest[..., i:i + BAND_BLOCK].astype(object)) <= exact).sum())
    return hits


def _factors(kind: StatKind, m: int, k: int) -> bool:
    """True where :func:`_counter` decides ``kind`` by log-determinant brackets, whose
    Cholesky factors each chunk's replicates: generalized at m > k past
    :func:`_int_stats_fit` (at m <= k it counts by rank, within it in integers)."""
    return kind is StatKind.GENERALIZED and m > k and not _int_stats_fit(kind, m, k)


def _float(t0: Fraction) -> float:
    """t0 rounded to nearest; from 2^1024 - 2^970 on that is +-inf (IEEE overflow), as the
    generalized t0 = 4^-k - det sigma of a forced Sylvester-Hadamard H_256 (det 2^1024) is."""
    return float(t0) if abs(t0) < 2**1024 - 2**970 else inf if t0 > 0 else -inf


def _counter(kind: StatKind, sigma: CovMatrix, m: int):
    """The observed statistic as a float, and a function ``count(num)`` of the
    replicates of one chunk (:func:`_map_chunks`) at or above it: scaled statistic >=
    ``cut`` wherever :func:`_scaled_stat` decides in integers.  Else generalized counts
    ``det(num) <= floor(X)``, ``X = det(m^2 sigma)``: by rank at m <= k, on both sides of
    :func:`_int_stats_fit`, else by brackets (:func:`_factors`).  A bracket of ``det sigma``
    decides the sign of X and, where ``|det sigma| 4^k < 2^-54``, the reported t0 (4^-k); t0
    is computed at most once, where none decides."""
    k, den = sigma.k, m * m
    if kind is not StatKind.GENERALIZED or m > k and not _factors(kind, m, k):
        fit = _int_stats_fit(kind, m, k)
        t0 = observed_statistic_exact(kind, sigma)
        # replicate value s / scale >= t0  <=>  s >= ceil(t0 scale); replicate values are
        # >= 0 and int64 values < INT64_MAX, so clamping at both ends keeps every count
        cut = min(max(ceil(t0 * _scale(kind, k, den)), 0), INT64_MAX if fit else inf)
        dtype = np.int64 if fit else object  # Python ints never overflow
        return _float(t0), lambda num: int(
            (_scaled_stat(kind, num.astype(dtype, copy=False), den) >= cut).sum())
    lock, box = threading.Lock(), []

    def exact():  # (t0, limit), computed once by the first caller on any thread
        with lock:
            if not box:  # det <= den^k (4^-k - t0), floored; det >= 0, so -1 for any limit < 0
                t0 = observed_statistic_exact(kind, sigma)
                box.extend((t0, max(floor(den**k * (Fraction(1, 4**k) - t0)), -1)))
        return box

    (sign0,), (lo,), (hi,) = _eigen_bracket(sigma.entries[None], sigma.raw_eigenvalues[None])
    # t0 rounds to 4^-k where |det sigma| 4^k < 2^-54 (a margin of 2 for this sum's rounding)
    observed = 4.0**-k if hi + k * log(4) < -55 * log(2) else _float(exact()[0])
    if m <= k or sign0 < 0:  # X < 0 is below every replicate det >= 0; at m <= k
        # num = X^T (m I - 1 1^T) X has rank <= m - 1 < k: every replicate has det 0
        hit = bool(sign0 > 0 or (sign0 == 0 and exact()[1] >= 0))
        return observed, lambda num: num.shape[-1] * hit
    # log|X| = log|det sigma| + 2k log m; widening by 4 eps (shift + |side|) covers
    # the float shift (within 2 eps: a log within 1 ulp, one product) and each sum
    shift, eps = 2 * k * log(m), np.finfo(np.float64).eps
    lo0, hi0 = lo + shift - 4 * eps * (shift + abs(lo)), hi + shift + 4 * eps * (shift + abs(hi))
    return observed, lambda num: _count_det_at_most(num, lo0, hi0, lambda: exact()[1])


def sample_null_statistics(stat: StatKind, m: int, k: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` null statistics of the :func:`mc_pvalues` stream.

    Total, Frobenius and generalized within :func:`_int_stats_fit` are exact integer forms
    over the scale, correctly rounded while both are below 2^53, so ``stats >=
    observed_statistic`` agrees with the tally.  Past it generalized is the float ``4^-k -
    det``, which has no resolution once ``det << 4^-k eps`` (the tally compares determinants
    instead).  Arguments are checked as in :func:`mc_pvalues`.
    """
    _, m, k, seed, sizes, _ = _plan((stat,), count, m, k, seed, 1)
    scale, fit = _scale(stat, k, m * m), _int_stats_fit(stat, m, k)
    dtype = np.int64 if fit else object

    def values(num):
        if stat is StatKind.GENERALIZED and not fit:
            return 4.0**-k - np.concatenate([np.linalg.det(a / m**2) for a in _float_slabs(num)])
        return (_scaled_stat(stat, num.astype(dtype, copy=False), m * m) / scale).astype(np.float64)

    return np.concatenate(_map_chunks(values, seed, sizes, m, k, 1))


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
    of replicates whose statistic is >= the observed one; ``sigma`` is
    compared with plug-in replicates ``num / m^2``, so it should be a
    plug-in estimate too.
    """
    replicates, m, k, seed, sizes, n_workers = _plan(kinds, replicates, m, sigma.k, seed, workers)
    counters = [_counter(kind, sigma, m) for kind in kinds]
    tallies = _map_chunks(lambda num: [count(num) for _, count in counters],
                          seed, sizes, m, k, n_workers)
    out = []
    for kind, (observed, _), hits in zip(kinds, counters, zip(*tallies)):
        p = sum(hits) / replicates
        stderr = sqrt(p * (1.0 - p) / replicates) if p else None
        out.append(McEstimate(kind, p, replicates, stderr, seed, observed))
    return out
