"""Scalar variability statistics of the edge covariance matrix.

Three one-number summaries of how much the graph structure moves across
the sample: the trace (total variance), the determinant (generalized
variance), and the squared Frobenius distance from (k/4)*I.  Each has a
closed-form range over admissible covariance matrices, a normalization
onto [0, 1] oriented so that 1 means maximal structure variability
(independent fair-coin edges), and a complement measuring distance from
that maximum-entropy case.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graphs import SampleSet
from .moments import CovMatrix

NORMALIZE_SLACK = 1e-9
RANK_EPS = 1e-12


class StatKind(enum.Enum):
    TOTAL = "total"
    GENERALIZED = "generalized"
    FROBENIUS = "frobenius"


@dataclass(frozen=True)
class StatValue:
    """One statistic with its raw, normalized and complemented values."""

    kind: StatKind
    raw: float
    normalized: float
    complemented: float
    rank_deficient: bool = False
    k_effective: int = 0


@dataclass(frozen=True)
class GenVar:
    value: float
    rank_deficient: bool
    k_effective: int


@dataclass(frozen=True)
class EntropySummary:
    classification: str  # "minimum" | "intermediate"
    frequencies: tuple[tuple[str, int], ...]  # (edge bit pattern, count)


def var_total(sigma: CovMatrix) -> float:
    """Trace of the covariance matrix; lies in [0, k/4]."""
    return sigma.trace()


def var_generalized(sigma: CovMatrix, rank_policy: str = "strict") -> GenVar:
    """Determinant of the covariance matrix, optionally on a full-rank core.

    ``strict`` takes the determinant of the whole matrix (eigenvalue
    product), which is 0 whenever the matrix is rank deficient.  ``reduce``
    first drops structurally constant coordinates (diagonal <= 1e-12),
    then multiplies only the eigenvalues above 1e-12 of what remains;
    ``k_effective`` is the number of retained eigenvalues and the flag
    records whether anything was dropped.
    """
    if rank_policy not in ("strict", "reduce"):
        raise ValueError(f"rank_policy must be 'strict' or 'reduce', got {rank_policy!r}")
    if rank_policy == "strict":
        return GenVar(float(np.prod(sigma.eigenvalues)), False, sigma.k)

    alive = [i for i in range(sigma.k) if sigma.entries[i, i] > RANK_EPS]
    if not alive:
        return GenVar(0.0, True, 0)
    core = sigma if len(alive) == sigma.k else sigma.submatrix(alive)
    lam = core.eigenvalues
    kept = lam[lam > RANK_EPS]
    if kept.size == 0:
        return GenVar(0.0, True, 0)
    return GenVar(float(np.prod(kept)), kept.size < sigma.k, int(kept.size))


def var_frobenius(sigma: CovMatrix) -> float:
    """Squared Frobenius distance from (k/4)*I, as sum of (lambda - k/4)^2.

    Maximal (k^3/16) at the zero matrix and minimal (k(k-1)^2/16) at
    (1/4)*I, so the raw value is large for stable structures; the
    normalization flips the orientation.
    """
    lam = sigma.eigenvalues
    return float(np.sum((lam - sigma.k / 4.0) ** 2))


def frobenius_bounds(k: int) -> tuple[float, float]:
    """(min, max) of the Frobenius statistic over admissible matrices."""
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    return k * (k - 1) ** 2 / 16.0, k**3 / 16.0


def _bounds(kind: StatKind, k: int) -> tuple[float, float]:
    if kind is StatKind.TOTAL:
        return 0.0, k / 4.0
    if kind is StatKind.GENERALIZED:
        return 0.0, math.ldexp(1.0, -2 * k)
    return frobenius_bounds(k)


def normalize(kind: StatKind, raw: float, k: int) -> float:
    """Map a raw statistic onto [0, 1]; 1 means maximal variability.

    Values straying up to 1e-9 outside the theoretical range are clamped
    to the boundary; anything further out is rejected.
    """
    lo, hi = _bounds(kind, k)
    if raw < lo - NORMALIZE_SLACK or raw > hi + NORMALIZE_SLACK:
        raise ValueError(f"{kind.value} statistic {raw} outside [{lo}, {hi}] for k={k}")
    raw = min(max(raw, lo), hi)
    if kind is StatKind.TOTAL:
        return 4.0 * raw / k
    if kind is StatKind.GENERALIZED:
        return math.ldexp(raw, 2 * k) if raw != 0.0 else 0.0  # exact; no -0.0
    return (k**3 - 16.0 * raw) / (k * (2.0 * k - 1.0))


def _normalize_saturated(kind: StatKind, raw: float, k: int) -> float:
    """Like :func:`normalize` but saturating outside the theoretical range.

    Bias-corrected estimates and spectrally truncated determinants can
    legitimately leave the admissible parameter space; the covariance
    diagnostics flag that, and the normalized view pins to the boundary.
    """
    lo, hi = _bounds(kind, k)
    if raw < lo - NORMALIZE_SLACK:
        return 1.0 if kind is StatKind.FROBENIUS else 0.0
    if raw > hi + NORMALIZE_SLACK:
        return 0.0 if kind is StatKind.FROBENIUS else 1.0
    return normalize(kind, raw, k)


def describe(sigma: CovMatrix, rank_policy: str = "reduce") -> tuple[StatValue, ...]:
    """All three statistics with normalized and complemented values.

    The generalized variance under ``reduce`` is normalized against its
    effective dimension, so a rank-reduced determinant still lands in
    [0, 1].  Raw values outside the theoretical range (possible for
    bias-corrected or forced inputs) saturate at the nearest boundary.
    """
    k = sigma.k
    out = []

    raw_t = var_total(sigma)
    norm_t = _normalize_saturated(StatKind.TOTAL, raw_t, k)
    out.append(StatValue(StatKind.TOTAL, raw_t, norm_t, 1.0 - norm_t, False, k))

    gen = var_generalized(sigma, rank_policy)
    norm_g = _normalize_saturated(StatKind.GENERALIZED, gen.value, gen.k_effective)
    out.append(
        StatValue(StatKind.GENERALIZED, gen.value, norm_g, 1.0 - norm_g,
                  gen.rank_deficient, gen.k_effective)
    )

    raw_n = var_frobenius(sigma)
    norm_n = _normalize_saturated(StatKind.FROBENIUS, raw_n, k)
    out.append(StatValue(StatKind.FROBENIUS, raw_n, norm_n, 1.0 - norm_n, False, k))
    return tuple(out)


def classify_entropy(samples: SampleSet) -> EntropySummary:
    """Entropy class of the sample plus the frequency of each structure.

    "minimum" when every graph in the sample is identical, otherwise
    "intermediate" with the empirical frequency of each distinct
    structure.  Maximum entropy (all 2^k structures equally likely) is a
    population statement and is never asserted from a finite sample; the
    complemented statistics serve as the distance from it.
    """
    structures, counts = np.unique(samples.incidence, axis=0, return_counts=True)
    order = np.lexsort(structures.T[::-1])  # stable, lexicographic by bit pattern
    freq = tuple(
        ("".join("1" if b else "0" for b in structures[i]), int(counts[i]))
        for i in order
    )
    tag = "minimum" if len(freq) == 1 else "intermediate"
    return EntropySummary(tag, freq)
