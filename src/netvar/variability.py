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
from dataclasses import dataclass

import numpy as np

from .graphs import SampleSet
from .moments import CovMatrix

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
    """Products of the kept eigenvalues: ``value`` of lambda, ``ratio`` of 4*lambda."""
    value: float
    rank_deficient: bool
    k_effective: int
    ratio: float


@dataclass(frozen=True)
class EntropySummary:
    classification: str  # "minimum" | "intermediate"
    frequencies: tuple[tuple[str, int], ...]  # (edge bit pattern, count)


def var_total(sigma: CovMatrix) -> float:
    """Trace of the covariance matrix; lies in [0, k/4]."""
    return sigma.trace()


@np.errstate(over="ignore")  # a product past the float range is inf
def _eigen_product(lam: np.ndarray, scale: float) -> float:
    """Product of ``scale * lam``: 0 for no eigenvalues or one of exactly 0, even
    where another factor overflowed to inf."""
    return 0.0 if lam.size == 0 or (lam == 0).any() else float(np.prod(scale * lam))


def var_generalized(sigma: CovMatrix, rank_policy: str = "strict") -> GenVar:
    """Determinant of the covariance matrix, optionally on a full-rank core.

    ``strict`` multiplies every eigenvalue of the cached spectrum, so it is
    0 whenever the matrix is rank deficient; ``reduce`` only those above
    1e-12 (a constant edge's zero row falls below).  ``k_effective`` counts
    the kept eigenvalues; none kept means zero variability.
    """
    if rank_policy not in ("strict", "reduce"):
        raise ValueError(f"rank_policy must be 'strict' or 'reduce', got {rank_policy!r}")
    lam = sigma.eigenvalues
    if rank_policy == "reduce":
        lam = lam[lam > RANK_EPS]
    return GenVar(_eigen_product(lam, 1.0), lam.size < sigma.k, lam.size,
                  _eigen_product(lam, 4.0))


def var_frobenius(sigma: CovMatrix) -> float:
    """Squared Frobenius distance from (k/4)*I, as sum of (lambda - k/4)^2.

    Maximal (k^3/16) at the zero matrix and minimal (k(k-1)^2/16) at
    (1/4)*I, so the raw value is large for stable structures; the
    normalization flips the orientation.
    """
    with np.errstate(over="ignore"):  # eigenvalues past ~1e154 square to inf
        return float(np.sum((sigma.eigenvalues - sigma.k / 4.0) ** 2))


def frobenius_bounds(k: int) -> tuple[float, float]:
    """(min, max) of the Frobenius statistic over admissible matrices."""
    if k < 1:
        raise ValueError(f"dimension must be >= 1, got {k}")
    return k * (k - 1) ** 2 / 16.0, k**3 / 16.0


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def describe(sigma: CovMatrix, rank_policy: str = "reduce") -> tuple[StatValue, ...]:
    """All three statistics with normalized and complemented values.

    Each normalized value is the statistic's affine map onto [0, 1] of its
    raw value clamped to the admissible range, so raw values outside it
    (bias-corrected or forced inputs) saturate at 0 or 1.  The normalized
    generalized variance is :attr:`GenVar.ratio` clamped to [0, 1]: 1 at
    (1/4) I even where the raw 4^-k underflows (k_effective >= 538).
    """
    k = sigma.k

    def value(kind, raw, norm, rank_deficient=False, k_effective=k):
        return StatValue(kind, raw, norm, 1.0 - norm, rank_deficient, k_effective)

    lo, hi = frobenius_bounds(k)
    total, gen, frob = var_total(sigma), var_generalized(sigma, rank_policy), var_frobenius(sigma)
    return (value(StatKind.TOTAL, total, 4.0 * min(max(total, 0.0), k / 4.0) / k),
            value(StatKind.GENERALIZED, gen.value, _clamp01(gen.ratio), gen.rank_deficient,
                  gen.k_effective),
            value(StatKind.FROBENIUS, frob,
                  (k**3 - 16.0 * min(max(frob, lo), hi)) / (k * (2.0 * k - 1.0))))


def classify_entropy(samples: SampleSet) -> EntropySummary:
    """Entropy class of the sample plus the frequency of each structure.

    "minimum" when every graph in the sample is identical, otherwise
    "intermediate" with the empirical frequency of each distinct
    structure.  Maximum entropy (all 2^k structures equally likely) is a
    population statement and is never asserted from a finite sample; the
    complemented statistics serve as the distance from it.
    """
    # np.unique returns the rows in lexicographic order of their bit patterns
    structures, counts = np.unique(samples.incidence, axis=0, return_counts=True)
    freq = tuple(
        ("".join("1" if b else "0" for b in row), int(n)) for row, n in zip(structures, counts)
    )
    tag = "minimum" if len(freq) == 1 else "intermediate"
    return EntropySummary(tag, freq)
