"""First and second moments of the edge-indicator vector.

Each potential edge is a Bernoulli variable; the edge set of a graph is a
binary random vector whose joint behaviour is summarized here by the
marginal success probabilities, the pairwise success probabilities, and
the covariance matrix.  The default covariance estimator is the plug-in
form ``p_ij_hat - p_i_hat * p_j_hat`` built from empirical proportions; an
``m/(m-1)`` bias-corrected variant is available.

Covariance matrices of binary vectors obey hard bounds (diagonal in
[0, 1/4], Cauchy-Schwarz on the off-diagonal, non-negative eigenvalues
summing to at most k/4); :func:`validate_covariance` reports every breach.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isinf, lcm
from typing import Sequence

import numpy as np

from .graphs import SampleSet

SYMMETRY_TOL = 1e-12
EIG_CLAMP_TOL = 1e-9
BOUND_TOL = 1e-9


class CovMatrix:
    """Symmetric k x k covariance matrix with lazily cached eigenvalues.

    Construction accepts asymmetry up to 1e-12 in absolute value and then
    symmetrizes as (M + M^T)/2, so downstream behaviour is deterministic.
    Eigenvalues are computed on first use and cached (threads racing on the
    first use may each compute them, but all get the first value stored),
    sorted in descending order, and clamped to 0 when within -1e-9; the raw
    minimum is kept for diagnostics.

    The exact value of the matrix is ``num / den``: a read-only integer
    numerator array over one positive integer denominator, supplied by
    the moment estimator or the decimal CSV parser (the given ``num`` is
    made read-only, not copied).  A non-symmetric ``num`` is symmetrized
    like the floats, as ``(num + num^T) / (2 den)``.  When no exact value
    is given, the binary values of the float entries are taken as exact
    (numerators over a common power of two).  The Monte Carlo module uses
    it to resolve ties exactly.
    """

    def __init__(self, entries, exact: tuple[np.ndarray, int] | None = None):
        arr = np.asarray(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"covariance matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("covariance matrix must be at least 1 x 1")
        if not np.isfinite(arr).all():
            raise ValueError("covariance matrix entries must be finite")
        transposed = arr.T.copy()
        gap = np.abs(arr - transposed).max()
        if gap > SYMMETRY_TOL:
            raise ValueError(f"matrix asymmetric beyond {SYMMETRY_TOL}: max |M - M^T| = {gap}")
        arr = np.add(arr, transposed, out=transposed)
        arr /= 2.0
        arr.setflags(write=False)
        self._entries = arr
        if exact is not None:
            if not (exact[0] == exact[0].T).all():
                exact = (exact[0] + exact[0].T, 2 * exact[1])
            exact[0].setflags(write=False)
        self._exact = exact

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def k(self) -> int:
        return self._entries.shape[0]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, float]:
        raw = np.linalg.eigvalsh(self._entries)[::-1]
        clamped = np.where((raw < 0) & (raw >= -EIG_CLAMP_TOL), 0.0, raw)
        clamped.setflags(write=False)
        # cached_property has no lock from Python 3.12 on: the first value stored wins
        return self.__dict__.setdefault("_spectrum", (clamped, float(raw.min())))

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, tiny negatives clamped to 0."""
        return self._spectrum[0]

    @property
    def min_raw_eigenvalue(self) -> float:
        return self._spectrum[1]

    @property
    def clamped(self) -> bool:
        """True when the eigensolver emitted values in [-1e-9, 0)."""
        return -EIG_CLAMP_TOL <= self.min_raw_eigenvalue < 0

    def trace(self) -> float:
        return float(np.trace(self._entries))

    @property
    def exact(self) -> tuple[np.ndarray, int]:
        """Exact value as ``(num, den)``: integer numerators over one denominator."""
        if self._exact is None:  # float entries are exact binary fractions
            ratios = [v.as_integer_ratio() for v in self._entries.ravel().tolist()]
            num, den = _over_common_den(ratios, self.k)
            num.setflags(write=False)
            self._exact = (num, den)
        return self._exact

    def exact_entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Entries as exact rationals, built on demand from :attr:`exact`."""
        num, den = self.exact
        return tuple(tuple(Fraction(v, den) for v in row) for row in num.tolist())

    def submatrix(self, idx: Sequence[int]) -> "CovMatrix":
        ix = np.ix_(list(idx), list(idx))
        exact = None
        if self._exact is not None:
            exact = (self._exact[0][ix], self._exact[1])
        return CovMatrix(self._entries[ix], exact=exact)

    def __repr__(self):
        return f"CovMatrix(k={self.k})"

    @classmethod
    def from_csv_text(cls, text: str) -> "CovMatrix":
        """Parse k lines of k comma-separated decimals; decimals are exact."""
        from decimal import Decimal, InvalidOperation

        rows, ratios = [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                exact = [Decimal(c) for c in cells]
                row = [float(c) for c in cells]
            except (InvalidOperation, ValueError):
                raise ValueError(f"line {lineno}: invalid number in covariance CSV") from None
            for d, f in zip(exact, row):  # range first, so huge exponents fail fast
                if not d.is_finite() or isinf(f) or (f == 0.0 and not d.is_zero()):
                    raise ValueError(f"line {lineno}: {d} is outside the finite float64 range")
            ratios += [d.as_integer_ratio() for d in exact]
            rows.append(row)
        if not rows:
            raise ValueError("empty covariance CSV")
        if any(len(r) != len(rows) for r in rows):
            raise ValueError(
                f"covariance CSV must be square, got {len(rows)} rows of widths "
                f"{sorted({len(r) for r in rows})}"
            )
        return cls(np.array(rows), exact=_over_common_den(ratios, len(rows)))


def _over_common_den(ratios: list[tuple[int, int]], k: int) -> tuple[np.ndarray, int]:
    """k*k integer ratios (n, d), row-major, as numerators over their least common d."""
    den = lcm(*{d for _, d in ratios})
    return np.array([n * (den // d) for n, d in ratios], dtype=object).reshape(k, k), den


@dataclass(frozen=True)
class MomentEstimate:
    """Empirical first and second moments of the edge indicators.

    ``p_hat[i]`` is the edge frequency, ``p_hat2[i, j]`` the joint
    frequency of edges i and j (diagonal equals ``p_hat``), and ``sigma``
    the covariance matrix under the chosen estimator.
    """

    p_hat: np.ndarray
    p_hat2: np.ndarray
    sigma: CovMatrix
    m: int
    estimator: str = "plugin"

    def __post_init__(self):
        self.p_hat.setflags(write=False)
        self.p_hat2.setflags(write=False)

    @property
    def k(self) -> int:
        return self.p_hat.shape[0]


@dataclass(frozen=True)
class Violation:
    kind: str
    where: tuple[int, ...]
    value: float
    bound: float


@dataclass(frozen=True)
class Diagnostic:
    valid: bool
    violations: tuple[Violation, ...]

    def __bool__(self):
        return self.valid


def estimate_moments(samples: SampleSet, estimator: str = "plugin") -> MomentEstimate:
    """Estimate moments from an incidence matrix.

    The computation runs on integer counts, and the covariance carries its
    rationals exactly (denominator m^2 plug-in, m*(m-1) bias-corrected).
    Frequencies (denominator m) and off-diagonal covariance floats are the
    correctly rounded rationals.  The diagonal is the float product
    ``p*(1-p)`` (scaled when bias-corrected), which keeps the trace equal to
    the sum of the marginal variances; in 43% of the plug-in pairs
    0 <= s <= m <= 1000 it misses the rounded ``num/den``, by up to 255 ulp.
    """
    if estimator not in ("plugin", "unbiased"):
        raise ValueError(f"estimator must be 'plugin' or 'unbiased', got {estimator!r}")
    m = samples.m
    if estimator == "unbiased" and m < 2:
        raise ValueError("bias-corrected estimator needs at least 2 samples")
    x = samples.incidence.astype(np.float64)
    s2 = (x.T @ x).astype(np.int64)  # exact: integer-valued float matmul
    s1 = s2.diagonal().copy()  # binary data: x_i . x_i = sum(x_i)

    p_hat = s1 / m
    p_hat2 = s2 / m
    num = m * s2 - np.outer(s1, s1)  # m^2 * plug-in covariance, exact integers
    den = m * m if estimator == "plugin" else m * (m - 1)
    sigma = num / den
    # diagonal in the literal p*(1-p) form; floats stay <= 1/4 exactly
    scale = 1.0 if estimator == "plugin" else m / (m - 1.0)
    np.fill_diagonal(sigma, scale * p_hat * (1.0 - p_hat))

    return MomentEstimate(p_hat, p_hat2, CovMatrix(sigma, exact=(num, den)), m, estimator)


def validate_covariance(sigma: CovMatrix) -> Diagnostic:
    """Check the binary-vector covariance bounds, reporting every breach.

    Checks: diagonal within [0, 1/4], off-diagonal within the
    Cauchy-Schwarz envelope and within 1/4 in absolute value, eigenvalues
    above -1e-9, and trace at most k/4; all with ``BOUND_TOL`` slack.
    """
    ent = sigma.entries
    k = sigma.k
    violations: list[Violation] = []

    d = np.diagonal(ent)
    for i in np.flatnonzero((d < -BOUND_TOL) | (d > 0.25 + BOUND_TOL)).tolist():
        violations.append(Violation("diagonal_range", (i,), float(d[i]), 0.25))
    dpos = np.where(d < 0.0, 0.0, d)  # keeps -0.0, like max(d, 0.0)
    # an entry breaches a bound iff |e_ij| > min(sqrt(d_i d_j), 1/4) + BOUND_TOL
    lim = np.sqrt(np.outer(dpos, dpos))
    np.minimum(lim, 0.25, out=lim)
    lim += BOUND_TOL
    rows, cols = np.nonzero(np.abs(ent) > lim)  # row-major, so pair-major over i < j
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i >= j:
            continue
        value = float(ent[i, j])
        cs = float(np.sqrt(dpos[i] * dpos[j]))
        if abs(value) > 0.25 + BOUND_TOL:
            violations.append(Violation("offdiag_quarter", (i, j), value, 0.25))
        if abs(value) > cs + BOUND_TOL:
            violations.append(Violation("cauchy_schwarz", (i, j), value, cs))

    raw_min = sigma.min_raw_eigenvalue
    if raw_min < -BOUND_TOL:
        violations.append(Violation("negative_eigenvalue", (), raw_min, 0.0))
    tr = sigma.trace()
    if tr > k / 4.0 + BOUND_TOL:
        violations.append(Violation("trace_bound", (), tr, k / 4.0))

    return Diagnostic(valid=not violations, violations=tuple(violations))


def marginal_subvector(est: MomentEstimate, idx: Sequence[int]) -> MomentEstimate:
    """Restrict an estimate to a subset of edges.

    Any subvector of a binary random vector is again a binary random
    vector, so the restriction of the moments is the moments of the
    restriction; this function commutes with :func:`estimate_moments`.
    """
    ids = list(idx)
    if not ids:
        raise ValueError("index list must be non-empty")
    if any(not 0 <= i < est.k for i in ids):
        raise ValueError(f"indices out of range [0, {est.k})")
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise ValueError("indices must be strictly increasing")
    sel = np.array(ids)
    return MomentEstimate(
        est.p_hat[sel].copy(),
        est.p_hat2[np.ix_(sel, sel)].copy(),
        est.sigma.submatrix(ids),
        est.m,
        est.estimator,
    )


def block_independence(
    sigma: CovMatrix, part_a: Sequence[int], part_b: Sequence[int]
) -> tuple[bool, float]:
    """Zero cross-covariance check between two disjoint index blocks.

    For binary variables zero covariance makes each pair (i in a, j in b)
    independent, not the two subvectors: XOR rows 000, 011, 101, 110 pass
    for [0, 1] and [2].  Returns the verdict and the largest |cross entry|.
    """
    a, b = list(part_a), list(part_b)
    if not a or not b:
        raise ValueError("both index sets must be non-empty")
    if set(a) & set(b):
        raise ValueError(f"index sets overlap: {sorted(set(a) & set(b))}")
    for i in a + b:
        if not 0 <= i < sigma.k:
            raise ValueError(f"index {i} out of range [0, {sigma.k})")
    cross = sigma.entries[np.ix_(a, b)]
    max_abs = float(np.abs(cross).max())
    return max_abs <= BOUND_TOL, max_abs
