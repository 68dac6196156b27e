"""First and second moments of the edge-indicator vector.

Each potential edge is a Bernoulli variable; the edge set of a graph is a
binary random vector whose joint behaviour is summarized here by the
marginal success probabilities, the pairwise success probabilities, and
the covariance matrix.  An estimate holds the edge counts and one exact
covariance, from which both frequencies are derived.  The default
covariance estimator is the plug-in form ``p_ij_hat - p_i_hat * p_j_hat``
built from empirical proportions; an ``m/(m-1)`` bias-corrected variant is
available.  The moments of a subset of the edges are the estimate of those
columns of the sample set.

Covariance matrices of binary vectors obey hard bounds (diagonal in
[0, 1/4], Cauchy-Schwarz on the off-diagonal, non-negative eigenvalues
summing to at most k/4); :func:`validate_covariance` reports every breach.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isinf, lcm
from operator import index

import numpy as np

from .graphs import SampleSet

SYMMETRY_TOL = 1e-12
BOUND_TOL = 1e-9  # the slack of every bound; an eigenvalue within it below 0 is clamped
MAX_SAMPLE_BITS = 2**32  # on m k: the tests' gamma shapes <= 2^31
INT64_MAX = 2**63 - 1


def _integer(name: str, value) -> int:
    """``value`` as a Python int: Python and numpy integers pass, anything else is rejected."""
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def sample_count(m, k: int) -> int:
    """m, checked to be an integer >= 1 with ``m k <= MAX_SAMPLE_BITS``, as a Python int."""
    m = _integer("sample count", m)
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    if m * k > MAX_SAMPLE_BITS:
        raise ValueError(f"sample count {m} at k = {k} edges is past the bound m k <= 2^32")
    return m


class CovMatrix:
    """Symmetric k x k covariance matrix, entries in [-1, 1], with lazily cached eigenvalues.

    A covariance has one value, exact: ``num / den``, a read-only integer numerator array
    over one positive integer denominator.  Its float ``entries`` are that value correctly
    rounded.  Floats (library input) take ``CovMatrix(entries)``, which checks the shape, size,
    range and asymmetry in that order; their binary values are the exact value (built on first
    use).  Integers (the CSV parser, library input) take :meth:`from_exact`: the range
    exactly, then, unless ``num`` is exactly symmetric, the rest through the float
    constructor; each entry is rounded once.  :func:`estimate_moments` rounds its own
    numerators once, with no check: they hold every bound by construction.

    Asymmetry up to 1e-12 in absolute value is accepted and symmetrized:
    floats to the midpoint of each unequal pair, an exact value to
    ``(num + num^T) / (2 den)``.  ``raw_eigenvalues`` (one ``eigvalsh`` of the entries) and
    ``sums`` are computed on first use and cached (threads racing on the first use may each
    compute one, but all get the first value stored); ``eigenvalues`` are the raw ones in
    descending order, clamped to 0 when within ``BOUND_TOL`` below it.
    """

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"covariance matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("covariance matrix must be at least 1 x 1")
        if not (inside := np.abs(arr) <= 1).all():  # NaN too
            raise ValueError(f"covariance entries must lie in [-1, 1], got {arr[~inside][0]}")
        gap = np.abs(arr - arr.T).max()
        if gap > SYMMETRY_TOL:
            raise ValueError(f"matrix asymmetric beyond {SYMMETRY_TOL}: max |M - M^T| = {gap}")
        arr = (arr + arr.T) / 2  # exact where arr is symmetric: |entries| <= 1 do not overflow
        self._init(arr, None)

    @classmethod
    def from_exact(cls, num: np.ndarray, den: int) -> "CovMatrix":
        """The covariance ``num / den``: an integer or Python-int (object) array ``num``
        (made read-only) over an integer ``den >= 1``, each ``|num_ij| <= den``."""
        if not (isinstance(num, np.ndarray) and num.dtype.kind in "iuO"):
            what = num.dtype if isinstance(num, np.ndarray) else type(num).__name__
            raise TypeError(f"num must be an integer or object array, got {what}")
        if not isinstance(den, (int, np.integer)):
            raise TypeError(f"den must be an integer, got {den!r}")
        if den < 1:
            raise ValueError(f"den must be >= 1, got {den}")
        den = int(den)  # numpy ints overflow in exact arithmetic
        if (outside := (num < -den) | (num > den)).any():  # [-1, 1] exactly, not its floats
            n = int(num[outside][0])  # by its float where that is past 1, else exactly
            near = abs(n) <= den * int(np.finfo(np.float64).max)  # n / den cannot overflow
            got = n / den if near and abs(n / den) > 1 else f"{n}/{den}"
            raise ValueError(f"covariance entries must lie in [-1, 1], got {got}")
        if not (num.ndim == 2 and 1 <= len(num) == num.shape[1] and (num == num.T).all()):
            cls(_rounded(num, den))  # the float constructor's shape, size and asymmetry checks
            obj = num.astype(object)  # Python ints: the sum cannot overflow
            num, den = obj + obj.T, 2 * den
        return cls.__new__(cls)._init(_rounded(num, den), (num, den))  # symmetric: no check

    def _init(self, entries: np.ndarray, exact) -> "CovMatrix":
        """Every constructor ends here: checked entries, their exact value or None, read-only."""
        self._entries, self._exact = entries, exact
        entries.setflags(write=False)
        if exact:
            exact[0].setflags(write=False)
        return self

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def k(self) -> int:
        return self._entries.shape[0]

    # cached_property has no lock from Python 3.12 on: the first value stored wins
    @cached_property
    def raw_eigenvalues(self) -> np.ndarray:
        """``eigvalsh`` of the entries, the one eigendecomposition: ascending, unclamped."""
        raw = np.linalg.eigvalsh(self._entries)
        raw.setflags(write=False)
        return self.__dict__.setdefault("raw_eigenvalues", raw)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, those in [-BOUND_TOL, 0) clamped to 0."""
        raw = self.raw_eigenvalues[::-1]
        lam = np.where((raw < 0) & (raw >= -BOUND_TOL), 0.0, raw)
        lam.setflags(write=False)
        return self.__dict__.setdefault("eigenvalues", lam)

    @property
    def min_raw_eigenvalue(self) -> float:
        return float(self.raw_eigenvalues[0])

    @property
    def clamped(self) -> bool:
        """True when the eigensolver emitted values in [-BOUND_TOL, 0)."""
        return -BOUND_TOL <= self.min_raw_eigenvalue < 0

    @property
    def exact(self) -> tuple[np.ndarray, int]:
        """Exact value as ``(num, den)``: integer numerators over one denominator."""
        if self._exact is None:  # float entries are exact binary fractions
            self._exact = _binary_exact(self._entries)
        return self._exact

    @cached_property
    def sums(self) -> tuple[int, int, int]:
        """``(tr num, sum num_ij^2, den)`` of :attr:`exact` as Python ints, read by every total
        and Frobenius statistic, test and bound.  Entries lie in [-1, 1], so no partial sum
        passes ``k^2 den^2``: int64 sums while that is <= INT64_MAX, else Python-int sums."""
        num, den = self.exact
        num = num.astype(np.int64 if (self.k * den) ** 2 <= INT64_MAX else object, copy=False)
        return self.__dict__.setdefault("sums", (*map(int, _sums(num)), den))

    def exact_entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """Entries as exact rationals, built on demand from :attr:`exact`."""
        num, den = self.exact
        return tuple(tuple(Fraction(v, den) for v in row) for row in num.tolist())

    def __repr__(self):
        return f"CovMatrix(k={self.k})"

    @classmethod
    def from_csv_text(cls, text: str) -> "CovMatrix":
        """Parse k lines of k comma-separated decimals; decimals are exact.  One
        leading byte-order mark is skipped."""
        from decimal import Decimal, InvalidOperation

        rows, ratios = [], {}  # ratios: each distinct cell, parsed once, as (n, d)
        for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            rows.append(line.split(","))  # cells keep their blanks: both parsers skip them
            for cell in [c for c in dict.fromkeys(rows[-1]) if c not in ratios]:
                try:
                    d, f = Decimal(cell), float(cell)
                except (InvalidOperation, ValueError):
                    raise ValueError(f"line {lineno}: invalid number in covariance CSV") from None
                if not d.is_finite() or isinf(f) or (f == 0.0 and not d.is_zero()):
                    raise ValueError(f"line {lineno}: {d} is outside the finite float64 range")
                ratios[cell] = d.as_integer_ratio()  # range first: huge exponents fail fast
        if not rows:
            raise ValueError("empty covariance CSV")
        if any(len(r) != len(rows) for r in rows):
            raise ValueError(
                f"covariance CSV must be square, got {len(rows)} rows of widths "
                f"{sorted({len(r) for r in rows})}"
            )
        return cls.from_exact(*_over_common_den(ratios, rows))


def _over_common_den(ratios: dict, rows: list) -> tuple[np.ndarray, int]:
    """``rows`` of keys of exact ``ratios`` (n, d): read-only numerators over the
    least d, int64 when every |n| < 2^63, else Python ints."""
    den = lcm(*{d for _, d in ratios.values()})
    scaled = {key: n * (den // d) for key, (n, d) in ratios.items()}
    fits = all(-(2**63) < n < 2**63 for n in scaled.values())
    num = np.array([list(map(scaled.__getitem__, row)) for row in rows],
                   dtype=np.int64 if fits else object)  # numpy infers float64 past 2^63
    num.setflags(write=False)
    return num, den


def _binary_exact(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Finite floats in [-1, 1] exactly, as :func:`_over_common_den` gives them, in one
    vectorized pass: each nonzero x is ``odd 2^e`` (its frexp mantissa as an integer, trailing
    zero bits stripped), den is ``2^d``, ``d = -min(e)``, and each numerator ``odd 2^(e + d)``.
    ``2^(exp - 1) <= |x| < 2^exp`` (frexp), so every numerator fits int64 iff ``exp + d <= 63``."""
    mant, exp = np.frexp(arr)
    big = np.ldexp(mant, 53).astype(np.int64)  # |big| in [2^52, 2^53), or 0 at x = 0
    nonzero = big != 0
    zeros = np.bitwise_count((big & -big) - 1)  # trailing zero bits of big
    odd, e = np.where(nonzero, big >> zeros, 0), exp - 53 + zeros
    d = int(-e[nonzero].min(initial=0))  # den = 2^d; zeros are left out (5e-324 beside 0)
    dtype = np.int64 if (exp[nonzero] + d <= 63).all() else object
    num = odd.astype(dtype) << np.where(nonzero, e + d, 0).astype(dtype)
    num.setflags(write=False)
    return num, 1 << d


def _sums(num: np.ndarray, squares: bool = True):
    """``(tr num, sum num_ij^2)`` of num (k, k) or (k, k, n); the second False without squares."""
    return num.diagonal().sum(axis=-1), squares and np.einsum("ij...,ij...->...", num, num)


def _rounded(num: np.ndarray, den: int) -> np.ndarray:
    """``num / den`` rounded once: float64 division of exact floats, else int division."""
    if (den <= 2**1023 and float(den) == den  # den < 2^53, or a float-built value's 2^d
            and -(2**53) < num.min(initial=0) and num.max(initial=0) < 2**53):
        return num.astype(np.float64) / den
    return np.array([n / den for n in num.ravel().tolist()]).reshape(num.shape)


@dataclass(frozen=True)
class MomentEstimate:
    """Empirical first and second moments of the edge indicators: the counts and one
    exact covariance.

    ``s1[i]`` (read-only int64) counts the graphs that hold edge i, and ``sigma`` is the
    covariance under the chosen estimator.  Its numerators carry the joint counts s2:
    ``m s2 = num + s1 s1^T``.  The frequencies are derived from them on each access,
    correctly rounded: ``p_hat = s1 / m`` and ``p_hat2 = s2 / m`` (diagonal ``p_hat``).
    """

    s1: np.ndarray
    sigma: CovMatrix
    m: int
    estimator: str = "plugin"

    def __post_init__(self):
        self.s1.setflags(write=False)

    @property
    def k(self) -> int:
        return self.s1.shape[0]

    @property
    def p_hat(self) -> np.ndarray:
        return self.s1 / self.m

    @property
    def p_hat2(self) -> np.ndarray:
        return (self.sigma.exact[0] + np.outer(self.s1, self.s1)) // self.m / self.m  # s2 / m


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

    The computation runs on integer counts, and the covariance is the exact
    rational ``num / den`` (denominator m^2 plug-in, m*(m-1) bias-corrected),
    so its floats are correctly rounded.  Frequencies (denominator m) are
    correctly rounded too.  To restrict the moments to a subset ``idx`` of the
    edges, estimate ``SampleSet(None, samples.incidence[:, idx])``.
    """
    if estimator not in ("plugin", "unbiased"):
        raise ValueError(f"estimator must be 'plugin' or 'unbiased', got {estimator!r}")
    m = samples.m
    if estimator == "unbiased" and m < 2:
        raise ValueError("bias-corrected estimator needs at least 2 samples")
    x = samples.incidence.astype(np.float64)
    num = (x.T @ x).astype(np.int64)  # s2, exact: integer-valued float matmul
    s1 = num.diagonal().copy()  # binary data: x_i . x_i = sum(x_i)
    num *= m
    num -= np.outer(s1, s1)  # m^2 * plug-in covariance, exact integers
    den = m * m if estimator == "plugin" else m * (m - 1)
    # from_exact's checks hold by construction, so num goes straight to _init.  Symmetric:
    # each s2_ij sums m products in {0, 1}, every partial sum an integer below 2^53, so it
    # is exact in any order, and s2_ij = s2_ji.  In range: |num_ij| = m^2 |sigma_ij| <= m^2/4,
    # a covariance of 0/1 variables, and m^2/4 <= den for den = m^2, and for m (m - 1) at m >= 2.
    sigma = CovMatrix.__new__(CovMatrix)._init(_rounded(num, den), (num, den))
    return MomentEstimate(s1, sigma, m, estimator)


def validate_covariance(sigma: CovMatrix) -> Diagnostic:
    """Check the binary-vector covariance bounds, reporting every breach.

    Checks: diagonal within [0, 1/4], off-diagonal within the Cauchy-Schwarz envelope
    and within 1/4 in absolute value, eigenvalues at least 0 (within the slack: clamped),
    and the exact trace, correctly rounded, at most k/4; all with ``BOUND_TOL`` slack.
    """
    ent = sigma.entries
    k = sigma.k
    violations: list[Violation] = []

    d = np.diagonal(ent)
    for i in np.flatnonzero((d < -BOUND_TOL) | (d > 0.25 + BOUND_TOL)).tolist():
        violations.append(Violation("diagonal_range", (i,), float(d[i]), 0.25))
    dpos = np.where(d < 0.0, 0.0, d)  # keeps -0.0, like max(d, 0.0)
    # an entry breaches a bound iff |e_ij| > min(sqrt(d_i d_j), 1/4) + BOUND_TOL
    lim = np.minimum(np.sqrt(np.outer(dpos, dpos)), 0.25) + BOUND_TOL
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
    trace, _, den = sigma.sums
    if (tr := trace / den) > k / 4.0 + BOUND_TOL:
        violations.append(Violation("trace_bound", (), tr, k / 4.0))

    return Diagnostic(valid=not violations, violations=tuple(violations))
