import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from netvar import moments
from netvar.graphs import SampleSet
from netvar.moments import (
    CovMatrix,
    Violation,
    estimate_moments,
    marginal_subvector,
    validate_covariance,
)
from netvar.variability import var_total

SIGMA1 = np.array([[6.0, 1.0], [1.0, 6.0]]) / 25.0
SIGMA2 = np.array([[66.0, -21.0], [-21.0, 126.0]]) / 625.0
SIGMA3 = np.array([[66.0, 91.0], [91.0, 126.0]]) / 625.0


def make_samples(rows):
    return SampleSet(None, np.atleast_2d(np.array(rows, dtype=np.uint8)))


def test_estimate_max_entropy_rows():
    est = estimate_moments(make_samples([[1, 1], [1, 0], [0, 1], [0, 0]]))
    assert est.p_hat.tolist() == [0.5, 0.5]
    assert est.p_hat2[0, 1] == 0.25
    assert np.array_equal(est.sigma.entries, 0.25 * np.eye(2))


def test_estimate_identical_rows():
    est = estimate_moments(make_samples([[1, 0, 1]] * 5))
    assert np.all(est.sigma.entries == 0.0)
    assert est.p_hat.tolist() == [1.0, 0.0, 1.0]


def test_estimate_hand_enumerated():
    # three graphs: both edges, first edge only, neither
    est = estimate_moments(make_samples([[1, 1], [1, 0], [0, 0]]))
    assert est.p_hat == pytest.approx([2 / 3, 1 / 3])
    assert est.p_hat2[0, 1] == pytest.approx(1 / 3)
    assert est.sigma.entries[0, 1] == pytest.approx(1 / 9, abs=1e-15)
    # exact rationals travel with the covariance
    assert est.sigma.exact_entries()[0][1] == Fraction(1, 9)


def test_estimate_single_row_is_total():
    est = estimate_moments(make_samples([[1, 0]]))
    assert np.all(est.sigma.entries == 0.0)


def test_unbiased_estimator():
    samples = make_samples([[1, 1], [1, 0], [0, 0]])
    plug = estimate_moments(samples, "plugin")
    unb = estimate_moments(samples, "unbiased")
    assert unb.sigma.entries == pytest.approx(plug.sigma.entries * 3 / 2)
    assert unb.sigma.exact_entries()[0][1] == Fraction(1, 6)
    with pytest.raises(ValueError, match="at least 2 samples"):
        estimate_moments(make_samples([[1, 0]]), "unbiased")
    with pytest.raises(ValueError, match="estimator"):
        estimate_moments(samples, "shrunk")


def test_validate_quarter_identity_and_example_matrix():
    assert validate_covariance(CovMatrix(0.25 * np.eye(2))).valid
    assert validate_covariance(CovMatrix(SIGMA1)).valid
    assert validate_covariance(CovMatrix(SIGMA2)).valid
    assert validate_covariance(CovMatrix(SIGMA3)).valid


def test_diagnostic_truth_is_its_validity():
    assert bool(validate_covariance(CovMatrix(0.25 * np.eye(2)))) is True
    assert bool(validate_covariance(CovMatrix(np.diag([0.5, 0.25])))) is False


def test_validate_reports_diagonal_breach():
    diag = validate_covariance(CovMatrix([[0.3, 0.0], [0.0, 0.1]]))
    assert not diag.valid
    kinds = {v.kind for v in diag.violations}
    assert "diagonal_range" in kinds
    breach = next(v for v in diag.violations if v.kind == "diagonal_range")
    assert breach.where == (0,) and breach.value == 0.3


def test_validate_reports_cauchy_schwarz_and_trace():
    diag = validate_covariance(CovMatrix([[0.01, 0.09], [0.09, 0.01]]))
    kinds = {v.kind for v in diag.violations}
    assert "cauchy_schwarz" in kinds and "negative_eigenvalue" in kinds
    diag = validate_covariance(CovMatrix([[0.25, 0.2], [0.2, 0.26]]))
    assert {"diagonal_range", "trace_bound"} <= {v.kind for v in diag.violations}


def test_validate_reports_every_breach_in_order():
    # diagonal breaches by index, then pairs i < j in row-major order with
    # the quarter bound before Cauchy-Schwarz, then eigenvalue and trace
    ent = np.array([[0.3, 0.1, 0.3, 0.26],
                    [0.1, -0.01, -0.05, 0.0],
                    [0.3, -0.05, 0.26, -0.24],
                    [0.26, 0.0, -0.24, 0.5]])
    diag = validate_covariance(CovMatrix(ent))
    assert diag.violations == (
        Violation("diagonal_range", (0,), 0.3, 0.25),
        Violation("diagonal_range", (1,), -0.01, 0.25),
        Violation("diagonal_range", (2,), 0.26, 0.25),
        Violation("diagonal_range", (3,), 0.5, 0.25),
        Violation("cauchy_schwarz", (0, 1), 0.1, 0.0),
        Violation("offdiag_quarter", (0, 2), 0.3, 0.25),
        Violation("cauchy_schwarz", (0, 2), 0.3, float(np.sqrt(0.3 * 0.26))),
        Violation("offdiag_quarter", (0, 3), 0.26, 0.25),
        Violation("cauchy_schwarz", (1, 2), -0.05, 0.0),
        Violation("negative_eigenvalue", (), float(np.linalg.eigvalsh(ent).min()), 0.0),
        Violation("trace_bound", (), 1.05, 1.0),
    )
    assert all(type(i) is int for v in diag.violations for i in v.where)


def test_validate_matches_pairwise_loop():
    # the pair-by-pair loop over i < j is the reference for the vectorized
    # bound checks: same Violations, same values, same order
    def pair_loop(ent, tol=1e-9):
        out = []
        for i in range(len(ent)):
            if ent[i, i] < -tol or ent[i, i] > 0.25 + tol:
                out.append(Violation("diagonal_range", (i,), float(ent[i, i]), 0.25))
        for i in range(len(ent)):
            for j in range(i + 1, len(ent)):
                off = abs(ent[i, j])
                if off > 0.25 + tol:
                    out.append(Violation("offdiag_quarter", (i, j), float(ent[i, j]), 0.25))
                cs = np.sqrt(max(ent[i, i], 0.0) * max(ent[j, j], 0.0))
                if off > cs + tol:
                    out.append(Violation("cauchy_schwarz", (i, j), float(ent[i, j]), float(cs)))
        return out

    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(-0.35, 0.35, size=(9, 9))
        a[rng.random((9, 9)) < 0.3] = 0.0
        sigma = CovMatrix((a + a.T) / 2)
        got = [v for v in validate_covariance(sigma).violations if v.where]
        assert got == pair_loop(sigma.entries) and len(got) > 5


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError, match="asymmetric"):
        CovMatrix([[0.2, 0.1], [0.0, 0.2]])
    with pytest.raises(ValueError, match="square"):
        CovMatrix([[0.2, 0.1]])
    # asymmetry within 1e-12 is symmetrized away
    m = CovMatrix([[0.2, 0.1], [0.1 + 1e-13, 0.2]])
    assert m.entries[0, 1] == m.entries[1, 0]


def test_eigenvalues_examples():
    assert CovMatrix(SIGMA1).eigenvalues == pytest.approx([0.28, 0.20], abs=1e-12)
    assert CovMatrix(SIGMA3).eigenvalues == pytest.approx([0.3069, 0.0003], abs=5e-5)
    assert CovMatrix(0.25 * np.eye(2)).eigenvalues.tolist() == [0.25, 0.25]


def test_eigenvalues_match_closed_form_two_by_two():
    rng = np.random.default_rng(77)
    for _ in range(200):
        d1, d2 = rng.uniform(0, 0.25, size=2)
        off = rng.uniform(-1, 1) * np.sqrt(d1 * d2)
        m = CovMatrix([[d1, off], [off, d2]])
        tr, det = d1 + d2, d1 * d2 - off * off
        disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
        lam = np.array([(tr + disc) / 2, (tr - disc) / 2])
        got = np.where(m.eigenvalues == 0.0, 0.0, m.eigenvalues)  # clamp-aware
        assert got == pytest.approx(lam, rel=1e-10, abs=1e-12)


def test_eigenvalue_cache_is_race_free():
    import threading

    # large enough that racing threads overlap inside eigvalsh
    rng = np.random.default_rng(400)
    m = CovMatrix(np.cov(rng.integers(0, 2, (500, 400)), rowvar=False))
    results = []
    barrier = threading.Barrier(8)

    def grab():
        barrier.wait()
        results.append(m.eigenvalues)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)  # computed once, shared


def test_one_boundary_between_clamped_and_negative_eigenvalues():
    # BOUND_TOL is both the clamp and the eigenvalue bound's slack: an eigenvalue
    # at -1e-9 is clamped to 0 and valid, one at -2e-9 is kept and a violation
    at = CovMatrix(np.diag([-1e-9, 0.25]))
    assert at.clamped and at.eigenvalues.tolist() == [0.25, 0.0] and validate_covariance(at)
    past = CovMatrix(np.diag([-2e-9, 0.25]))
    assert not past.clamped and past.eigenvalues.tolist() == [0.25, -2e-9]
    kinds = [v.kind for v in validate_covariance(past).violations]
    assert "negative_eigenvalue" in kinds


def test_eigenvalue_clamping():
    # exactly singular: solver noise may dip a hair below zero
    m = CovMatrix([[0.2, 0.2], [0.2, 0.2]])
    lam = m.eigenvalues
    assert lam[0] == pytest.approx(0.4, rel=1e-12)
    assert lam[1] >= 0.0
    assert m.min_raw_eigenvalue >= -1e-9


def test_marginal_subvector():
    rows = [[a, b, c] for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    est = estimate_moments(make_samples(rows))
    full = marginal_subvector(est, [0, 1, 2])
    assert np.array_equal(full.sigma.entries, est.sigma.entries)
    single = marginal_subvector(est, [0])
    assert single.sigma.entries.tolist() == [[0.25]]
    pair = marginal_subvector(est, [0, 2])
    assert np.array_equal(pair.sigma.entries, 0.25 * np.eye(2))
    assert validate_covariance(pair.sigma).valid
    with pytest.raises(ValueError, match="strictly increasing"):
        marginal_subvector(est, [1, 1])
    with pytest.raises(ValueError, match="out of range"):
        marginal_subvector(est, [0, 5])
    with pytest.raises(ValueError, match="non-empty"):
        marginal_subvector(est, [])


def test_estimated_covariance_respects_bounds_on_random_samples():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        m = int(rng.integers(1, 30))
        k = int(rng.choice([1, 3, 6, 10]))  # triangular: valid edge counts
        rows = rng.integers(0, 2, size=(m, k), dtype=np.uint8)
        est = estimate_moments(make_samples(rows))
        assert validate_covariance(est.sigma).valid
        # hard float guarantees, no tolerance
        assert np.all(np.diag(est.sigma.entries) <= 0.25)
        assert np.all(np.diag(est.sigma.entries) >= 0.0)


def test_frechet_bounds_on_counts():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = int(rng.integers(1, 40))
        rows = rng.integers(0, 2, size=(m, 3), dtype=np.uint8)
        est = estimate_moments(make_samples(rows))
        s2 = np.rint(est.p_hat2 * m).astype(int)
        s1 = np.rint(est.p_hat * m).astype(int)
        for i in range(3):
            for j in range(3):
                assert s2[i, j] <= min(s1[i], s1[j])
                assert s2[i, j] >= max(0, s1[i] + s1[j] - m)


def test_trace_equals_sum_of_marginal_variances():
    rng = np.random.default_rng(31)
    for _ in range(100):
        rows = rng.integers(0, 2, size=(int(rng.integers(1, 25)), 3), dtype=np.uint8)
        est = estimate_moments(make_samples(rows))
        m, s = est.m, rows.sum(axis=0).tolist()
        # bitwise: the exact sum of the variances s (m - s) / m^2, correctly rounded
        expected = float(sum(Fraction(si * (m - si), m * m) for si in s))
        assert var_total(est.sigma) == expected


def test_exact_entries_fallback_for_float_matrices():
    m = CovMatrix(SIGMA1)
    exact = m.exact_entries()
    assert exact[0][0] == Fraction(6.0 / 25.0)  # binary value of the float entry
    ent = [[0.1, -3e-300, 0.0], [-3e-300, -1.0, 5e-324], [0.0, 5e-324, 0.25]]
    assert CovMatrix(ent).exact_entries() == tuple(tuple(map(Fraction, r)) for r in ent)


TINY, NORMAL_MIN = 5e-324, 2.2250738585072014e-308


@pytest.mark.parametrize("entries, dtype", [
    ([[0.0, -0.0], [-0.0, 0.0]], np.int64),  # den 1
    ([[TINY, 0.0], [0.0, -0.0]], np.int64),  # den 2^1074: a zero widens nothing
    ([[1.0, -1.0], [-1.0, 0.5]], np.int64),
    ([[2.0**-60, 1.0], [1.0, -0.75]], np.int64),
    ([[2.0**-62, -1.0], [-1.0, 0.5]], np.int64),  # 2^62: the widest int64 numerator of 1
    ([[2.0**-63, 1.0], [1.0, 0.5]], object),  # 2^63 is past int64
    ([[2.0**-63, -0.75], [-0.75, 0.5]], np.int64),  # 0.75 2^63 < 2^63
    ([[2.0**-64, 0.5], [0.5, 0.1]], object),
    ([[NORMAL_MIN, -TINY, 0.1], [-TINY, -1.0, 3e-300], [0.1, 3e-300, 0.0]], object),
])
def test_float_built_exact_value_is_each_float_over_the_least_power_of_two(entries, dtype):
    sigma = CovMatrix(entries)
    values = [Fraction(v) for row in entries for v in row]
    den = max(v.denominator for v in values)  # powers of two: their lcm
    num, got_den = sigma.exact
    assert (got_den, type(got_den), num.dtype) == (den, int, np.dtype(dtype))
    assert num.ravel().tolist() == [int(v * den) for v in values]
    assert {type(v) for v in num.ravel().tolist()} == {int} and not num.flags.writeable


def test_float_built_exact_value_of_random_floats():
    rng = np.random.default_rng(64)
    for k in (1, 4, 9):
        for _ in range(30):
            a = rng.uniform(-1, 1, (k, k)) * 2.0 ** rng.integers(-70, 1, (k, k))
            a[rng.random((k, k)) < 0.2] = 0.0
            sigma = CovMatrix((a + a.T) / 2)
            num, den = sigma.exact
            assert num.tolist() == [[int(Fraction(v) * den) for v in row]
                                    for row in sigma.entries.tolist()]
            assert den == max(Fraction(v).denominator for v in sigma.entries.ravel().tolist())


def test_validate_covariance_loads_no_variability():
    # the trace bound reads CovMatrix.sums, which moments owns
    src = str(Path(moments.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from netvar.moments import CovMatrix, validate_covariance\n"
        "diag = validate_covariance(CovMatrix([[0.3, 0], [0, 0.25]]))\n"
        "assert 'trace_bound' in {v.kind for v in diag.violations}, diag\n"
        "assert 'netvar.variability' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_csv_parsing_exact_decimals():
    m = CovMatrix.from_csv_text("0.24, 0.04\n0.04, 0.24\n")
    assert m.exact_entries()[0][0] == Fraction(24, 100)
    assert m.k == 2
    # numerators are int64 while every |n| < 2^63, Python ints past it: here
    # over the common denominator 10^19 that the cell 1e-19 sets
    num, den = CovMatrix.from_csv_text("0.2401,-0.0004\n-0.0004,0.1\n").exact
    assert num.dtype == np.int64 and den == 10**4
    assert num.tolist() == [[2401, -4], [-4, 1000]]
    tiny = "0.0000000000000000001"
    for cell, dtype in [("0.1234567890123456789", np.int64), ("0.9223372036854775807", np.int64),
                        ("0.9223372036854775808", object), ("-0.9223372036854775808", object)]:
        n = int(cell.replace(".", ""))  # 10^19 times the cell
        num, den = CovMatrix.from_csv_text(f"{cell},{tiny}\n{tiny},0\n").exact
        assert num.dtype == dtype and num.tolist() == [[n, 1], [1, 0]] and den == 10**19
    with pytest.raises(ValueError, match="square"):
        CovMatrix.from_csv_text("0.1,0.2\n0.2\n")
    with pytest.raises(ValueError, match="invalid number"):
        CovMatrix.from_csv_text("0.1,x\n0.3,0.1\n")
    with pytest.raises(ValueError, match="empty"):
        CovMatrix.from_csv_text("# only a comment\n")


def test_csv_skips_one_leading_byte_order_mark():
    text = "0.24,0.04\n0.04,0.24\n"
    plain, marked = CovMatrix.from_csv_text(text), CovMatrix.from_csv_text("\ufeff" + text)
    assert marked.entries.tolist() == plain.entries.tolist()
    assert (marked.exact[0].tolist(), marked.exact[1]) == (plain.exact[0].tolist(), plain.exact[1])
    with pytest.raises(ValueError, match="line 1: invalid number"):
        CovMatrix.from_csv_text("\ufeff\ufeff" + text)


@pytest.mark.parametrize("estimator", ["plugin", "unbiased"])
def test_entries_are_the_correctly_rounded_exact_value(estimator):
    # every float of an estimated covariance is its rational s_ij / den
    # rounded once, the diagonal s (m - s) / m^2 included
    rng = np.random.default_rng(13)
    cases = [np.array([[1]] * 510 + [[0]], dtype=np.uint8)]  # m = 511, s = 510
    for _ in range(60):
        m, k = int(rng.integers(2, 300)), int(rng.integers(1, 6))
        cases.append((rng.random((m, k)) < rng.random(k)).astype(np.uint8))
    for rows in cases:
        est = estimate_moments(make_samples(rows), estimator)
        m, x = rows.shape[0], rows.astype(np.int64)
        num = (m * (x.T @ x) - np.outer(x.sum(axis=0), x.sum(axis=0))).tolist()
        den = m * m if estimator == "plugin" else m * (m - 1)
        want = [[float(Fraction(v, den)) for v in row] for row in num]
        assert est.sigma.entries.tolist() == want
        assert est.sigma.exact_entries() == tuple(tuple(Fraction(v, den) for v in r) for r in num)


def test_from_exact_rounds_once_and_symmetrizes_exactly():
    big = 2**53 + 1  # not a float: one division of Python ints rounds it once
    cases = [
        (np.array([[1, 2], [2, 3]]), 3),
        (np.array([[big, 1], [1, big]], dtype=np.int64), 3 * 2**52),
        (np.array([[3 * 10**400, 1], [1, 10**400]], dtype=object), 7 * 10**400),
        (np.array([[1]], dtype=object), 2**60 + 1),
        (np.array([[1, -3], [-3, 2**52 - 1]]), 2**1023),  # 2^d of a float-built value
        (np.array([[1, -3], [-3, 2**53 + 1]], dtype=object), 2**60),
        (np.array([[5, 1], [1, 7]]), 3 * 2**60),  # an exact float den
    ]
    for num, den in cases:
        sigma = CovMatrix.from_exact(num, den)
        want = [[float(Fraction(v, den)) for v in r] for r in num.tolist()]
        assert sigma.entries.tolist() == want
        assert sigma.exact[0] is num and sigma.exact[1] == den and not num.flags.writeable
    skew = CovMatrix.from_exact(np.array([[1, 1], [2, 1]]), 10**13)
    assert skew.exact_entries()[0][1] == skew.exact_entries()[1][0] == Fraction(3, 2 * 10**13)
    assert skew.entries[0, 1] == skew.entries[1, 0] == float(Fraction(3, 2 * 10**13))
    # the domain is checked on the integers: an entry past the floats is named exactly
    with pytest.raises(ValueError, match=re.escape(f"[-1, 1], got {10**400}/1")):
        CovMatrix.from_exact(np.array([[10**400]], dtype=object), 1)
    with pytest.raises(TypeError):
        CovMatrix(np.eye(2), exact=(np.eye(2, dtype=np.int64), 1))


@pytest.mark.parametrize("num, den, error, message", [
    (np.array([[1]]), 0, ValueError, "den must be >= 1, got 0"),
    (np.array([[1]]), -4, ValueError, "den must be >= 1, got -4"),
    (np.array([[1]]), 4.0, TypeError, "den must be an integer, got 4.0"),
    (np.array([[1]]), Fraction(4), TypeError, "den must be an integer, got Fraction"),
    (np.array([[1.0]]), 4, TypeError, "num must be an integer or object array, got float64"),
    ([[1]], 4, TypeError, "num must be an integer or object array, got list"),
])
def test_from_exact_rejects_bad_arguments_by_name(num, den, error, message):
    # den = 0 divided by zero, and a float den or num built a covariance that
    # failed only later, in the exact Monte Carlo arithmetic
    with pytest.raises(error, match=f"^{re.escape(message)}"):
        CovMatrix.from_exact(num, den)


def test_from_exact_keeps_a_numpy_integer_den_as_a_python_int():
    sigma = CovMatrix.from_exact(np.array([[1]]), np.int64(4))
    assert type(sigma.exact[1]) is int and sigma.entries.tolist() == [[0.25]]


def test_submatrix_slices_the_floats_and_the_exact_value():
    sigma = CovMatrix.from_csv_text("0.2,0.1,0\n0.1,0.3,0.05\n0,0.05,0.1\n")
    sub = sigma.submatrix([0, 2])
    num, den = sub.exact
    assert (num.tolist(), den) == ([[4, 0], [0, 2]], 20) and not num.flags.writeable
    assert sub.entries.tolist() == [[float(Fraction(v, den)) for v in r] for r in num.tolist()]
    floats = CovMatrix([[0.2, 0.1], [0.1, 0.3]]).submatrix([1])
    assert floats.entries.tolist() == [[0.3]]
    assert floats.exact_entries() == ((Fraction(0.3),),)


def count_float_builds(monkeypatch) -> list:
    """Patches ``CovMatrix.__init__`` to append to the list it returns on each call."""
    calls, init = [], CovMatrix.__init__

    def counted(self, entries):
        calls.append(entries)
        init(self, entries)

    monkeypatch.setattr(CovMatrix, "__init__", counted)
    return calls


def test_from_exact_of_a_symmetric_value_rounds_it_with_no_float_construction(monkeypatch):
    rows = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
    calls = count_float_builds(monkeypatch)
    for num, den in [(np.array([[1, -2], [-2, 3]]), 7), (np.array([[1]], dtype=object), 3),
                     (np.array([[3 * 10**400, 1], [1, 10**400]], dtype=object), 7 * 10**400)]:
        sigma = CovMatrix.from_exact(num, den)
        want = [[float(Fraction(v, den)) for v in r] for r in num.tolist()]
        assert sigma.entries.tolist() == want and not sigma.entries.flags.writeable
        assert sigma.exact[0] is num
    estimate_moments(make_samples(rows))
    CovMatrix.from_csv_text("0.2,0.1\n0.1,0.3\n")
    assert calls == []
    CovMatrix.from_exact(np.array([[1, 1], [2, 1]]), 10**13)  # asymmetric: checked on floats once
    assert len(calls) == 1


@pytest.mark.parametrize("num, den, message", [
    (np.zeros((0, 0), np.int64), 4, "covariance matrix must be at least 1 x 1"),
    (np.zeros((2, 3), np.int64), 4, "covariance matrix must be square, got shape (2, 3)"),
    (np.zeros(3, np.int64), 4, "covariance matrix must be square, got shape (3,)"),
    (np.array([[1, 5], [9, 1]]), 4, "covariance entries must lie in [-1, 1], got 1.25"),
    (np.array([[1, 5, 0], [5, 1, 0]]), 4, "covariance entries must lie in [-1, 1], got 1.25"),
    (np.array([[1, 2], [1, 1]]), 4, "matrix asymmetric beyond 1e-12: max |M - M^T| = 0.25"),
])
def test_from_exact_checks_range_then_shape_size_and_asymmetry(num, den, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CovMatrix.from_exact(num, den)


def test_submatrix_of_an_exact_value_slices_its_numerators_and_rounds_them_once(monkeypatch):
    rng = np.random.default_rng(5)
    sigma = estimate_moments(make_samples(rng.random((9, 7)) < 0.5)).sigma
    num, den = sigma.exact
    calls = count_float_builds(monkeypatch)
    for idx in ([0], [1, 4, 6], [6, 2, 2], range(7)):
        sub = sigma.submatrix(idx)
        ix = np.ix_(list(idx), list(idx))
        assert sub.entries.tobytes() == sigma.entries[ix].tobytes()
        assert (sub.exact[0] == num[ix]).all() and sub.exact[1] == den
        assert not sub.exact[0].flags.writeable
    assert calls == []
    # a float-built covariance whose exact value was never built keeps the float slice
    floats = CovMatrix([[-0.0, 0.1, 0.0], [0.1, 0.3, 0.2], [0.0, 0.2, 0.25]])
    sub = floats.submatrix([0, 2])
    assert sub.entries.tobytes() == floats.entries[np.ix_([0, 2], [0, 2])].tobytes()
    assert len(calls) == 2 and floats._exact is None and sub._exact is None
    # once built, a float-built covariance's binary exact value is sliced the same way
    floats = CovMatrix(np.array([[1, 3, -1], [3, 5, 2], [-1, 2, 7]]) / 2**60 + np.eye(3) / 2**20)
    num, den = floats.exact
    sub = floats.submatrix([2, 0])
    assert sub.entries.tobytes() == floats.entries[np.ix_([2, 0], [2, 0])].tobytes()
    assert (sub.exact[0] == num[np.ix_([2, 0], [2, 0])]).all() and sub.exact[1] == den
    assert len(calls) == 3


def test_entries_at_the_domain_ends_symmetrize_and_past_them_are_rejected():
    # the largest entries, +-1, stay exact; past them, CSV and library input
    # get the same check, before the asymmetry check
    for sigma in (CovMatrix([[1.0, -1.0], [-1.0, 1.0]]), CovMatrix.from_csv_text("1,-1\n-1,1\n")):
        assert sigma.entries.tolist() == [[1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(ValueError, match=r"asymmetric beyond 1e-12: max \|M - M\^T\| = 2.0"):
        CovMatrix([[0.0, 1.0], [-1.0, 0.0]])
    for text in ("1e308,-1e308\n-1e308,1.7e308\n", "0,1e308\n-1e308,0\n"):
        with pytest.raises(ValueError, match=r"entries must lie in \[-1, 1\], got -?1e\+308"):
            CovMatrix.from_csv_text(text)
        with pytest.raises(ValueError, match=r"entries must lie in \[-1, 1\], got -?1e\+308"):
            CovMatrix([[float(v) for v in row.split(",")] for row in text.split()])


def test_empty_and_non_finite_matrices_rejected():
    with pytest.raises(ValueError, match="at least 1 x 1"):
        CovMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"entries must lie in \[-1, 1\], got nan"):
        CovMatrix([[0.1, np.nan], [np.nan, 0.1]])
    with pytest.raises(ValueError, match=r"entries must lie in \[-1, 1\], got inf"):
        CovMatrix([[np.inf]])
