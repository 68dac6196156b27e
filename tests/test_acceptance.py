"""Acceptance suite.

One test per criterion; each prints an ``ACCEPTANCE <id>: PASS`` line
(visible under ``pytest -s``) after its assertions hold.  Expected values
come from independent oracles: exact rational arithmetic for the
statistics table, high-precision special functions (mpmath) for the
significance tables, and exact enumeration of the multinomial null for
the Monte Carlo table (see ``mc_null_exact.py``).

Two families of artifacts in the reference tables are handled explicitly
rather than by loosening tolerances; both are proven in place:

* the normalized Frobenius column of the reference statistics table was
  derived from the 4-decimal truncation of the raw column, so two of its
  cells sit ~1.4e-4 from the exact values;
* several Monte Carlo reference cells sit exactly on positive-probability
  atoms of the discrete null, where the reference run's inclusive
  comparison degenerated under floating-point noise; the exact inclusive
  and strict p-values bracket those cells.
"""

import json
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from mc_null_exact import exact_pvalues
from netvar import asymptotic, cli
from netvar.distributions import chi_square_cdf, gamma_cdf
from netvar.graphs import SampleSet
from netvar.moments import CovMatrix, estimate_moments, validate_covariance
from netvar.montecarlo import mc_pvalues, observed_statistic_exact
from netvar.variability import StatKind, describe, var_frobenius, var_generalized, var_total
from netvar import montecarlo

mp.mp.dps = 40

M_GRID = (10, 20, 50, 100, 200)

CSV = {
    1: "0.24,0.04\n0.04,0.24\n",
    2: "0.1056,-0.0336\n-0.0336,0.2016\n",
    3: "0.1056,0.1456\n0.1456,0.2016\n",
}
RATIONAL = {  # ((s11, s12, s22), denominator)
    1: ((6, 1, 6), 25),
    2: ((66, -21, 126), 625),
    3: ((66, 91, 126), 625),
}


def _pass(line):
    print(f"\nACCEPTANCE {line}: PASS")


def sigma_matrices():
    return {s: CovMatrix.from_csv_text(CSV[s]) for s in (1, 2, 3)}


# ----------------------------------------------------------------------
# criterion 1: the descriptive-statistics table (raw + normalized), CSV in
# ----------------------------------------------------------------------

REF_STATS_TABLE = {
    # raw_T, raw_G, raw_N, norm_T, norm_G, norm_N as printed
    1: (0.48, 0.056, 0.1384, 0.96, 0.896, 0.9642),
    2: (0.3072, 0.02016, 0.2468, 0.6144, 0.32256, 0.6752),
    3: (0.3072, 8.96e-5, 0.2869, 0.6144, 0.00143, 0.5682),
}


def stats_table_exact(s) -> tuple[Fraction, ...]:
    (a, b, c), den = RATIONAL[s]
    s11, s12, s22 = Fraction(a, den), Fraction(b, den), Fraction(c, den)
    tr = s11 + s22
    det = s11 * s22 - s12 * s12
    # sum((lambda - k/4)^2) for k=2, via power sums of the spectrum
    var_n = (tr * tr - 2 * det) - tr + Fraction(1, 2)
    return (tr, det, var_n, 2 * tr, 16 * det, Fraction(8 - 16 * var_n, 6))


def test_c1_statistics_table(tmp_path, capsys):
    paths = {}
    for s in (1, 2, 3):
        p = tmp_path / f"s{s}.csv"
        p.write_text(CSV[s])
        paths[s] = str(p)

    started = time.perf_counter()
    reports = {}
    for s in (1, 2, 3):
        code = cli.main(["stats", "--cov", paths[s], "--rank-policy", "strict",
                         "--format", "json"])
        out, _ = capsys.readouterr()
        assert code == 0
        reports[s] = json.loads(out)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"statistics table took {elapsed:.3f}s"

    for s in (1, 2, 3):
        by_kind = {v["kind"]: v for v in reports[s]["statistics"]}
        ours = (
            by_kind["total"]["raw"],
            by_kind["generalized"]["raw"],
            by_kind["frobenius"]["raw"],
            by_kind["total"]["normalized"],
            by_kind["generalized"]["normalized"],
            by_kind["frobenius"]["normalized"],
        )
        exact = stats_table_exact(s)
        for got, frac in zip(ours, exact):
            assert got == pytest.approx(float(frac), abs=1e-10)

        for idx, (got, printed) in enumerate(zip(ours, REF_STATS_TABLE[s])):
            if idx == 5 and s in (2, 3):
                # this normalized-Frobenius reference cell was recomputed
                # from the truncated 4-decimal raw value; prove that
                truncated = Fraction(math.floor(exact[2] * 10**4), 10**4)
                rederived = float(Fraction(8 - 16 * truncated, 6))
                assert rederived == pytest.approx(printed, abs=1e-4)
                assert abs(got - printed) <= 2e-4  # sanity: still 4-digit close
            else:
                assert got == pytest.approx(printed, abs=1e-4), (s, idx)

    _pass("C1 descriptive-statistics table (18 cells, <1s)")


# ----------------------------------------------------------------------
# criterion 2: the asymptotic significance table (90 printed values)
# ----------------------------------------------------------------------

REF_SIG_TABLE = {
    # method -> sigma -> (raw prints, adjusted prints) per m in M_GRID
    "t_T": {
        1: (["0.4911379", "0.4576109", "0.4054044", "0.3549436", "0.2912432"],
            ["0.906041", "0.863836", "0.7814146", "0.691495", "0.571734"]),
        2: (["0.0941934", "0.0263308", "0.0008529", "0.0000038", "1.09e-10"],
            ["0.1737661", "0.04970497", "0.001644116", "0.0000075", "2.14e-10"]),
        3: (["0.0941934", "0.0263308", "0.0008529", "0.0000038", "1.09e-10"],
            ["0.1737661", "0.04970497", "0.001644116", "0.0000075", "2.14e-10"]),
    },
    "t_G2": {
        1: (["0.6039442", "0.5242587", "0.4231830", "0.3411315", "0.250054"],
            ["0.9052188", "0.8475223", "0.7357998", "0.6166961", "0.4651292"]),
        2: (["0.1214881", "0.0235145", "0.0002789", "0.0000002", "2.79e-13"],
            ["0.1820918", "0.03801388", "0.000484961", "0.00000045", "5e-13"]),
        3: (["3.13e-10", "2.03e-20", "9.82e-51", "4.42e-101", "1.26e-201"],
            ["4.7e-10", "3.28e-20", "1.7e-50", "7.99e-101", "2.35e-201"]),
    },
    "t_N": {
        1: (["0.9652055", "0.9091238", "0.7149371", "0.4368392", "0.1422717"],
            ["0.9645473", "0.9091083", "0.7149371", "0.4368392", "0.1422717"]),
        2: (["0.5649382", "0.2537627", "0.0170906", "0.0001428", "7.48e-9"],
            ["0.556708", "0.2536360", "0.01709067", "0.0001428399", "7.48e-9"]),
        3: (["0.1545514", "0.0147960", "0.0000085", "2.37e-11", "1.34e-22"],
            ["0.1385578", "0.01462880", "8.5e-06", "2.37e-11", "1.34e-22"]),
    },
}


def print_ulp(text: str) -> float:
    """Magnitude of one unit in the last printed digit of a literal."""
    t = text.lower()
    if "e" in t:
        mant, exp = t.split("e")
        decimals = len(mant.split(".")[1]) if "." in mant else 0
        return 10.0 ** (int(exp) - decimals)
    decimals = len(t.split(".")[1]) if "." in t else 0
    return 10.0**-decimals


def significance_oracle():
    """All 90 significance values at 40 digits, closed-form 2x2 spectrum."""

    def low(a, x):
        return mp.gammainc(a, 0, x, regularized=True)

    def up(a, x):
        return mp.gammainc(a, x, mp.inf, regularized=True)

    out = {}
    for s, ((a, b, c), den) in RATIONAL.items():
        tr = mp.mpf(a + c) / den
        det = (mp.mpf(a) * c - mp.mpf(b) ** 2) / den**2
        disc = mp.sqrt(tr**2 - 4 * det)
        lam = ((tr + disc) / 2, (tr - disc) / 2)
        for m in M_GRID:
            raw = low(m, 2 * m * tr)  # chi-square(2m) lower at 4m*tr
            adj = raw / low(m, m)
            out[("t_T", s, m)] = (float(raw), float(adj))
            raw = low(m - 1, 4 * m * mp.sqrt(det))
            adj = raw / low(m - 1, m)
            out[("t_G2", s, m)] = (float(raw), float(adj))
            stat = 8 * m * sum((x - mp.mpf(1) / 4) ** 2 for x in lam)
            raw = up(mp.mpf(3) / 2, stat / 2)
            adj = (raw - up(mp.mpf(3) / 2, mp.mpf(m) / 2)) / low(mp.mpf(3) / 2, mp.mpf(m) / 2)
            out[("t_N", s, m)] = (float(raw), float(adj))
    return out


def test_c2_significance_table():
    sigmas = sigma_matrices()
    runners = {"t_T": asymptotic.test_total, "t_G2": asymptotic.test_gen_gamma,
               "t_N": asymptotic.test_nagao}

    started = time.perf_counter()
    ours = {
        (name, s, m): runners[name](sigmas[s], m)
        for name in runners
        for s in (1, 2, 3)
        for m in M_GRID
    }
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"significance table took {elapsed:.3f}s"

    oracle = significance_oracle()
    checked = 0
    for name in runners:
        for s in (1, 2, 3):
            raw_prints, adj_prints = REF_SIG_TABLE[name][s]
            for mi, m in enumerate(M_GRID):
                r = ours[(name, s, m)]
                o_raw, o_adj = oracle[(name, s, m)]
                # implementation against the independent oracle, tightly
                assert r.p_raw == pytest.approx(o_raw, rel=1e-8, abs=1e-300)
                assert r.p_adjusted == pytest.approx(o_adj, rel=1e-8, abs=1e-300)
                for got, printed in ((r.p_raw, raw_prints[mi]),
                                     (r.p_adjusted, adj_prints[mi])):
                    target = float(printed)
                    tol = max(1e-6 * target, print_ulp(printed))
                    assert abs(got - target) <= tol, (name, s, m, printed, got)
                    checked += 2
    assert checked >= 90
    _pass("C2 asymptotic significance table (90 cells, <1s)")


# ----------------------------------------------------------------------
# criterion 3: the Monte Carlo significance table (45 cells, R = 1e5)
# ----------------------------------------------------------------------

REF_MC_TABLE = {
    ("total", 1): (0.569655, 0.457109, 0.129242, 0.017416, 0.000334),
    ("total", 2): (0.016834, 0.000205, 0.0, 0.0, 0.0),
    ("total", 3): (0.016834, 0.000205, 0.0, 0.0, 0.0),
    ("generalized", 1): (0.784102, 0.512839, 0.14788, 0.013678, 0.000094),
    ("generalized", 2): (0.063548, 0.000761, 0.0, 0.0, 0.0),
    ("generalized", 3): (0.005909, 0.000008, 0.0, 0.0, 0.0),
    ("frobenius", 1): (0.743797, 0.568819, 0.239397, 0.096544, 0.019633),
    ("frobenius", 2): (0.196996, 0.037772, 0.001018, 0.000005, 0.0),
    ("frobenius", 3): (0.018292, 0.000355, 0.0, 0.0, 0.0),
}

# exact (inclusive, strict) p-values from enumeration of the multinomial
# null; frozen from mc_null_exact.exact_pvalues (re-derived below for the
# enumerable-in-a-blink sizes)
EXACT_MC_NULL = {
    ("total", 1, 10): (0.7375640869140614, 0.5693359374999991),
    ("total", 1, 20): (0.514819392192295, 0.45709034049650754),
    ("total", 1, 50): (0.15029188509008318, 0.12943463267354108),
    ("total", 1, 100): (0.01886676563194264, 0.017478944052210874),
    ("total", 1, 200): (0.0003208924276131128, 0.0003086990776541305),
    ("total", 2, 10): (0.01687240600585934, 0.01687240600585934),
    ("total", 2, 20): (0.00020844372556894113, 0.00020844372556894113),
    ("total", 2, 50): (6.229301256764367e-10, 5.288788218368231e-10),
    ("total", 2, 100): (3.8002556034731664e-19, 3.53884619011403e-19),
    ("total", 2, 200): (2.0729897182201124e-37, 2.0332224280837403e-37),
    ("total", 3, 10): (0.01687240600585934, 0.01687240600585934),
    ("total", 3, 20): (0.00020844372556894113, 0.00020844372556894113),
    ("total", 3, 50): (6.229301256764367e-10, 5.288788218368231e-10),
    ("total", 3, 100): (3.8002556034731664e-19, 3.53884619011403e-19),
    ("total", 3, 200): (2.0729897182201124e-37, 2.0332224280837403e-37),
    ("generalized", 1, 10): (0.8558044433593739, 0.7837066650390615),
    ("generalized", 1, 20): (0.5281951299111837, 0.5123158599162718),
    ("generalized", 1, 50): (0.16089057040735544, 0.14713403305835085),
    ("generalized", 1, 100): (0.014098335101396388, 0.013568283743726258),
    ("generalized", 1, 200): (8.750138403360186e-05, 8.610524275379693e-05),
    ("generalized", 2, 10): (0.06318664550781238, 0.06318664550781238),
    ("generalized", 2, 20): (0.0007383273332379767, 0.0007383273332379767),
    ("generalized", 2, 50): (2.5693465636792026e-09, 2.2450468769298695e-09),
    ("generalized", 2, 100): (5.494100794121972e-18, 5.056693354480325e-18),
    ("generalized", 2, 200): (2.455779117363655e-35, 2.3869786158889344e-35),
    ("generalized", 3, 10): (0.005851745605468739, 0.005851745605468739),
    ("generalized", 3, 20): (5.722038622479896e-06, 5.722038622479896e-06),
    ("generalized", 3, 50): (5.329070518200835e-15, 5.329070518200835e-15),
    ("generalized", 3, 100): (4.733165431325987e-30, 4.733165431325987e-30),
    ("generalized", 3, 200): (3.733809166716467e-60, 3.733809166716467e-60),
    ("frobenius", 1, 10): (0.8077392578124989, 0.7068023681640616),
    ("frobenius", 1, 20): (0.5787869882187817, 0.5607904822245484),
    ("frobenius", 1, 50): (0.24044402806631068, 0.238483683424365),
    ("frobenius", 1, 100): (0.09629239379842486, 0.09625169268013),
    ("frobenius", 1, 200): (0.01932079235294558, 0.019320730186214514),
    ("frobenius", 2, 10): (0.19616699218749967, 0.19616699218749967),
    ("frobenius", 2, 20): (0.037871868902584614, 0.037871868902584614),
    ("frobenius", 2, 50): (0.0010065975280811686, 0.0010065975165528926),
    ("frobenius", 2, 100): (4.205746848603163e-06, 4.205746848603162e-06),
    ("frobenius", 2, 200): (6.835127322710308e-11, 6.835127322710309e-11),
    ("frobenius", 3, 10): (0.018394470214843715, 0.018394470214843715),
    ("frobenius", 3, 20): (0.0003413555023144005, 0.0003413555023144005),
    ("frobenius", 3, 50): (3.8524066755129114e-08, 3.8524066755129114e-08),
    ("frobenius", 3, 100): (1.284257757374481e-14, 1.284257757374481e-14),
    ("frobenius", 3, 200): (2.406803830208048e-27, 2.406803830208048e-27),
}

MC_SEED = 20090607
MC_R = 100_000


def test_c3_frozen_exact_values_rederive():
    sigmas = sigma_matrices()
    for kind in StatKind:
        for s in (1, 2, 3):
            t0 = observed_statistic_exact(kind, sigmas[s])
            for m in (10, 20, 50):
                incl, excl = exact_pvalues(m, t0, kind.value)
                f_incl, f_excl = EXACT_MC_NULL[(kind.value, s, m)]
                assert incl == pytest.approx(f_incl, rel=1e-9, abs=1e-300)
                assert excl == pytest.approx(f_excl, rel=1e-9, abs=1e-300)
    _pass("C3a frozen Monte Carlo oracle re-derivation (27 cells)")


def test_c3_monte_carlo_table():
    sigmas = sigma_matrices()
    kinds = tuple(StatKind)

    started = time.perf_counter()
    estimates = {}
    for s in (1, 2, 3):
        for m in M_GRID:
            for e in mc_pvalues(sigmas[s], kinds, MC_R, m, MC_SEED):
                estimates[(e.stat.value, s, m)] = e.p_value
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"Monte Carlo table took {elapsed:.1f}s"

    atom_cells = 0
    for (kv, s, m), est in estimates.items():
        ref = REF_MC_TABLE[(kv, s)][M_GRID.index(m)]
        incl, excl = EXACT_MC_NULL[(kv, s, m)]
        band = max(3 * math.sqrt(ref * (1 - ref) / MC_R), 5 / MC_R)
        ref_noise = max(3 * math.sqrt(incl * (1 - incl) / 1e6) + 2e-6, 5e-6)
        if abs(ref - incl) <= ref_noise:
            # reference cell agrees with the exact inclusive value
            assert abs(est - ref) <= band, (kv, s, m, est, ref)
        else:
            # reference cell sits on a tie atom that the reference run
            # resolved through floating-point noise: the exact strict and
            # inclusive values must bracket it, and our estimator must
            # match the exact inclusive value it is specified to estimate
            atom_cells += 1
            assert excl - 5.1e-3 <= ref <= incl + 5.1e-3, (kv, s, m)
            band_incl = max(3 * math.sqrt(incl * (1 - incl) / MC_R), 5 / MC_R)
            assert abs(est - incl) <= band_incl, (kv, s, m, est, incl)
    assert len(estimates) == 45
    assert atom_cells == 10  # all in the first matrix's column, small m
    # p * R of every cell, recorded before the replicates-last popcount
    # kernel: a change to the draws or the counting moves one of them
    hits = {(kv, s): [round(estimates[(kv, s, m)] * MC_R) for m in M_GRID]
            for kv, s in REF_MC_TABLE}
    assert hits == {
        ("total", 1): [73848, 51367, 15033, 1845, 34],
        ("total", 2): [1695, 15, 0, 0, 0],
        ("total", 3): [1695, 15, 0, 0, 0],
        ("generalized", 1): [85615, 52669, 16177, 1415, 12],
        ("generalized", 2): [6419, 69, 0, 0, 0],
        ("generalized", 3): [585, 0, 0, 0, 0],
        ("frobenius", 1): [80829, 57645, 24166, 9698, 1893],
        ("frobenius", 2): [19594, 3747, 114, 1, 0],
        ("frobenius", 3): [1891, 37, 0, 0, 0],
    }
    _pass(f"C3 Monte Carlo significance table (45 cells, R=1e5, {elapsed:.1f}s; "
          f"{atom_cells} tie-atom cells checked against the exact null)")


# ----------------------------------------------------------------------
# criterion 4: printed eigenvalues
# ----------------------------------------------------------------------

def test_c4_eigenvalues():
    printed = {1: (0.28, 0.20), 2: (0.2121, 0.095), 3: (0.3069, 0.0003)}
    for s, sigma in sigma_matrices().items():
        lam = sigma.eigenvalues
        for got, want in zip(lam, printed[s]):
            assert got == pytest.approx(want, abs=1e-4)
    _pass("C4 eigenvalues of the three example matrices")


# ----------------------------------------------------------------------
# criterion 5: randomized property suites (>= 1000 cases each)
# ----------------------------------------------------------------------

def random_samples(rng):
    m = int(rng.integers(1, 51))
    k = int(rng.choice([1, 3, 6, 10]))
    # mix dense/sparse edge probabilities so constant edges appear too
    p = rng.uniform(0.0, 1.0, size=k)
    rows = (rng.random((m, k)) < p).astype(np.uint8)
    return SampleSet(None, rows)


def test_c5_bounds_hold_exactly_on_estimates():
    rng = np.random.default_rng(52)
    for _ in range(1000):
        est = estimate_moments(random_samples(rng))
        sig = est.sigma
        assert validate_covariance(sig).valid
        diag = np.diag(sig.entries)
        assert np.all(diag >= 0.0) and np.all(diag <= 0.25)  # exact, no slack
        off = sig.entries[~np.eye(sig.k, dtype=bool)]
        if off.size:
            assert np.all(np.abs(off) <= 0.25)
    _pass("C5a covariance bounds hold exactly on 1000 estimated matrices")


def test_c5_eigenvalues_in_admissible_simplex():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        sig = estimate_moments(random_samples(rng)).sigma
        assert sig.min_raw_eigenvalue >= -1e-9
        assert sig.eigenvalues.sum() <= sig.k / 4.0 + 1e-9
    _pass("C5b eigenvalues lie in the admissible simplex (1000 cases)")


def test_c5_normalized_statistics_in_unit_interval():
    rng = np.random.default_rng(54)
    for i in range(1000):
        sig = estimate_moments(random_samples(rng)).sigma
        policy = "strict" if i % 2 else "reduce"
        for sv in describe(sig, policy):
            assert 0.0 <= sv.normalized <= 1.0
            assert sv.complemented == 1.0 - sv.normalized
    _pass("C5c normalized statistics stay in [0,1] (1000 cases)")


def test_c5_zero_covariance_iff_independence_on_pmf_grid():
    # all bivariate binary pmfs on a 0.05 grid (1771 points), brute force
    cases = 0
    for i00 in range(21):
        for i01 in range(21 - i00):
            for i10 in range(21 - i00 - i01):
                i11 = 20 - i00 - i01 - i10
                p00, p01, p10, p11 = (x / 20 for x in (i00, i01, i10, i11))
                p1 = p10 + p11
                p2 = p01 + p11
                cov = p11 - p1 * p2
                factorizes = (
                    abs(p11 - p1 * p2) <= 1e-12
                    and abs(p10 - p1 * (1 - p2)) <= 1e-12
                    and abs(p01 - (1 - p1) * p2) <= 1e-12
                    and abs(p00 - (1 - p1) * (1 - p2)) <= 1e-12
                )
                assert (abs(cov) <= 1e-12) == factorizes, (p00, p01, p10, p11)
                cases += 1
    assert cases == 1771
    _pass("C5d zero covariance iff independence on the pmf grid (1771 cases)")


def test_c5_restriction_commutes_with_estimation():
    # the one restriction path: estimate the sample set's columns
    rng = np.random.default_rng(55)
    for _ in range(1000):
        samples = random_samples(rng)
        k = samples.incidence.shape[1]
        take = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
        ix = np.ix_(take, take)
        for estimator in ("plugin", "unbiased")[: 1 + (samples.m > 1)]:
            a = estimate_moments(samples, estimator)
            b = estimate_moments(SampleSet(None, samples.incidence[:, take]), estimator)
            assert a.p_hat[take].tobytes() == b.p_hat.tobytes()
            assert a.p_hat2[ix].tobytes() == b.p_hat2.tobytes()
            assert a.sigma.entries[ix].tobytes() == b.sigma.entries.tobytes()
            (num, den), (sub, sub_den) = a.sigma.exact, b.sigma.exact
            assert np.array_equal(num[ix], sub) and den == sub_den
    _pass("C5e estimate/restrict commutation is exact, both estimators (1000 cases)")


def test_c5_nagao_eigen_form_equals_trace_form():
    rng = np.random.default_rng(56)
    for _ in range(1000):
        sig = estimate_moments(random_samples(rng)).sigma
        m = int(rng.integers(1, 300))
        r = asymptotic.test_nagao(sig, m)
        k = sig.k
        trace_form = (m / 2.0) * float(
            np.trace((4.0 * sig.entries - np.eye(k)) @ (4.0 * sig.entries - np.eye(k)))
        )
        assert r.statistic == pytest.approx(trace_form, rel=1e-9, abs=1e-12)
    _pass("C5f Nagao statistic: eigenvalue form == trace form (1000 cases)")


def test_c5_mc_thread_count_bit_invariance(monkeypatch):
    # shrink the chunk target so every case spans many chunks cheaply; the
    # partitioning logic under test is identical to the production one
    monkeypatch.setattr(montecarlo, "CHUNK_TARGET", 1024)
    rng = np.random.default_rng(57)
    for _ in range(1000):
        k = int(rng.choice([1, 3]))
        m = int(rng.integers(1, 7))
        rows = rng.integers(0, 2, size=(int(rng.integers(2, 9)), k), dtype=np.uint8)
        sigma = estimate_moments(SampleSet(None, rows)).sigma
        kind = tuple(StatKind)[int(rng.integers(0, 3))]
        replicates = int(rng.integers(150, 600))
        seed = int(rng.integers(0, 2**63))
        base = mc_pvalues(sigma, (kind,), replicates, m, seed, workers=1)[0]
        other = mc_pvalues(sigma, (kind,), replicates, m, seed,
                           workers=int(rng.choice([2, 4, 8])))[0]
        assert base.p_value == other.p_value
    _pass("C5g Monte Carlo p-values are worker-count invariant (1000 cases)")


# ----------------------------------------------------------------------
# criterion 6: boundary identities, exact
# ----------------------------------------------------------------------

def test_c6_boundary_identities():
    for k in range(1, 7):
        zero = CovMatrix(np.zeros((k, k)))
        quarter = CovMatrix(0.25 * np.eye(k))

        assert var_frobenius(zero) == k**3 / 16.0  # exact float equality
        assert var_frobenius(quarter) == k * (k - 1) ** 2 / 16.0
        assert Fraction(k**3, 16) == Fraction(k) ** 3 / 16
        assert var_total(zero) == 0.0 and var_total(quarter) == k / 4.0
        assert var_generalized(quarter, "strict").value == 0.25**k

        z = {sv.kind: sv for sv in describe(zero, "strict")}
        q = {sv.kind: sv for sv in describe(quarter, "strict")}
        for kind in StatKind:
            assert z[kind].normalized == 0.0 and z[kind].complemented == 1.0
            assert q[kind].normalized == 1.0 and q[kind].complemented == 0.0

        # mirrored in exact rational arithmetic
        kk = Fraction(k)
        var_n_zero = k * (kk / 4) ** 2
        var_n_quarter = k * (Fraction(1, 4) - kk / 4) ** 2
        assert var_n_zero == Fraction(k**3, 16)
        assert var_n_quarter == Fraction(k * (k - 1) ** 2, 16)
        assert (kk**3 - 16 * var_n_zero) / (kk * (2 * kk - 1)) == 0
        assert (kk**3 - 16 * var_n_quarter) / (kk * (2 * kk - 1)) == 1
    _pass("C6 boundary identities at the zero and quarter-identity matrices")


# ----------------------------------------------------------------------
# criterion 7: exhaustive structure enumeration gives the exact null moments
# ----------------------------------------------------------------------

def test_c7_exhaustive_enumeration_moments():
    for k in range(1, 5):
        rows = np.array(
            [[(i >> j) & 1 for j in range(k)] for i in range(2**k)], dtype=np.uint8
        )
        est = estimate_moments(SampleSet(None, rows))
        assert np.all(est.p_hat == 0.5)
        assert np.all(est.p_hat2[~np.eye(k, dtype=bool)] == 0.25) or k == 1
        assert np.array_equal(est.sigma.entries, 0.25 * np.eye(k))
        assert all(
            est.sigma.exact_entries()[i][j] == (Fraction(1, 4) if i == j else 0)
            for i in range(k)
            for j in range(k)
        )
    _pass("C7 exhaustive enumeration yields the exact maximum-entropy moments")


# ----------------------------------------------------------------------
# criterion 8: special functions
# ----------------------------------------------------------------------

def test_c8_special_functions():
    for x in np.linspace(0.0, 80.0, 161):
        assert chi_square_cdf(x, 2) == pytest.approx(
            1.0 - math.exp(-x / 2.0), abs=1e-12
        )

    # the gamma lower tail behind the 2.03e-20 significance cell: shape 19,
    # argument 4 * 20 * sqrt(det of the third example matrix)
    x = 4 * 20 * math.sqrt(8.96e-5)
    val = gamma_cdf(x, 19)
    assert 1e-21 < val < 1e-19  # right magnitude, no underflow to 0
    assert val == pytest.approx(2.03e-20, rel=5e-3)
    oracle = float(mp.gammainc(19, 0, x, regularized=True))
    assert val == pytest.approx(oracle, rel=1e-8)
    _pass("C8 special functions: df=2 identity and extreme gamma tail")
