"""Exact null values that the benchmark checks Monte Carlo output against.

Both oracles are independent of the random stream, so they stay valid
when a later change draws replicates differently.
"""

import numpy as np

M_GRID = (10, 20, 50, 100, 200)
STATS = ("total", "generalized", "frobenius")

# The paper's three 2x2 covariance matrices, as decimal CSV text.
PAPER_CSV = {
    1: "0.24,0.04\n0.04,0.24\n",
    2: "0.1056,-0.0336\n-0.0336,0.2016\n",
    3: "0.1056,0.1456\n0.1456,0.2016\n",
}

# Exact inclusive null p-values P(T* >= t0) for each (statistic, matrix, m),
# from exact enumeration of the multinomial null of two fair-coin edges.
# The same values are frozen in the acceptance tests.
PAPER_EXACT_INCLUSIVE = {
    ("total", 1): (0.7375640869140614, 0.514819392192295, 0.15029188509008318,
                   0.01886676563194264, 0.0003208924276131128),
    ("total", 2): (0.01687240600585934, 0.00020844372556894113, 6.229301256764367e-10,
                   3.8002556034731664e-19, 2.0729897182201124e-37),
    ("total", 3): (0.01687240600585934, 0.00020844372556894113, 6.229301256764367e-10,
                   3.8002556034731664e-19, 2.0729897182201124e-37),
    ("generalized", 1): (0.8558044433593739, 0.5281951299111837, 0.16089057040735544,
                         0.014098335101396388, 8.750138403360186e-05),
    ("generalized", 2): (0.06318664550781238, 0.0007383273332379767, 2.5693465636792026e-09,
                         5.494100794121972e-18, 2.455779117363655e-35),
    ("generalized", 3): (0.005851745605468739, 5.722038622479896e-06, 5.329070518200835e-15,
                         4.733165431325987e-30, 3.733809166716467e-60),
    ("frobenius", 1): (0.8077392578124989, 0.5787869882187817, 0.24044402806631068,
                       0.09629239379842486, 0.01932079235294558),
    ("frobenius", 2): (0.19616699218749967, 0.037871868902584614, 0.0010065975280811686,
                       4.205746848603163e-06, 6.835127322710308e-11),
    ("frobenius", 3): (0.018394470214843715, 0.0003413555023144005, 3.8524066755129114e-08,
                       1.284257757374481e-14, 2.406803830208048e-27),
}


def paper_exact(stat: str, matrix: int, m: int) -> float:
    return PAPER_EXACT_INCLUSIVE[(stat, matrix)][M_GRID.index(m)]


def mc_band(p_exact: float, replicates: int) -> float:
    """Allowed |estimate - exact|: four standard errors, at least 5/R."""
    stderr = (p_exact * (1.0 - p_exact) / replicates) ** 0.5
    return max(4.0 * stderr, 5.0 / replicates)


def total_null_upper_tail(m: int, k: int) -> np.ndarray:
    """Exact law of 4 m^2 T* for the trace statistic under the null, as a tail.

    Under the null the column sums S_i ~ Bin(m, 1/2) are independent and
    4 m^2 (k/4 - tr(sigma*)) = sum_i (2 S_i - m)^2, so its law is the k-fold
    convolution of the law of (2 S - m)^2.  Returns ``tail`` with
    ``tail[t] = P(sum >= t)`` for every integer t in [0, k m^2].  The
    convolution runs through a real FFT; its absolute error (~1e-12) is far
    below the Monte Carlo bands it is compared with.
    """
    s = np.arange(m + 1)
    log_binom = _log_comb(m, s) - m * np.log(2.0)
    values = (2 * s - m) ** 2
    base = np.zeros(m * m + 1)
    np.add.at(base, values, np.exp(log_binom))
    size = k * m * m + 1
    n_fft = 1 << (size - 1).bit_length()
    pmf = np.fft.irfft(np.fft.rfft(base, n_fft) ** k, n_fft)[:size]
    pmf = np.clip(pmf, 0.0, None)
    return np.cumsum(pmf[::-1])[::-1]


def _log_comb(m: int, s: np.ndarray) -> np.ndarray:
    from math import lgamma

    lg = np.array([lgamma(i + 1) for i in range(m + 1)])
    return lg[m] - lg[s] - lg[m - s]
