"""Independent brute-force oracles used by the tests.

These deliberately re-derive expected values through different code paths
than the library: direct log-space summation on a fixed grid for the
bound solver, the binomial CDF as an exact ratio of Python integers at
the bisection's grid points, a plain double loop for MMD and one pass
over the pooled pairs for its median-heuristic bandwidth, one kernel
re-indexing per permutation for the MMD permutation test (sharing only
the seeded substreams), one pass per coverage pair for the detector's violation
terms and exact rational arithmetic per instance for its statistic, hand
ECDF enumeration for KS, the Welch t-test computed from both raw samples
in one function (sharing only the t CDF), and a count over every
positive/negative pair for AUROC. They must stay independent
of the implementations they check. The exceptions must agree bit for
bit with the code they check: bisection_bound, the plain bisection the
bracketed solver replays, shares binomial_cdf on purpose, stepwise_sgc
decides every SGC step with it, and median_bandwidth_triu and
welch_moments_numpy are the numpy expressions that the selected
bandwidth and the reduced Welch moments replaced, and
beta_continued_fraction, log_beta_front and incomplete_beta_xc are the
incomplete beta written out with every term computed here, which the
library's one loop and its cache of the front factor's (a, b)-only terms
must reproduce.
"""

import math
import statistics
from fractions import Fraction

import numpy as np

from covshift.bounds import BISECTION_TOL, binomial_cdf
from covshift.stats import _bd0, _lgamma_corr, student_t_cdf, substream

GRID_STEP = 1e-6
# The bisection's grid is 2**-_GRID_BITS: the first power of two below BISECTION_TOL.
_GRID_BITS = math.ceil(-math.log2(BISECTION_TOL))
_COARSE = 1000  # coarse stride in grid units


def _log_binom_coeffs(m: int, successes: int) -> np.ndarray:
    return np.array(
        [
            math.lgamma(m + 1) - math.lgamma(j + 1) - math.lgamma(m - j + 1)
            for j in range(successes + 1)
        ]
    )


def _cdf_on_grid(m: int, successes: int, b: np.ndarray, log_coeffs: np.ndarray) -> np.ndarray:
    # Direct evaluation of the binomial sum in log space, vectorized over b.
    j = np.arange(successes + 1)
    out = np.empty(b.size)
    interior = (b > 0.0) & (b < 1.0)
    bi = b[interior]
    log_terms = (
        log_coeffs[None, :]
        + j[None, :] * np.log(bi)[:, None]
        + (m - j)[None, :] * np.log1p(-bi)[:, None]
    )
    peak = log_terms.max(axis=1, keepdims=True)
    out[interior] = np.exp(peak[:, 0] + np.log(np.exp(log_terms - peak).sum(axis=1)))
    out[b <= 0.0] = 1.0
    out[b >= 1.0] = 1.0 if successes == m else 0.0
    return out


def grid_scan_bound(m: int, successes: int, delta: float) -> float:
    """First feasible b on the 1e-6 grid for the binomial tail constraint.

    Feasibility (CDF <= 1 - delta) is monotone in b, so a coarse scan
    followed by a fine scan of the bracketing cell returns exactly the
    same grid point as a full linear scan.
    """
    limit = 1.0 - delta
    log_coeffs = _log_binom_coeffs(m, successes)
    coarse_idx = np.arange(0, 1_000_001, _COARSE)
    feasible = _cdf_on_grid(m, successes, coarse_idx * GRID_STEP, log_coeffs) <= limit
    first = int(coarse_idx[np.argmax(feasible)])
    if first == 0:
        return 0.0
    fine_idx = np.arange(first - _COARSE + 1, first + 1)
    feasible = _cdf_on_grid(m, successes, fine_idx * GRID_STEP, log_coeffs) <= limit
    return float(fine_idx[np.argmax(feasible)] * GRID_STEP)


def bisection_bound(m: int, successes: int, delta: float) -> float:
    """b_star by bisecting [0, 1] to BISECTION_TOL, every mid evaluated."""
    if successes == m:
        return delta ** (1.0 / m)
    limit = 1.0 - delta
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if binomial_cdf(successes, m, mid) <= limit:
            hi = mid
        else:
            lo = mid
    return hi


def binomial_cdf_exact(x: int, m: int, k: int) -> Fraction:
    """P(X <= x) for X ~ Binomial(m, b) at the grid point b = k / 2**34, exactly.

    The bisection tests only multiples of 2**-34, where every pmf term is
    a ratio of Python integers. The shorter tail, with t + 1 terms, is
    summed as (r / n)^(m - t) * sum_{j <= t} C(m, j) p^j r^(t - j) / n^t,
    where n = 2**34 and (p, r) is (k, n - k) for the lower tail and
    (n - k, k) for the upper one. The power of a reduced Fraction is
    reduced already, so no gcd of two 34 m-bit integers is taken.
    """
    n = 1 << _GRID_BITS

    def tail(t, p, r):
        acc, coef, power = 0, 1, 1
        for j in range(t + 1):
            if j:
                coef = coef * (m - j + 1) // j
                power *= p
            acc = acc * r + coef * power
        return Fraction(r, n) ** (m - t) * Fraction(acc, n**t)

    if x == m:
        return Fraction(1)
    if x <= m - x - 1:
        return tail(x, k, n - k)
    return 1 - tail(m - x - 1, n - k, k)


def stepwise_sgc(sorted_scores, delta: float, target: float) -> tuple[float, float, float]:
    """(b_star, theta, coverage at fit) of SGC deciding each step by its own bound.

    Every step bisects its bound with bisection_bound and compares it with
    the target, so no success threshold, Newton bracket or single-CDF
    decision is involved.
    """
    m = sorted_scores.size
    k = math.ceil(math.log2(m))
    step_delta = delta / k
    z_min, z_max = 1, m
    for _ in range(k):
        z = (z_min + z_max + 1) // 2
        theta = float(sorted_scores[z - 1])
        successes = int(np.count_nonzero(sorted_scores >= theta))
        b_star = bisection_bound(m, successes, step_delta)
        if b_star <= target:
            z_max = z
        else:
            z_min = z
    return b_star, theta, successes / m


def mmd2_double_loop(x: np.ndarray, y: np.ndarray, sigma: float) -> float:
    """Naive O(n^2) unbiased squared-MMD reimplementation."""

    def k(u, v):
        d = u - v
        return math.exp(-float(np.dot(d, d)) / (2.0 * sigma * sigma))

    m, n = len(x), len(y)
    xx = sum(k(x[i], x[j]) for i in range(m) for j in range(m) if i != j)
    yy = sum(k(y[i], y[j]) for i in range(n) for j in range(n) if i != j)
    xy = sum(k(x[i], y[j]) for i in range(m) for j in range(n))
    return xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * xy / (m * n)


def median_bandwidth_loop(x, y) -> float:
    """Median-heuristic RBF bandwidth, one pooled pair at a time.

    The plain Euclidean distance of each unordered pair of pooled rows,
    then their median m (the smallest positive distance if m is 0), and
    sigma = sqrt(m / 2).
    """
    pooled = [list(map(float, row)) for row in np.vstack([np.asarray(x), np.asarray(y)])]
    dists = [
        math.dist(pooled[i], pooled[j])
        for i in range(len(pooled))
        for j in range(i + 1, len(pooled))
    ]
    med = statistics.median(dists)
    if med == 0.0:
        positive = [d for d in dists if d > 0.0]
        if not positive:
            raise ValueError("median heuristic undefined: all points identical")
        med = min(positive)
    return math.sqrt(med / 2.0)


def median_bandwidth_triu(sq) -> float:
    """Median-heuristic bandwidth from a squared-distance matrix, via np.median.

    sqrt of every pair above the diagonal, np.median of them (the
    smallest positive distance if that is 0), and sigma = sqrt(m / 2).
    """
    n = sq.shape[0]
    dists = np.sqrt(sq[np.triu_indices(n, 1)])
    med = float(np.median(dists))
    if med == 0.0:
        positive = dists[dists > 0]
        if positive.size == 0:
            raise ValueError("median heuristic undefined: all points identical")
        med = float(positive.min())
    return math.sqrt(med / 2.0)


def welch_moments_numpy(xs):
    """(mean, unbiased variance) of a 1-D sample through np.mean and np.var."""
    xs = np.asarray(xs, dtype=np.float64)
    return float(xs.mean()), float(xs.var(ddof=1))


def auroc_pair_count(scores, positives) -> float:
    """AUROC as the share of positive/negative pairs the positive wins; ties count half."""
    pos = [s for s, y in zip(scores, positives) if y]
    neg = [s for s, y in zip(scores, positives) if not y]
    wins = 0.0
    for a in pos:
        for b in neg:
            wins += 1.0 if a > b else 0.5 if a == b else 0.0
    return wins / (len(pos) * len(neg))


def ks_statistic_enumerated(a, b) -> float:
    """KS statistic by explicit ECDF evaluation at every pooled point."""
    a = sorted(a)
    b = sorted(b)
    best = 0.0
    for point in a + b:
        fa = sum(1 for v in a if v <= point) / len(a)
        fb = sum(1 for v in b if v <= point) / len(b)
        best = max(best, abs(fa - fb))
    return best


def mmd_permutation_loop(x, y, bandwidth: float, n_permutations: int, seed: int):
    """Permutation MMD test re-indexing the pooled kernel once per permutation.

    The per-permutation definition the library's batched test must match:
    permutation i draws substream(seed, i).permutation(m + n), its first m
    pooled rows form x, and p = (1 + #{perm >= observed}) / (1 +
    n_permutations).
    """
    pooled = np.vstack([np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)])
    norms = np.sum(pooled * pooled, axis=1)
    sq = norms[:, None] + norms[None, :] - 2.0 * (pooled @ pooled.T)
    np.maximum(sq, 0.0, out=sq)
    kernel = np.exp(-sq / (2.0 * bandwidth * bandwidth))

    def mmd2(idx_x, idx_y):
        k_xx = kernel[np.ix_(idx_x, idx_x)]
        k_yy = kernel[np.ix_(idx_y, idx_y)]
        k_xy = kernel[np.ix_(idx_x, idx_y)]
        m, n = idx_x.size, idx_y.size
        term_xx = (k_xx.sum() - np.trace(k_xx)) / (m * (m - 1))
        term_yy = (k_yy.sum() - np.trace(k_yy)) / (n * (n - 1))
        term_xy = k_xy.sum() / (m * n)
        return float(term_xx + term_yy - 2.0 * term_xy)

    m, total = len(x), pooled.shape[0]
    observed = mmd2(np.arange(m), np.arange(m, total))
    n_ge = 0
    for i in range(n_permutations):
        perm = substream(seed, i).permutation(total)
        if mmd2(perm[:m], perm[m:]) >= observed:
            n_ge += 1
    return (1 + n_ge) / (1 + n_permutations)


def violation_means_loop(model, window):
    """Per-instance violation means and per-coverage checks, one coverage at a time.

    The definition the detector's single array pass must match: coverage j
    selects the window scores >= theta_j; it is violated when the selected
    share c_hat <= b*_j, and then adds b*_j - 1 for a selected instance and
    b*_j for the others to a C x k term matrix that holds zeros elsewhere.
    Returns the k column means of that matrix and one (c_target, b_star,
    c_hat, violated) tuple per coverage, with Python float and bool values.
    """
    scores = window.scores
    terms = np.zeros((len(model.pairs), scores.size))
    checks = []
    for j, pair in enumerate(model.pairs):
        selected = (scores >= pair.theta).astype(np.float64)
        c_hat = float(selected.mean())
        violated = c_hat <= pair.b_star
        if violated:
            terms[j] = pair.b_star - selected
        checks.append((pair.c_target, pair.b_star, c_hat, violated))
    return terms.mean(axis=0), tuple(checks)


def violation_statistic_exact(model, window):
    """(V, t) of the detector's statistic in exact rational arithmetic.

    Coverage j counts the window scores >= theta_j one comparison at a
    time and is violated when its c_hat = count / k, the float a report
    states, is at most b*_j. Instance i's violation mean is (sum of the
    violated Fraction(b*) - s_i) / C, with s_i the Python int count of
    violated coverages that select it, so V, the exact mean of those k
    means, is the sum of Fraction(b*_j) - Fraction(count_j, k) over the
    violated coverages, over C. Returns V as a Fraction and t = V sqrt(k)
    / sd of the means as the float nearest it (to within the rounding of
    one square root), or None for t when every s_i is equal.
    """
    scores = [float(x) for x in window.scores]
    k, c = len(scores), len(model.pairs)
    violated = []
    v = Fraction(0)
    for pair in model.pairs:
        count = sum(1 for x in scores if x >= pair.theta)
        if count / k <= pair.b_star:
            violated.append(pair.theta)
            v += Fraction(pair.b_star) - Fraction(count, k)
    v /= c
    s = [sum(1 for theta in violated if x >= theta) for x in scores]
    mean_s = Fraction(sum(s), k)
    squares = sum((si - mean_s) ** 2 for si in s)
    if squares == 0:
        return v, None
    # sd^2 = squares / (C^2 (k - 1)), so t^2 = V^2 k C^2 (k - 1) / squares.
    t_squared = v * v * k * c * c * (k - 1) / squares
    return v, math.copysign(math.sqrt(float(t_squared)), v)


def welch_from_samples(a, b):
    """Two-sided Welch t-test (t, p) with both samples' moments computed here.

    The expressions, in this order, that the fitted reference-moment path
    must reproduce bit for bit; a degenerate pair (both variances zero)
    gives t = 0, p = 1 for equal means and t = +-inf, p = 0 otherwise.
    """
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    mean_x, mean_y = float(xs.mean()), float(ys.mean())
    se_x = float(xs.var(ddof=1)) / xs.size
    se_y = float(ys.var(ddof=1)) / ys.size
    if se_x + se_y == 0.0:
        if mean_x == mean_y:
            return 0.0, 1.0
        return math.copysign(math.inf, mean_x - mean_y), 0.0
    t = (mean_x - mean_y) / math.sqrt(se_x + se_y)
    w_x, w_y = se_x / (se_x + se_y), se_y / (se_x + se_y)
    df = 1.0 / (w_x * w_x / (xs.size - 1) + w_y * w_y / (ys.size - 1))
    p = 2.0 * student_t_cdf(-abs(t), df)
    return t, p


def beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction.

    Numerical Recipes form; converges fast for x < (a+1)/(a+b+2). Every
    coefficient is computed inside the loop, and the loop gives up with
    ArithmeticError after 5000 terms.
    """
    max_iter = 5000
    eps = 1e-15
    fpmin = 1e-300

    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def log_beta_front(a: float, b: float, x: float, xc: float) -> float:
    """ln( x^a xc^b / B(a, b) ) in deviance form, every term computed here."""
    n = a + b
    return (
        -_bd0(a, x * n)
        - _bd0(b, xc * n)
        - _lgamma_corr(a) - _lgamma_corr(b) + _lgamma_corr(n)
        + 0.5 * math.log(a * b / (2.0 * math.pi * n))
    )


def incomplete_beta_xc(a: float, b: float, x: float, xc: float) -> float:
    """I_x(a, b) with the complement xc of x supplied, through beta_continued_fraction."""
    if x == 0.0:
        return 0.0
    if xc == 0.0:
        return 1.0
    front = math.exp(log_beta_front(a, b, x, xc))
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, front * beta_continued_fraction(a, b, x) / a)
    return max(0.0, 1.0 - front * beta_continued_fraction(b, a, xc) / b)


def plain_t_cdf(t: float, df: float) -> float:
    """student_t_cdf for a finite t, through incomplete_beta_xc at every df."""
    if t == 0.0:
        return 0.5
    denom = df + t * t
    tail = 0.5 * incomplete_beta_xc(0.5 * df, 0.5, df / denom, t * t / denom)
    return 1.0 - tail if t > 0 else tail
