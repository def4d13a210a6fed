"""Shared statistical kernel.

Special functions (regularized incomplete beta, Student-t CDF), the
two-sample KS test, unbiased squared MMD with a permutation test, the
Welch two-sample t-test, and seeded reproducible randomness.

Everything here is a pure function of its inputs (plus an explicit seed
where randomness is involved), so results are bit-reproducible and safe
to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = [
    "TestResult",
    "RNG_ALGORITHM",
    "make_rng",
    "substream",
    "incomplete_beta",
    "student_t_cdf",
    "ks_two_sample",
    "mmd2_unbiased",
    "median_heuristic_bandwidth",
    "permutation_test_mmd",
    "t_test_two_sample_welch",
]

_MASK64 = (1 << 64) - 1

# Philox is counter-based: the same 128-bit key yields the same stream on
# every platform, which downstream reproducibility tests rely on.
RNG_ALGORITHM = "philox4x64"


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; identical streams for identical 64-bit seeds."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator derived from (seed, index).

    The pair is packed into the 128-bit Philox key, so substreams never
    collide with each other or with make_rng(seed) for index >= 0.
    """
    if index < 0:
        raise ValueError(f"substream index must be >= 0, got {index}")
    key = ((index + 1) << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class TestResult:
    """Outcome of a statistical test: statistic, p-value, and metadata."""

    statistic: float
    p_value: float
    method: str
    detail: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the incomplete-beta continued fraction
    # (Numerical Recipes form); converges fast for x < (a+1)/(a+b+2).
    # Convergence slows right at the switch boundary for huge a, b, hence
    # the generous iteration cap.
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


_LOG_TWO_PI = math.log(2.0 * math.pi)


def _lgamma_corr(z: float) -> float:
    # ln Gamma(z) - ((z - 1/2) ln z - z + ln sqrt(2 pi)); the asymptotic
    # series keeps this well-conditioned for large z.
    if z <= 15.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + 0.5 * _LOG_TWO_PI)
    zz = z * z
    return (
        1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - 1.0 / (1188.0 * zz)) / zz) / zz) / zz
    ) / z


def _bd0(x: float, mu: float) -> float:
    # Deviance x ln(x/mu) + mu - x, stable for x near mu.
    if abs(x - mu) < 0.1 * (x + mu):
        v = (x - mu) / (x + mu)
        s = (x - mu) * v
        ej = 2.0 * x * v
        v2 = v * v
        j = 1
        while True:
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / mu) + mu - x


def _log_beta_front(a: float, b: float, x: float, xc: float) -> float:
    # ln( x^a xc^b / B(a, b) ) in deviance form: the naive lgamma sum
    # cancels catastrophically for large parameters, this stays at a few
    # ulp. Symmetric under (a, x) <-> (b, xc).
    n = a + b
    return (
        -_bd0(a, x * n)
        - _bd0(b, xc * n)
        - _lgamma_corr(a) - _lgamma_corr(b) + _lgamma_corr(n)
        + 0.5 * math.log(a * b / (2.0 * math.pi * n))
    )


def _incomplete_beta_xc(a: float, b: float, x: float, xc: float) -> float:
    # I_x(a, b) with the complement of x supplied exactly; callers that
    # know xc to full precision (e.g. the t CDF at tiny |t|) avoid the
    # cancellation in 1 - x.
    if x == 0.0:
        return 0.0
    if xc == 0.0:
        return 1.0
    front = math.exp(_log_beta_front(a, b, x, xc))
    # Symmetry switch keeps the continued fraction in its fast-converging
    # regime on both sides.
    if x < (a + 1.0) / (a + b + 2.0):
        return min(1.0, front * _beta_continued_fraction(a, b, x) / a)
    return max(0.0, 1.0 - front * _beta_continued_fraction(b, a, xc) / b)


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (a > 0 and b > 0):
        raise ValueError(f"incomplete_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"incomplete_beta requires x in [0, 1], got {x}")
    return _incomplete_beta_xc(a, b, x, 1.0 - x)


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with df > 0 degrees of freedom."""
    if not df > 0:
        raise ValueError(f"student_t_cdf requires df > 0, got {df}")
    if math.isnan(t):
        raise ValueError("student_t_cdf requires a finite t")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    if t == 0.0:
        return 0.5
    # x and its complement computed independently: near t = 0 the value
    # 1 - df/(df+t^2) would lose most of its digits.
    denom = df + t * t
    x = df / denom
    xc = t * t / denom
    tail = 0.5 * _incomplete_beta_xc(0.5 * df, 0.5, x, xc)
    return 1.0 - tail if t > 0 else tail


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov
# ---------------------------------------------------------------------------

def _ks_p_value(z: float, n_effective: float) -> float:
    # Asymptotic two-sample Kolmogorov distribution with the standard
    # small-sample correction factor. The alternating series is truncated
    # once a term drops below 1e-12 (at most 100 terms); if it has not
    # converged by then lambda is so small that the true p is ~1.
    sqrt_ne = math.sqrt(n_effective)
    lam = (sqrt_ne + 0.12 + 0.11 / sqrt_ne) * z
    total = 0.0
    sign = 1.0
    for j in range(1, 101):
        term = 2.0 * math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < 1e-12:
            return min(1.0, max(0.0, total))
        sign = -sign
    return 1.0


def ks_two_sample(a, b) -> TestResult:
    """Two-sample Kolmogorov-Smirnov test.

    The statistic is the exact supremum of the empirical-CDF difference
    (ties handled by evaluating right-continuous ECDFs at every pooled
    sample point); the p-value uses the asymptotic Kolmogorov distribution
    at effective size |a||b|/(|a|+|b|).
    """
    xs = np.sort(np.asarray(a, dtype=np.float64))
    ys = np.sort(np.asarray(b, dtype=np.float64))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("ks_two_sample requires two nonempty samples")
    pooled = np.concatenate([xs, ys])
    cdf_a = np.searchsorted(xs, pooled, side="right") / xs.size
    cdf_b = np.searchsorted(ys, pooled, side="right") / ys.size
    z = float(np.max(np.abs(cdf_a - cdf_b)))
    n_effective = xs.size * ys.size / (xs.size + ys.size)
    p = _ks_p_value(z, n_effective)
    return TestResult(
        statistic=z,
        p_value=p,
        method="ks_two_sample",
        detail={"n_a": int(xs.size), "n_b": int(ys.size)},
    )


# ---------------------------------------------------------------------------
# Maximum mean discrepancy
# ---------------------------------------------------------------------------

def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a sequence of equal-length vectors")
    return arr


def _sq_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Pairwise squared Euclidean distances, clipped at 0 against rounding.
    sq = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(y * y, axis=1)[None, :]
        - 2.0 * (x @ y.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def _rbf_in_place(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    # exp(-sq / (2 sigma^2)) written over sq: the same bits as a fresh
    # array, with one matrix alive instead of three.
    np.divide(sq, -(2.0 * bandwidth * bandwidth), out=sq)
    return np.exp(sq, out=sq)


def _rbf_kernel(x: np.ndarray, y: np.ndarray, bandwidth: float) -> np.ndarray:
    return _rbf_in_place(_sq_distances(x, y), bandwidth)


def mmd2_unbiased(x, y, bandwidth: float) -> float:
    """Unbiased squared MMD estimator under an RBF kernel.

    (1/(m(m-1))) sum_{i!=j} K(x_i,x_j) + (1/(n(n-1))) sum_{i!=j} K(y_i,y_j)
    - (2/(mn)) sum_{i,j} K(x_i,y_j)
    """
    xm = _as_matrix(x, "x")
    ym = _as_matrix(y, "y")
    if xm.shape[0] < 2 or ym.shape[0] < 2:
        raise ValueError("mmd2_unbiased requires at least 2 points per sample")
    if xm.shape[1] != ym.shape[1]:
        raise ValueError(
            f"dimension mismatch: x has d={xm.shape[1]}, y has d={ym.shape[1]}"
        )
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    m, n = xm.shape[0], ym.shape[0]
    k_xx = _rbf_kernel(xm, xm, bandwidth)
    k_yy = _rbf_kernel(ym, ym, bandwidth)
    k_xy = _rbf_kernel(xm, ym, bandwidth)
    term_xx = (k_xx.sum() - np.trace(k_xx)) / (m * (m - 1))
    term_yy = (k_yy.sum() - np.trace(k_yy)) / (n * (n - 1))
    term_xy = k_xy.sum() / (m * n)
    return float(term_xx + term_yy - 2.0 * term_xy)


def _median_bandwidth(sq: np.ndarray) -> float:
    # Median heuristic over the pooled squared-distance matrix sq.
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median heuristic requires a pooled sample of size >= 2")
    dists = np.sqrt(sq[np.triu_indices(n, k=1)])
    med = float(np.median(dists))
    if med == 0.0:
        positive = dists[dists > 0]
        if positive.size == 0:
            raise ValueError("median heuristic undefined: all points identical")
        med = float(positive.min())
    return math.sqrt(med / 2.0)


def median_heuristic_bandwidth(x, y) -> float:
    """RBF bandwidth sigma with 2*sigma^2 = median pairwise distance.

    The median is taken over plain Euclidean distances of all unordered
    pairs in the pooled sample (self-pairs excluded). A zero median falls
    back to the smallest positive distance; all-identical points are an
    error.
    """
    pooled = np.vstack([_as_matrix(x, "x"), _as_matrix(y, "y")])
    return _median_bandwidth(_sq_distances(pooled, pooled))


def permutation_test_mmd(x, y, n_permutations: int = 100, seed: int = 0) -> TestResult:
    """Permutation test for the unbiased squared MMD.

    One pooled squared-distance matrix gives both the median-heuristic
    bandwidth and, overwritten in place, the RBF kernel K. Permutation i
    draws substream(seed, i).permutation(m + n) and splits it into the
    first m (x) and the remaining n (y) pooled rows. The smaller group of
    the observed split and of every permutation becomes one column of a
    0/1 indicator matrix A, and a single product K @ A yields every
    within-group sum a'Ka; the cross and other-group sums follow from
    the row sums and the total of K. p = (1 + #{perm >= observed}) /
    (1 + n_permutations). A permutation that reproduces the observed
    partition (for m == n, also with the groups swapped) has the observed
    statistic in exact arithmetic and counts as >= observed, whatever the
    rounding. Each permutation comes from its own substream, so the
    result is independent of evaluation order.
    """
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be >= 1, got {n_permutations}")
    xm = _as_matrix(x, "x")
    ym = _as_matrix(y, "y")
    if xm.shape[0] < 2 or ym.shape[0] < 2:
        raise ValueError("permutation_test_mmd requires at least 2 points per sample")
    if xm.shape[1] != ym.shape[1]:
        raise ValueError(
            f"dimension mismatch: x has d={xm.shape[1]}, y has d={ym.shape[1]}"
        )
    pooled = np.vstack([xm, ym])
    m, n = xm.shape[0], ym.shape[0]
    total = m + n
    sq = _sq_distances(pooled, pooled)
    bandwidth = _median_bandwidth(sq)
    kernel = _rbf_in_place(sq, bandwidth)

    # Row 0 is the observed smaller group, row i + 1 that of permutation i,
    # each sorted so that equal groups compare equal.
    x_smaller = m <= n
    groups = np.empty((n_permutations + 1, min(m, n)), dtype=np.intp)
    groups[0] = np.arange(m) if x_smaller else np.arange(m, total)
    for i in range(n_permutations):
        perm = substream(seed, i).permutation(total)
        groups[i + 1] = perm[:m] if x_smaller else perm[m:]
    groups[1:].sort(axis=1)
    same_split = np.all(groups == groups[0], axis=1)
    if m == n:
        same_split |= np.all(groups == np.arange(m, total), axis=1)

    # The unbiased estimator leaves out i == j. For every column a of the
    # indicator, with b = 1 - a: in_in = a'Ka, in_all = a'K1, out_out = b'Kb.
    np.fill_diagonal(kernel, 0.0)
    indicator = np.zeros((total, n_permutations + 1))
    indicator[groups.T, np.arange(n_permutations + 1)] = 1.0
    row_sums = kernel.sum(axis=1)
    in_in = np.einsum("ij,ij->j", indicator, kernel @ indicator)
    in_all = row_sums @ indicator
    out_out = row_sums.sum() - 2.0 * in_all + in_in
    xx, yy = (in_in, out_out) if x_smaller else (out_out, in_in)
    mmd2 = xx / (m * (m - 1)) + yy / (n * (n - 1)) - 2.0 * ((in_all - in_in) / (m * n))
    observed = float(mmd2[0])
    n_ge = int(np.count_nonzero((mmd2[1:] >= observed) | same_split[1:]))
    p = (1 + n_ge) / (1 + n_permutations)
    return TestResult(
        statistic=observed,
        p_value=p,
        method="mmd_permutation",
        detail={
            "bandwidth": bandwidth,
            "n_permutations": n_permutations,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# t-tests
# ---------------------------------------------------------------------------

def t_test_two_sample_welch(a, b) -> TestResult:
    """Two-sided Welch two-sample t-test with Welch-Satterthwaite degrees of freedom.

    Both samples having zero variance is degenerate: equal means give
    p = 1 (no separation), different means give p = 0 (complete
    separation).
    """
    xs = np.asarray(a, dtype=np.float64)
    ys = np.asarray(b, dtype=np.float64)
    if xs.size < 2 or ys.size < 2:
        raise ValueError("t_test_two_sample_welch requires n >= 2 per sample")
    mean_x, mean_y = float(xs.mean()), float(ys.mean())
    var_x = float(xs.var(ddof=1))
    var_y = float(ys.var(ddof=1))
    se_x = var_x / xs.size
    se_y = var_y / ys.size
    if se_x + se_y == 0.0:
        if mean_x == mean_y:
            return TestResult(0.0, 1.0, "t_test_two_sample_welch", {"degenerate": True})
        stat = math.copysign(math.inf, mean_x - mean_y)
        return TestResult(stat, 0.0, "t_test_two_sample_welch", {"degenerate": True})
    t = (mean_x - mean_y) / math.sqrt(se_x + se_y)
    df = (se_x + se_y) ** 2 / (
        se_x**2 / (xs.size - 1) + se_y**2 / (ys.size - 1)
    )
    p = 2.0 * (1.0 - student_t_cdf(abs(t), df))
    p = min(1.0, max(0.0, p))
    return TestResult(t, p, "t_test_two_sample_welch", {"df": df})
