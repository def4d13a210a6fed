"""Shared statistical kernel.

Special functions (regularized incomplete beta, Student-t CDF), the
two-sample KS test, the permutation test of the unbiased squared MMD, the
Welch two-sample t-test, and seeded reproducible randomness. The
incomplete beta has one continued fraction, evaluated by one loop that
computes each term as it goes, and one bounded cache of the front
factor's terms that depend on (a, b) alone. The KS and Welch tests also
take a reference prepared once (sorted; its moments), for callers that
test many windows against one reference; the one-shot KS test sorts its
reference and then calls ks_against_sorted, the one place that evaluates
the two ECDFs. The Welch test has one Welch-Satterthwaite formula, read
from each sample's share of the summed squared standard errors, so its
df calls no libm function and t, df and p keep their bits when both
samples are rescaled by a power of two.

Everything here is a pure function of its inputs (plus an explicit seed
where randomness is involved), so results are bit-reproducible and safe
to call from multiple threads; rekey changes only the generator it is
handed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

__all__ = [
    "TestResult",
    "make_rng",
    "substream",
    "rekey",
    "incomplete_beta",
    "student_t_cdf",
    "ks_two_sample",
    "ks_against_sorted",
    "median_heuristic_bandwidth",
    "permutation_test_mmd",
    "WelchMoments",
    "welch_moments",
    "t_test_welch_against",
    "t_test_two_sample_welch",
]

_MASK64 = (1 << 64) - 1


# Philox is counter-based: the same 128-bit key yields the same stream on
# every platform, which downstream reproducibility tests rely on.
def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator; identical streams for identical 64-bit seeds."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


def _substream_key_words(seed: int, index: int) -> list[int]:
    # The 128-bit Philox key ((index + 1) << 64) | (seed mod 2**64) as its
    # low and high 64-bit words, the order Philox stores them in.
    if not 0 <= index < _MASK64:
        raise ValueError(f"substream index must lie in [0, 2**64 - 1), got {index}")
    return [seed & _MASK64, index + 1]


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator derived from (seed, index).

    The pair is packed into the 128-bit Philox key, so substreams never
    collide with each other or with make_rng(seed) for index >= 0. Loops
    that draw one stream per trial or per permutation make one generator
    here and rekey it to each (seed, i), which draws the same streams.
    """
    low, high = _substream_key_words(seed, index)
    return np.random.Generator(np.random.Philox(key=(high << 64) | low))


def rekey(rng: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """Re-key a Philox generator in place to draw exactly as substream(seed, index).

    The key is replaced and the counter, the output buffer, its position
    and the cached 32-bit half all reset to those of a fresh generator,
    so whatever rng drew before leaves no trace. Costs about a tenth of
    building a generator, whose time goes mostly to OS entropy that numpy
    draws even when a key is given. Returns rng.
    """
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": _substream_key_words(seed, index)},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True)
class TestResult:
    """Outcome of a statistical test: statistic, p-value, and metadata."""

    statistic: float
    p_value: float
    detail: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------

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


# Front terms of the 16 most recently used (a, b): detect asks for the t
# CDF at df = k - 1 on every window, and a bound solve evaluates the CDF
# and its slope at one count many times.
_FRONT_CACHE = 16


@functools.lru_cache(maxsize=_FRONT_CACHE)
def _front_terms(a: float, b: float) -> tuple:
    # The terms of _log_beta_front that depend on a and b alone: n = a + b,
    # the three _lgamma_corr terms and the log scale.
    n = a + b
    log_scale = 0.5 * math.log(a * b / (2.0 * math.pi * n))
    return n, _lgamma_corr(a), _lgamma_corr(b), _lgamma_corr(n), log_scale


def _log_beta_front(a: float, b: float, x: float, xc: float) -> float:
    # ln( x^a xc^b / B(a, b) ) in deviance form: the naive lgamma sum
    # cancels catastrophically for large parameters, this stays at a few
    # ulp. Symmetric under (a, x) <-> (b, xc).
    n, corr_a, corr_b, corr_n, log_scale = _front_terms(a, b)
    return -_bd0(a, x * n) - _bd0(b, xc * n) - corr_a - corr_b + corr_n + log_scale


# The fraction gives up after this many terms. Convergence slows right at
# the symmetry switch for huge a, b, hence the generous cap; there it can
# still fail once a + b passes about 1e8.
_MAX_TERMS = 5000


def _incomplete_beta_xc(a: float, b: float, x: float, xc: float) -> float:
    # I_x(a, b) with the complement of x supplied exactly; callers that
    # know xc to full precision (e.g. the t CDF at tiny |t|) avoid the
    # cancellation in 1 - x.
    if x == 0.0:
        return 0.0
    if xc == 0.0:
        return 1.0
    scale = math.exp(_log_beta_front(a, b, x, xc))
    # Symmetry switch keeps the continued fraction in its fast-converging
    # regime, x < (a+1)/(a+b+2), on both sides: it runs for (p, q) at y.
    below = x < (a + 1.0) / (a + b + 2.0)
    p, q, y = (a, b, x) if below else (b, a, xc)
    # Modified Lentz evaluation of the fraction (Numerical Recipes form).
    # Term m has the odd coefficient m(q - m) y / ((p - 1 + 2m)(p + 2m))
    # and the even one -(p + m)(p + q + m) y / ((p + 2m)(p + 1 + 2m)).
    # m counts in floats, which skips an int-to-float conversion per
    # operation. Each sum of counts is then exact, as in int arithmetic,
    # and each product rounds once, so the factors have the bits of an int
    # counter whenever p and q are floats or integers below 2**51.
    eps = 1e-15
    fpmin = 1e-300
    pq = p + q
    p_plus = p + 1.0
    p_minus = p - 1.0
    c = 1.0
    d = 1.0 - pq * y / p_plus
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    m = 0.0
    for _ in range(_MAX_TERMS):
        m += 1.0
        m2 = m + m
        p_m2 = p + m2
        aa = m * (q - m) * y / ((p_minus + m2) * p_m2)
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(p + m) * (pq + m) * y / (p_m2 * (p_plus + m2))
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
            return min(1.0, scale * h / a) if below else max(0.0, 1.0 - scale * h / b)
    raise ArithmeticError(
        f"incomplete beta continued fraction failed to converge (a={a}, b={b}, x={x})"
    )


def incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"incomplete_beta requires finite a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"incomplete_beta requires x in [0, 1], got {x}")
    return _incomplete_beta_xc(a, b, x, 1.0 - x)


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with finite df > 0 degrees of freedom.

    The tail is the regularized incomplete beta I_x(df/2, 1/2), through
    its one continued fraction, whose terms are computed as it goes at
    every df. The front factor's terms that depend on df alone come from
    a cache of the 16 most recently used (a, b) that every incomplete
    beta shares, so detect's df = k - 1 computes them once.
    """
    if not 0 < df < math.inf:
        raise ValueError(f"student_t_cdf requires a finite df > 0, got {df}")
    if math.isnan(t):
        raise ValueError("student_t_cdf requires a finite t")
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
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
    (ties handled by right-continuous ECDFs); the p-value uses the
    asymptotic Kolmogorov distribution at effective size |a||b|/(|a|+|b|).
    a is sorted on every call, the one-shot cost of the two-sample
    baseline, and then handed to ks_against_sorted.
    """
    return ks_against_sorted(np.sort(np.asarray(a, dtype=np.float64)), b)


def ks_against_sorted(sorted_a: np.ndarray, b) -> TestResult:
    """ks_two_sample(a, b) for a reference a already sorted ascending.

    Costs O(|b| log |a|). Between consecutive window points the window's
    ECDF is constant and the reference's rises, so the supremum over the
    pooled points is reached at a window point (right-continuous counts)
    or at the last reference point below one (left counts of both
    samples). Every candidate is an |i/|a| - j/|b|| difference of the two
    ECDFs at some pooled point.
    """
    ys = np.sort(np.asarray(b, dtype=np.float64))
    n_a, n_b = sorted_a.size, ys.size
    if n_a == 0 or n_b == 0:
        raise ValueError("ks_against_sorted requires two nonempty samples")
    # NaN sorts last and -inf first, so the ends of each sorted sample show
    # any non-finite value.
    if not (-math.inf < sorted_a[0] and sorted_a[-1] < math.inf
            and -math.inf < ys[0] and ys[-1] < math.inf):
        raise ValueError("KS test: a sample holds a NaN or infinite value")
    z = 0.0
    for side in ("right", "left"):
        cdf_a = np.searchsorted(sorted_a, ys, side=side) / n_a
        cdf_b = np.searchsorted(ys, ys, side=side) / n_b
        z = max(z, float(np.max(np.abs(cdf_a - cdf_b))))
    return TestResult(statistic=z, p_value=_ks_p_value(z, n_a * n_b / (n_a + n_b)))


# ---------------------------------------------------------------------------
# Maximum mean discrepancy
# ---------------------------------------------------------------------------

def _as_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a sequence of equal-length vectors")
    return arr


# Each entry |a|^2 + |b|^2 - 2 a.b of _sq_distances is at most 4 times the
# largest squared row norm in magnitude (Cauchy-Schwarz), so squared norms
# up to an eighth of the float64 maximum keep every entry finite, with a
# factor 2 to spare for rounding.
_MAX_SQ_NORM = float(np.finfo(np.float64).max) / 8.0

# Rows of _sq_distances's matrix finished per step: a block of 64 rows
# holds 64 n floats beside the n x n matrix, a twentieth of it at n = 1280.
_SQ_BLOCK_ROWS = 64


def _sq_distances(pooled: np.ndarray) -> np.ndarray:
    # Squared Euclidean distances between every pair of rows, clipped at
    # 0 against rounding. A NaN, infinite or huge row would give NaN or
    # inf entries, and so a NaN statistic and a meaningless p-value; the
    # squared norms reveal those rows without a pass over the n x n result.
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.sum(pooled * pooled, axis=1)
    if not norms.max() <= _MAX_SQ_NORM:
        raise ValueError(
            "permutation_test_mmd requires finite rows with squared norms "
            f"<= {_MAX_SQ_NORM:.3g}; larger ones overflow the squared distances"
        )
    # (|a|^2 + |b|^2) - 2 a.b is written over the Gram product a block of
    # rows at a time, so only one block of the norm sums is held beside it.
    # The same operations in the same order give the bits of the whole-
    # matrix expression. pooled @ pooled.T itself is one syrk call whose
    # mirror numpy fills in.
    sq = pooled @ pooled.T
    sq *= 2.0
    for start in range(0, sq.shape[0], _SQ_BLOCK_ROWS):
        block = slice(start, start + _SQ_BLOCK_ROWS)
        np.subtract(norms[block, None] + norms, sq[block], out=sq[block])
    np.maximum(sq, 0.0, out=sq)
    return sq


def _rbf_in_place(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    # exp(-sq / (2 sigma^2)) written over sq: the same bits as a fresh
    # array, with one matrix alive instead of three.
    np.divide(sq, -(2.0 * bandwidth * bandwidth), out=sq)
    return np.exp(sq, out=sq)


def median_heuristic_bandwidth(sq: np.ndarray) -> float:
    """RBF bandwidth sigma with 2*sigma^2 = median pairwise distance.

    sq is the n x n matrix of squared Euclidean distances between the
    rows of the pooled sample. The median is taken over plain Euclidean
    distances of all unordered pairs (self-pairs excluded). A zero median
    falls back to the smallest positive distance; all-identical points
    are an error.

    The strict upper triangle of sq is gathered once and partitioned in
    place at its middle rank; only the one or two middle values are
    square-rooted and averaged as (lo + hi) / 2. sqrt is monotone and
    correctly rounded, so the k-th smallest distance is the sqrt of the
    k-th smallest squared distance, and the result is the same float as
    np.median over the square-rooted pairs. Likewise the fallback is the
    sqrt of the smallest positive squared distance.
    """
    sq = np.asarray(sq, dtype=np.float64)
    if sq.ndim != 2 or sq.shape[0] != sq.shape[1]:
        raise ValueError(f"median heuristic requires a square matrix, got shape {sq.shape}")
    n = sq.shape[0]
    if n < 2:
        raise ValueError("median heuristic requires a pooled sample of size >= 2")
    r = np.arange(n)
    pairs = sq[r[:, None] < r]
    # One partition index: numpy selects a single rank much faster than
    # several. For an even count the lower middle value is then the
    # largest of the lower half.
    half = pairs.size // 2
    pairs.partition(half)
    hi = math.sqrt(pairs[half])
    med = hi if pairs.size % 2 else (math.sqrt(pairs[:half].max()) + hi) / 2
    if med == 0.0:
        positive = pairs[pairs > 0.0]
        if positive.size == 0:
            raise ValueError("median heuristic undefined: all points identical")
        med = math.sqrt(positive.min())
    return math.sqrt(med / 2.0)


def permutation_test_mmd(x, y, n_permutations: int, seed: int = 0) -> TestResult:
    """Permutation test for the unbiased squared MMD.

    One pooled squared-distance matrix gives both the median-heuristic
    bandwidth and, overwritten in place, the RBF kernel K. Permutation i
    draws the stream of substream(seed, i), from one generator rekeyed
    per permutation: its permutation(m + n) splits into the first m (x)
    and the remaining n (y) pooled rows. The smaller group of
    the observed split and of every permutation becomes one column of a
    0/1 indicator matrix A, and a single product K @ A yields every
    within-group sum a'Ka; the cross and other-group sums follow from
    the row sums and the total of K. p = (1 + #{perm >= observed}) /
    (1 + n_permutations). A permutation that reproduces the observed
    partition (for m == n, also with the groups swapped) has the observed
    statistic in exact arithmetic and counts as >= observed, whatever the
    rounding. Each permutation comes from its own substream, so the
    result is independent of evaluation order. Rows that are not finite,
    or so large that their squared distances would overflow, are a
    ValueError.
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
    sq = _sq_distances(pooled)
    bandwidth = median_heuristic_bandwidth(sq)
    kernel = _rbf_in_place(sq, bandwidth)

    # Row 0 is the observed smaller group, row i + 1 that of permutation i,
    # each sorted so that equal groups compare equal.
    x_smaller = m <= n
    groups = np.empty((n_permutations + 1, min(m, n)), dtype=np.intp)
    groups[0] = np.arange(m) if x_smaller else np.arange(m, total)
    rng = substream(seed, 0)
    for i in range(n_permutations):
        perm = rekey(rng, seed, i).permutation(total)
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
    return TestResult(statistic=observed, p_value=p, detail={"bandwidth": bandwidth})


# ---------------------------------------------------------------------------
# t-tests
# ---------------------------------------------------------------------------

_FLOAT64_TINY = float(np.finfo(np.float64).tiny)


class WelchMoments(NamedTuple):
    """Mean, unbiased variance and size of one Welch t-test sample."""

    mean: float
    var: float
    n: int


def welch_moments(a) -> WelchMoments:
    """The reference side of t_test_two_sample_welch, computed once.

    a is a 1-D sample of n >= 2 values. mean = sum / n and var =
    sum((a - mean)^2) / (n - 1), each sum one np.add.reduce: the same
    operations in the same order as np.mean and np.var(ddof=1), whose
    Python wrappers cost more than the arithmetic on small windows, so
    both are bit-identical to them. A sample whose mean or variance is
    not a finite float64, or whose variance is below the smallest normal
    float64 though its values differ, raises ValueError and no numpy warning.
    """
    xs = np.asarray(a, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"t_test_two_sample_welch requires 1-D samples, got shape {xs.shape}")
    n = xs.size
    if n < 2:
        raise ValueError("t_test_two_sample_welch requires n >= 2 per sample")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(xs) / n
        dev = xs - mean
        var = np.add.reduce(dev * dev) / (n - 1)
    # Any NaN or infinite value, or a sum past the float64 range, leaves the
    # mean non-finite; errstate keeps numpy from warning before this refusal.
    if not math.isfinite(mean):
        raise ValueError(
            "t_test_two_sample_welch: a sample holds a NaN or infinite value, "
            "or a sum that overflows"
        )
    # An overflowing square leaves the variance inf and the df inf / inf; a
    # subnormal or underflowed variance has lost the bits t is taken from.
    # A constant sample keeps var = 0 and the degenerate verdict.
    if not math.isfinite(var):
        raise ValueError("t_test_two_sample_welch: a sample's squared deviations overflow float64")
    if var < _FLOAT64_TINY and xs.min() != xs.max():
        raise ValueError(
            "t_test_two_sample_welch: a sample's spread is too small for float64 "
            "(its variance is below the smallest normal float)"
        )
    return WelchMoments(float(mean), float(var), n)


def t_test_welch_against(ref: WelchMoments, b) -> TestResult:
    """Two-sided Welch two-sample t-test with Welch-Satterthwaite degrees of freedom.

    ref holds the first sample's moments (welch_moments), b is the second
    sample. The df se^2 / (se_x^2 / (n_x - 1) + se_y^2 / (n_y - 1)), with
    se = se_x + se_y the sum of the squared standard errors, is computed
    divided through by se^2: it squares the shares se_x / se and se_y / se
    in [0, 1], each as a product, so it neither under- nor overflows and
    calls no libm function. t, df and p therefore keep their bits when
    both samples are scaled by a power of two that leaves the standard
    errors normal floats. Both samples having zero variance is
    degenerate: equal means give p = 1 (no separation), different means
    give p = 0 (complete separation).
    """
    y = welch_moments(b)
    se_x = ref.var / ref.n
    se_y = y.var / y.n
    if se_x + se_y == 0.0:
        if ref.mean == y.mean:
            return TestResult(0.0, 1.0, {"degenerate": True})
        stat = math.copysign(math.inf, ref.mean - y.mean)
        return TestResult(stat, 0.0, {"degenerate": True})
    se = se_x + se_y
    t = (ref.mean - y.mean) / math.sqrt(se)
    w_x, w_y = se_x / se, se_y / se
    df = 1.0 / (w_x * w_x / (ref.n - 1) + w_y * w_y / (y.n - 1))
    # The tail is read at -|t|: 1 - cdf(|t|) rounds to 0 below about 1e-16.
    return TestResult(t, 2.0 * student_t_cdf(-abs(t), df), {"df": df})


def t_test_two_sample_welch(a, b) -> TestResult:
    """Welch two-sample t-test of a against b, both samples read in full (t_test_welch_against)."""
    return t_test_welch_against(welch_moments(a), b)
