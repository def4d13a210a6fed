"""Exact binomial-tail lower confidence bound on coverage.

Given a sample size m, an observed success count, and a confidence
parameter delta, solve_bound finds the minimal b with

    BinomialCDF(successes; m, b) <= 1 - delta

by bisection of [0, 1] down to BISECTION_TOL. A safeguarded Newton
iteration first brackets the root between two evaluated points, and the
bisection then decides every mid outside that bracket without evaluating
it, so a solve takes a handful of CDF evaluations instead of 34 and
returns the same float. The CDF is a pmf sum in extended precision for
small m and for tails thin relative to m, and otherwise goes through the
regularized incomplete beta identity, so the solver stays stable up to
very large sample sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .stats import _log_beta_front, incomplete_beta

__all__ = ["BoundQuery", "BoundResult", "binomial_cdf", "solve_bound"]

BISECTION_TOL = 1e-10

# Tails narrower than this are summed directly even for huge m.
_TAIL_SUM_MAX_TERMS = 100_000


@dataclass(frozen=True)
class BoundQuery:
    """Inputs to the bound solver: sample size, success count, confidence."""

    m: int
    successes: int
    delta: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0 <= self.successes <= self.m:
            raise ValueError(
                f"successes must lie in [0, {self.m}], got {self.successes}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class BoundResult:
    """Solved bound. satisfiable is False only for successes == m."""

    b_star: float
    satisfiable: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.b_star <= 1.0:
            raise ValueError(f"b_star {self.b_star} outside [0, 1]")


def binomial_cdf(x: int, m: int, b: float) -> float:
    """P(X <= x) for X ~ Binomial(m, b)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= x <= m:
        raise ValueError(f"x must lie in [0, {m}], got {x}")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    if x == m or b == 0.0:
        return 1.0
    if b == 1.0:
        return 0.0
    # Up to m = 1000, and for tails thin relative to m, the pmf is summed
    # directly (the continued fraction converges slowly right at its
    # symmetry switch, which is where extreme x/m ratios land); the bulk
    # of large m goes through the incomplete-beta identity
    # BinomialCDF(x; m, b) = I_{1-b}(m-x, x+1). The upper tail of (m, b)
    # is the lower tail of (m, 1-b); 1-b is exact here because a thin
    # upper tail implies b >= 0.5 wherever the tail mass is non-negligible.
    thin = min(m // 100, _TAIL_SUM_MAX_TERMS)
    if m <= 1000 or x + 1 <= thin:
        return min(1.0, _lower_tail_sum(m, x, b))
    if m - x <= thin:
        return max(0.0, 1.0 - _lower_tail_sum(m, m - x - 1, 1.0 - b))
    return incomplete_beta(m - x, x + 1, 1.0 - b)


def _lower_tail_sum(m: int, x: int, b: float) -> float:
    # Sum of Binomial(m, b) pmf over j in [0, x], evaluated in extended
    # precision. Log binomial coefficients accumulate via cumulative sums
    # of log((m - j + 1) / j), which extended precision keeps below 1e-13
    # absolute error even over 1e5 terms.
    long = np.longdouble
    j_pos = np.arange(1, x + 1, dtype=long)
    log_coef = np.concatenate(
        [np.zeros(1, dtype=long), np.cumsum(np.log(m - j_pos + 1) - np.log(j_pos))]
    )
    j = np.arange(x + 1)
    log_terms = log_coef + j * np.log(long(b)) + (m - j) * np.log1p(-long(b))
    return float(np.exp(log_terms).sum())


@lru_cache(maxsize=200_000)
def solve_bound(q: BoundQuery) -> BoundResult:
    """Minimal b with BinomialCDF(successes; m, b) <= 1 - delta.

    Cached on the query, which is frozen and so hashes by its fields.
    """
    if q.successes == q.m:
        # CDF is identically 1, so the constraint is unsatisfiable; fall
        # back to the exact Clopper-Pearson lower bound for a full-success
        # sample and flag it.
        return BoundResult(b_star=q.delta ** (1.0 / q.m), satisfiable=False)
    limit = 1.0 - q.delta
    infeasible, feasible = _bracket(q, limit)
    lo, hi = 0.0, 1.0
    # cdf(lo)=1 > limit (infeasible), cdf(hi)=0 <= limit (feasible); bisect
    # until the bracket is narrower than the tolerance. A mid outside the
    # Newton bracket gets the answer its evaluation would give, since the
    # CDF falls in b and the bracket ends clear the limit by more than its
    # rounding; if the bracket never narrowed, every mid is evaluated.
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid >= feasible or (
            mid > infeasible and binomial_cdf(q.successes, q.m, mid) <= limit
        ):
            hi = mid
        else:
            lo = mid
    return BoundResult(b_star=hi, satisfiable=True)


# The bisection halves [0, 1] until it is no wider than BISECTION_TOL, so
# every mid it tests is a multiple of 1 / _GRID.
_GRID = 2.0 ** math.ceil(-math.log2(BISECTION_TOL))
# A Newton step this short already lands deep inside one grid cell.
_PROBE_STEP = 1.0 / (64.0 * _GRID)
_BRACKET_EVALS = 10


def _bracket(q: BoundQuery, limit: float) -> tuple[float, float]:
    """(infeasible, feasible): evaluated points on either side of the root.

    Safeguarded Newton on cdf(b) = limit from a normal-approximation start,
    steered by the slope -m * pmf(successes; m - 1, b). Every iterate is
    evaluated with binomial_cdf, so the bracket holds by evaluation, not by
    approximation: cdf(infeasible) > limit and cdf(feasible) <= limit, each
    by more than the CDF's rounding. It stops once no bisection mid lies
    strictly inside, or at the first unusable step (zero or non-finite
    slope, a target outside the bracket, or no faster than bisection), and
    returns (0, 1) if nothing narrowed it.
    """
    s, m = q.successes, q.m
    lo, hi = 0.0, 1.0
    b = _normal_start(s, m, q.delta)
    last_step = 0.0
    target = math.log(limit / (1.0 - limit))
    # binomial_cdf falls with b only up to rounding: over random queries up
    # to m = 1e9 it rose by up to 400 ulps on the thin-tail sums and by up
    # to 7e-12 of the tail mass on the continued fraction. A bracket end
    # clears the limit by ten times that or more, so that every mid beyond
    # it evaluates to the same side.
    margin = 4096.0 * math.ulp(limit) + 1e-10 * min(q.delta, limit)
    for _ in range(_BRACKET_EVALS):
        if not lo < b < hi:
            break
        cdf = binomial_cdf(s, m, b)
        if cdf > limit + margin:
            lo = b
        elif cdf < limit - margin:
            hi = b
        if math.floor(lo * _GRID) + 1.0 >= hi * _GRID or not 0.0 < cdf < 1.0:
            break
        # Newton on logit(cdf) against logit(b): both tails of the CDF are
        # close to power laws, which these coordinates make close to linear.
        # The step moves logit(b) by shift, written so that exp cannot overflow.
        slope = _cdf_slope(s, m, b)
        rate = slope * b * (1.0 - b) / (cdf * (1.0 - cdf))
        if not rate > 0.0:
            break
        shift = (math.log(cdf / (1.0 - cdf)) - target) / rate
        e = math.exp(-abs(shift))
        step = (b / (b + (1.0 - b) * e) if shift >= 0.0 else b * e / (1.0 - b + b * e)) - b
        # b moves this far while the CDF crosses the margin.
        blur = max(margin / slope, _PROBE_STEP / 8.0)
        if abs(step) <= _PROBE_STEP or abs(step) ** 3 <= blur * last_step**2:
            # The Newton target is on the root to within that width (with
            # quadratic convergence it misses by about step^3 / last_step^2),
            # so evaluating it would narrow nothing: probe just past it,
            # toward the bracket end still far from it.
            b += step
            b += (2.0 if hi - b > b - lo else -2.0) * blur
        elif last_step and abs(step) > 0.5 * last_step:
            break
        else:
            b += step
        last_step = abs(step)
    return lo, hi


def _cdf_slope(s: int, m: int, b: float) -> float:
    # -d/db BinomialCDF(s; m, b) = m * pmf(s; m - 1, b), which is the beta
    # front b^(s+1) (1-b)^(m-s) / B(s + 1, m - s) over b (1 - b).
    return math.exp(_log_beta_front(s + 1, m - s, b, 1.0 - b)) / (b * (1.0 - b))


def _normal_start(s: int, m: int, delta: float) -> float:
    # Continuity-corrected Wilson bound: the b at which the normal
    # approximation puts mass delta above s + 1/2. The quantile z of 1 - delta
    # is the Abramowitz-Stegun 26.2.23 rational approximation (|error| <
    # 4.5e-4), which is close enough for a starting point.
    p = min(delta, 1.0 - delta)
    t = math.sqrt(-2.0 * math.log(p))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    if delta > 0.5:
        z = -z
    phat = (s + 0.5) / m
    zz = z * z / m
    return (phat + 0.5 * zz - z * math.sqrt(phat * (1.0 - phat) / m + 0.25 * zz / m)) / (1.0 + zz)
