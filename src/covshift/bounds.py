"""Exact binomial-tail lower confidence bound on coverage.

Given a sample size m, an observed success count, and a confidence
parameter delta, solve_bound finds the minimal b with

    BinomialCDF(successes; m, b) <= 1 - delta

by bisection. The CDF is a pmf sum in extended precision for small m and
for tails thin relative to m, and otherwise goes through the regularized
incomplete beta identity, so the solver stays stable up to very large
sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .stats import incomplete_beta

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
    lo, hi = 0.0, 1.0
    # cdf(lo)=1 > limit (infeasible), cdf(hi)=0 <= limit (feasible); bisect
    # until the bracket is narrower than the tolerance.
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if binomial_cdf(q.successes, q.m, mid) <= limit:
            hi = mid
        else:
            lo = mid
    return BoundResult(b_star=hi, satisfiable=True)
