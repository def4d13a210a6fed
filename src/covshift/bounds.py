"""Exact binomial-tail lower confidence bound on coverage.

Given a sample size m, an observed success count, and a confidence
parameter delta, solve_bound finds the minimal b with

    BinomialCDF(successes; m, b) <= 1 - delta

by bisection of [0, 1] down to BISECTION_TOL. A safeguarded Newton
iteration first brackets the root between two evaluated points, and the
bisection then decides every mid outside that bracket without evaluating
it, so a solve takes a handful of CDF evaluations instead of 34 and
returns the same float. The CDF is the regularized incomplete beta
identity at every m and count: one continued fraction in Python floats,
with no platform-dependent float type, that stays stable up to very
large sample sizes.

An SGC search needs only whether b* <= c at the counts it visits.
bound_at_most answers that for one count from one CDF evaluation at the
grid point at or below c, and solves the bound only when that evaluation
lies within the bracket's rounding margin of the limit. Since b* rises
with the count, success_threshold turns those answers into one count per
target coverage, found by walking one count at a time from a
skew-corrected normal approximation in a few bound_at_most calls, and
the search compares each of its counts below m with it.
"""

from __future__ import annotations

import math
import operator

from .stats import _log_beta_front, incomplete_beta

__all__ = ["binomial_cdf", "bound_at_most", "solve_bound", "success_threshold"]

BISECTION_TOL = 1e-10


def _integer(name: str, value) -> int:
    # A Python or numpy integer, returned as a Python int so that no product
    # of counts overflows a numpy integer's width. Bools and floats, even
    # integral ones, are refused rather than truncated.
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_counts(m, x, x_name: str) -> tuple[int, int]:
    # m >= 1 trials and x in [0, m] successes, each an integer (_integer).
    m, x = _integer("m", m), _integer(x_name, x)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0 <= x <= m:
        raise ValueError(f"{x_name} must lie in [0, {m}], got {x}")
    return m, x


def _check_query(m, successes, delta) -> tuple[int, int]:
    m, successes = _check_counts(m, successes, "successes")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    # The solver works with 1 - delta, which is 1 for delta <= 2**-54.
    if 1.0 - delta == 1.0:
        raise ValueError(f"delta must exceed 2**-54 (about 5.6e-17), got {delta}")
    return m, successes


def binomial_cdf(x: int, m: int, b: float) -> float:
    """P(X <= x) for X ~ Binomial(m, b); x and m must be integers."""
    m, x = _check_counts(m, x, "x")
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    if x == m:
        return 1.0
    # BinomialCDF(x; m, b) = I_{1-b}(m-x, x+1) at every m and count. Its
    # continued fraction switches sides at the mean, so thin tails converge
    # fast too: over random queries it took at most 43 terms at m <= 1000
    # and 334 on tails within 1e5 of either end up to m = 1e9, against a
    # cap of 5000.
    return incomplete_beta(m - x, x + 1, 1.0 - b)


def solve_bound(m: int, successes: int, delta: float) -> float:
    """Minimal b with BinomialCDF(successes; m, b) <= 1 - delta.

    m and successes must be integers with m >= 1 and 0 <= successes <= m,
    and 0 < delta < 1. For successes == m the CDF is identically 1, so no
    b meets the constraint; the result is then the exact Clopper-Pearson
    lower bound for a full-success sample, delta ** (1 / m).

    delta reaches the constraint as the float 1 - delta, so a delta at or
    below 2**-54 (about 5.6e-17), whose complement rounds to 1, is a
    ValueError, and one up to about 1.7e-16 acts as 2**-53 (about
    1.1e-16): off by up to a factor of 2.
    """
    m, successes = _check_query(m, successes, delta)
    if successes == m:
        return delta ** (1.0 / m)
    limit = 1.0 - delta
    infeasible, feasible = _bracket(successes, m, delta, limit)
    lo, hi = 0.0, 1.0
    # cdf(lo)=1 > limit (infeasible), cdf(hi)=0 <= limit (feasible); bisect
    # until the bracket is narrower than the tolerance. A mid outside the
    # Newton bracket gets the answer its evaluation would give, since the
    # CDF falls in b and the bracket ends clear the limit by more than its
    # rounding; if the bracket never narrowed, every mid is evaluated.
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid >= feasible or (
            mid > infeasible and binomial_cdf(successes, m, mid) <= limit
        ):
            hi = mid
        else:
            lo = mid
    return hi


def bound_at_most(m: int, successes: int, delta: float, c: float) -> bool:
    """solve_bound(m, successes, delta) <= c, mostly from one CDF evaluation.

    solve_bound returns a multiple of 1 / _GRID, so the answer is whether
    its bisection ends at or below g, the largest grid point not above c.
    A CDF at g that clears the limit by the bracket's margin decides every
    mid on its side the way the bracket ends do: below the limit, every mid
    >= g is feasible and the bisection ends at or below g; above it, every
    mid <= g is infeasible and it ends above g. The bound is solved instead
    when the CDF at g lies within the margin or fails to converge, when
    successes == m, and when g is 0. A bound never exceeds 1, so c >= 1 is
    answered True with no evaluation at all.
    """
    m, successes = _check_query(m, successes, delta)
    if c >= 1.0:
        return True
    g = math.floor(c * _GRID) / _GRID if c > 0.0 else 0.0
    if successes < m and g > 0.0:
        limit = 1.0 - delta
        margin = _margin(delta, limit)
        try:
            cdf = binomial_cdf(successes, m, g)
        except ArithmeticError:
            # The continued fraction can fail near the centre of a binomial
            # with m above about 1e8, where the solve's bracket rarely looks.
            pass
        else:
            if cdf < limit - margin:
                return True
            if cdf > limit + margin:
                return False
    return solve_bound(m, successes, delta) <= c


def success_threshold(m: int, delta: float, c: float) -> int:
    """Largest s < m with bound_at_most(m, s, delta, c), or -1 if there is none.

    The bound rises with the success count, so for s < m the answer of
    bound_at_most is True up to this threshold and False above it. The
    search starts at the Cornish-Fisher quantile of Binomial(m, c) with
    mass delta above it (the normal quantile plus its skew term) and
    walks one count at a time until the answer flips, deciding each count
    with bound_at_most. That start usually lies within a count or two of
    the threshold, so a search takes a few bound_at_most calls.
    successes == m lies outside that range: its bound delta ** (1 / m) is
    not a grid point and can sit below the bound at m - 1. c below the
    first grid point 1 / _GRID gives -1 and c of 1 or more gives m - 1; a
    NaN c is a ValueError.
    """
    m, _ = _check_query(m, 0, delta)
    if math.isnan(c):
        raise ValueError(f"c must be a number, got {c}")
    # Below m successes every bound is a positive multiple of 1 / _GRID.
    if c < 1.0 / _GRID:
        return -1
    q = min(c, 1.0)
    z = _upper_normal_quantile(delta)
    skew = (z * z - 1.0) * (1.0 - 2.0 * q) / 6.0
    s = min(max(math.floor(m * q + z * math.sqrt(m * q * (1.0 - q)) + skew - 0.5), 0), m - 1)
    if bound_at_most(m, s, delta, c):
        while s + 1 < m and bound_at_most(m, s + 1, delta, c):
            s += 1
        return s
    s -= 1
    while s >= 0 and not bound_at_most(m, s, delta, c):
        s -= 1
    return s


# The bisection halves [0, 1] until it is no wider than BISECTION_TOL, so
# every mid it tests is a multiple of 1 / _GRID.
_GRID = 2.0 ** math.ceil(-math.log2(BISECTION_TOL))
# A Newton step this short already lands deep inside one grid cell.
_PROBE_STEP = 1.0 / (64.0 * _GRID)
_BRACKET_EVALS = 10


def _margin(delta: float, limit: float) -> float:
    # binomial_cdf falls with b only up to rounding. Stepping b by single
    # ulps near random queries, it rose at m <= 1000 by at most 424 ulps
    # and 1.7e-13 of the tail mass min(v, 1 - v), and on the tails within
    # m / 100 of either end by up to 1.6e-11 of the tail mass at m <= 1e6
    # and 1.2e-10 on upper tails at m near 1e8. A point whose CDF clears
    # the limit by this margin decides every bisection mid beyond it: each
    # would evaluate to the same side.
    return 4096.0 * math.ulp(limit) + 1e-10 * min(delta, limit)


def _bracket(s: int, m: int, delta: float, limit: float) -> tuple[float, float]:
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
    lo, hi = 0.0, 1.0
    b = _normal_start(s, m, delta)
    last_step = 0.0
    target = math.log(limit / (1.0 - limit))
    margin = _margin(delta, limit)
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
    # approximation puts mass delta above s + 1/2.
    z = _upper_normal_quantile(delta)
    phat = (s + 0.5) / m
    zz = z * z / m
    return (phat + 0.5 * zz - z * math.sqrt(phat * (1.0 - phat) / m + 0.25 * zz / m)) / (1.0 + zz)


def _upper_normal_quantile(p: float) -> float:
    # The z with P(Z > z) = p for a standard normal Z: the Abramowitz-Stegun
    # 26.2.23 rational approximation (|error| < 4.5e-4), which is close
    # enough for a starting point.
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    return -z if p > 0.5 else z
