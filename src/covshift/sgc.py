"""Selection with guaranteed coverage.

Binary search over the ascending scores x_(1) <= ... <= x_(m) of a
detection-training sample for a threshold x_(z) whose coverage lower bound,
at confidence delta / ceil(log2 m) on its successes count(x >= x_(z)),
matches a target coverage. bounds.success_threshold first finds the largest
count T < m whose bound is at most the target, and the search decides once
whether the bound at m successes is too. The steps then read four integers
and no score: m, T, n_min = count(x <= x_(1)) and n_v = count(x <= x_(m - T)),
which a streaming pass could supply as well.
run_sgc reads and solves only the final iteration's pair; iter_sgc reads
and solves every iteration's for its trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import solve_bound, success_threshold

__all__ = [
    "CoverageBound",
    "SgcIteration",
    "iter_sgc",
    "run_sgc",
]


@dataclass(frozen=True)
class CoverageBound:
    """Fitted (coverage bound, threshold) pair for one target coverage."""

    c_target: float
    b_star: float
    theta: float
    iterations: int
    empirical_coverage_at_fit: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.b_star <= 1.0:
            raise ValueError(f"b_star {self.b_star} outside [0, 1]")
        if not 0.0 <= self.empirical_coverage_at_fit <= 1.0:
            raise ValueError(
                f"empirical_coverage_at_fit {self.empirical_coverage_at_fit} outside [0, 1]"
            )
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


class SgcIteration(NamedTuple):
    index: int
    z_min: int
    z_max: int
    z: int
    theta: float
    c_hat: float
    b_star: float


def _search(
    sorted_scores: np.ndarray, delta: float, target_coverage: float
) -> tuple[int, float, list[tuple[int, int, int]]]:
    """(m, per-iteration delta, steps) of the binary search on ascending scores.

    Each step is (z_min, z_max, z). It moves toward higher coverage
    (z_max = z) when z > n_v, since count(x >= x_(z)) <= T exactly then, or
    when z <= n_min, where every score succeeds, and the bound at m
    successes, decided once per search, is at most the target; otherwise
    toward lower coverage (z_min = z).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0.0 < target_coverage <= 1.0:
        raise ValueError(f"target_coverage must lie in (0, 1], got {target_coverage}")
    m = sorted_scores.size
    if m < 2:
        raise ValueError(f"SGC requires a sample of size >= 2, got m={m}")
    k = math.ceil(math.log2(m))
    per_iteration_delta = delta / k
    if 1.0 - per_iteration_delta == 1.0:
        raise ValueError(
            f"delta={delta} at m={m} gives a per-iteration delta of delta / ceil(log2 m) "
            f"= {delta} / {k} = {per_iteration_delta:.3g}, at or below 2**-54 (about "
            "5.6e-17), where 1 - delta rounds to 1; use a larger delta"
        )

    threshold = success_threshold(m, per_iteration_delta, target_coverage)
    # T = -1 reads rank m as T = 0 does: n_v = m, and no step passes.
    ranks = [0, m - max(threshold, 0) - 1]
    n_min, n_v = np.searchsorted(sorted_scores, sorted_scores[ranks], side="right").tolist()
    # The bound at m successes is solve_bound's closed form delta ** (1 / m),
    # not the bisection's grid point: outside the threshold's monotone range.
    all_succeed_passes = per_iteration_delta ** (1.0 / m) <= target_coverage
    steps = []
    z_min, z_max = 1, m
    for _ in range(k):
        z = (z_min + z_max + 1) // 2
        steps.append((z_min, z_max, z))
        if z > n_v or (all_succeed_passes and z <= n_min):
            z_max = z
        else:
            z_min = z
    return m, per_iteration_delta, steps


def _pair(sorted_scores: np.ndarray, z: int) -> tuple[float, int]:
    """(theta, successes) of the threshold x_(z): scores >= theta, ties included."""
    theta = float(sorted_scores[z - 1])
    return theta, sorted_scores.size - int(np.searchsorted(sorted_scores, theta, side="left"))


def iter_sgc(
    sorted_scores: np.ndarray, delta: float, target_coverage: float
) -> list[SgcIteration]:
    """Run SGC at confidence delta and return the full binary-search trace.

    sorted_scores must be ascending (np.sort of a sample's scores), so that
    one sort serves every target coverage of a fit; z is the 1-based index
    of the candidate threshold. Every step's bound b* is solved.
    """
    m, step_delta, steps = _search(sorted_scores, delta, target_coverage)
    trace = []
    for i, (z_min, z_max, z) in enumerate(steps, 1):
        theta, s = _pair(sorted_scores, z)
        trace.append(SgcIteration(i, z_min, z_max, z, theta, s / m, solve_bound(m, s, step_delta)))
    return trace


def run_sgc(sorted_scores: np.ndarray, delta: float, target_coverage: float) -> CoverageBound:
    """Fit one coverage bound on ascending scores; returns the final iteration's pair.

    Only that pair's threshold is read and its bound solved.
    """
    m, step_delta, steps = _search(sorted_scores, delta, target_coverage)
    theta, successes = _pair(sorted_scores, steps[-1][-1])
    return CoverageBound(
        c_target=target_coverage,
        b_star=solve_bound(m, successes, step_delta),
        theta=theta,
        iterations=len(steps),
        empirical_coverage_at_fit=successes / m,
    )
