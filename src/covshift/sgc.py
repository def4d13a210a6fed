"""Selection with guaranteed coverage.

Binary search over the ascending scores of a detection-training sample for
a threshold whose coverage lower bound matches a target coverage. Each of
the ceil(log2 m) iterations compares the binomial-tail bound at confidence
delta / ceil(log2 m) with the target. That bound rises with the success
count, so before the search bounds.success_threshold finds, in a few CDF
evaluations, the largest count whose bound is at most the target, and each
iteration then compares its count with it. run_sgc solves the bound only
for the final iteration, whose pair it returns; iter_sgc solves it for
every iteration of the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import bound_at_most, solve_bound, success_threshold

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
) -> tuple[int, float, list[tuple[int, int, int, int, float, int]]]:
    """(m, per-iteration delta, steps) of the binary search on ascending scores.

    Each step is (index, z_min, z_max, z, theta, successes). A step whose
    bound undershoots the target (b* <= c*) moves toward higher coverage
    (z_max = z), otherwise toward lower coverage (z_min = z). For successes
    below m that holds exactly when successes is at most the target's
    success threshold, found once per search; a step with successes == m
    asks bound_at_most.
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

    threshold = success_threshold(m, per_iteration_delta, target_coverage)
    steps = []
    z_min, z_max = 1, m
    for i in range(1, k + 1):
        z = (z_min + z_max + 1) // 2
        theta = float(sorted_scores[z - 1])
        # Scores >= theta, ties at theta included.
        successes = m - int(np.searchsorted(sorted_scores, theta, side="left"))
        steps.append((i, z_min, z_max, z, theta, successes))
        if successes < m:
            below = successes <= threshold
        else:
            # delta ** (1 / m), not the bisection's grid point: outside the
            # threshold's monotone range.
            below = bound_at_most(m, m, per_iteration_delta, target_coverage)
        if below:
            z_max = z
        else:
            z_min = z
    return m, per_iteration_delta, steps


def iter_sgc(
    sorted_scores: np.ndarray, delta: float, target_coverage: float
) -> list[SgcIteration]:
    """Run SGC at confidence delta and return the full binary-search trace.

    sorted_scores must be ascending (np.sort of a sample's scores), so that
    one sort serves every target coverage of a fit; z is the 1-based index
    of the candidate threshold. Every step's bound b* is solved.
    """
    m, step_delta, steps = _search(sorted_scores, delta, target_coverage)
    return [
        SgcIteration(i, z_min, z_max, z, theta, s / m, solve_bound(m, s, step_delta))
        for i, z_min, z_max, z, theta, s in steps
    ]


def run_sgc(sorted_scores: np.ndarray, delta: float, target_coverage: float) -> CoverageBound:
    """Fit one coverage bound on ascending scores; returns the final iteration's pair.

    Only that pair's bound is solved.
    """
    m, step_delta, steps = _search(sorted_scores, delta, target_coverage)
    *_, theta, successes = steps[-1]
    return CoverageBound(
        c_target=target_coverage,
        b_star=solve_bound(m, successes, step_delta),
        theta=theta,
        iterations=len(steps),
        empirical_coverage_at_fit=successes / m,
    )
