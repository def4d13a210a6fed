"""Selection with guaranteed coverage.

Binary search over the ascending scores of a detection-training sample for
a threshold whose coverage lower bound matches a target coverage. Each of
the ceil(log2 m) iterations solves the binomial-tail bound at confidence
delta / ceil(log2 m); the pair from the final iteration is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import BoundQuery, solve_bound

__all__ = [
    "SgcConfig",
    "CoverageBound",
    "SgcIteration",
    "iter_sgc",
    "run_sgc",
]


@dataclass(frozen=True)
class SgcConfig:
    """Confidence parameter and target coverage for one SGC run."""

    delta: float
    target_coverage: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.target_coverage <= 1.0:
            raise ValueError(
                f"target_coverage must lie in (0, 1], got {self.target_coverage}"
            )


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


def iter_sgc(sorted_scores: np.ndarray, cfg: SgcConfig) -> list[SgcIteration]:
    """Run SGC and return the full binary-search trace.

    sorted_scores must be ascending (np.sort of a sample's scores), so that
    one sort serves every target coverage of a fit; z is the 1-based index
    of the candidate threshold. When the solved bound undershoots the
    target (b* <= c*) the search moves toward higher coverage (z_max = z),
    otherwise toward lower coverage (z_min = z).
    """
    m = sorted_scores.size
    if m < 2:
        raise ValueError(f"SGC requires a sample of size >= 2, got m={m}")
    k = math.ceil(math.log2(m))
    per_iteration_delta = cfg.delta / k

    trace: list[SgcIteration] = []
    z_min, z_max = 1, m
    for i in range(1, k + 1):
        z = (z_min + z_max + 1) // 2
        theta = float(sorted_scores[z - 1])
        # Scores >= theta, ties at theta included.
        successes = m - int(np.searchsorted(sorted_scores, theta, side="left"))
        c_hat = successes / m
        result = solve_bound(BoundQuery(m=m, successes=successes, delta=per_iteration_delta))
        trace.append(SgcIteration(i, z_min, z_max, z, theta, c_hat, result.b_star))
        if result.b_star <= cfg.target_coverage:
            z_max = z
        else:
            z_min = z
    return trace


def run_sgc(sorted_scores: np.ndarray, cfg: SgcConfig) -> CoverageBound:
    """Fit one coverage bound on ascending scores; returns the final iteration's pair."""
    trace = iter_sgc(sorted_scores, cfg)
    last = trace[-1]
    return CoverageBound(
        c_target=cfg.target_coverage,
        b_star=last.b_star,
        theta=last.theta,
        iterations=len(trace),
        empirical_coverage_at_fit=last.c_hat,
    )
