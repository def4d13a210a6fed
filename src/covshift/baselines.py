"""Comparison detectors behind one window-level interface.

All of them are lazy: every detection consumes the full retained
reference sample (the seeded MMD subsample cap is the one documented
exception, mirroring kernel-size limits). This is exactly the property
the complexity benchmark measures against.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass

import numpy as np

from .scores import ConfidenceFunction, ScoreSample, read_csv_matrix, validate_softmax_rows
from .stats import (
    TestResult,
    ks_two_sample,
    permutation_test_mmd,
    substream,
    t_test_two_sample_welch,
)

__all__ = [
    "VectorKind",
    "VectorSample",
    "SingleInstanceEstimator",
    "MMD_REF_CAP_DEFAULT",
    "load_vectors",
    "detect_ks",
    "detect_mmd",
    "detect_single_instance",
]

# Reference rows retained for the kernel test; larger references are
# subsampled with a seeded draw.
MMD_REF_CAP_DEFAULT = 1000


class VectorKind(enum.Enum):
    SOFTMAX = "softmax"
    EMBEDDING = "embedding"


class SingleInstanceEstimator(enum.Enum):
    SR = "sr"
    ENTROPY = "entropy"

    @property
    def kappa_name(self) -> str:
        if self is SingleInstanceEstimator.SR:
            return ConfidenceFunction.SOFTMAX_RESPONSE.value
        return ConfidenceFunction.ONE_MINUS_ENTROPY.value


@dataclass(frozen=True)
class VectorSample:
    """Immutable sample of equal-length vectors (softmax or embedding rows).

    Softmax rows are validated once, here; ``source`` and ``first_line``
    only label the errors (file path and line of the first row).
    """

    vectors: np.ndarray
    kind: VectorKind
    source: InitVar[str] = "<in-memory>"
    first_line: InitVar[int] = 1

    def __post_init__(self, source: str, first_line: int) -> None:
        arr = np.array(self.vectors, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("vector sample must be a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector sample contains non-finite entries")
        if self.kind is VectorKind.SOFTMAX:
            validate_softmax_rows(arr, source, first_line)
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def load_vectors(path: str, kind: VectorKind, header: bool = False) -> VectorSample:
    """Load a VectorSample from the softmax_csv row format.

    Embedding files share the CSV shape but skip the sum-to-one check.
    """
    matrix, first_line = read_csv_matrix(path, header=header)
    return VectorSample(vectors=matrix, kind=kind, source=path, first_line=first_line)


def _check_dims(ref: VectorSample, window: VectorSample) -> None:
    if ref.dim != window.dim:
        raise ValueError(
            f"dimension mismatch: reference d={ref.dim}, window d={window.dim}"
        )


def detect_ks(ref: VectorSample, window: VectorSample, alpha: float) -> TestResult:
    """Per-dimension KS tests aggregated with a Bonferroni correction.

    Rejects when the minimal per-dimension p-value is below alpha / d,
    i.e. when the aggregate p-value min(1, d * min_p) is below alpha.
    """
    _check_dims(ref, window)
    d = ref.dim
    statistics = np.empty(d)
    p_values = np.empty(d)
    for j in range(d):
        result = ks_two_sample(ref.vectors[:, j], window.vectors[:, j])
        statistics[j] = result.statistic
        p_values[j] = result.p_value
    argmin_dim = int(np.argmin(p_values))
    min_p = float(p_values[argmin_dim])
    aggregate_p = min(1.0, d * min_p)
    return TestResult(
        statistic=float(statistics.max()),
        p_value=aggregate_p,
        method="ks_bonferroni",
        detail={
            "dimensions": d,
            "argmin_dimension": argmin_dim,
            "min_p": min_p,
            "reject": min_p < alpha / d,
            "alpha": alpha,
        },
    )


def detect_mmd(
    ref: VectorSample,
    window: VectorSample,
    alpha: float,
    n_permutations: int = 100,
    seed: int = 0,
) -> TestResult:
    """MMD permutation test, with the reference capped by seeded subsampling."""
    _check_dims(ref, window)
    ref_rows = ref.vectors
    capped = len(ref) > MMD_REF_CAP_DEFAULT
    if capped:
        idx = substream(seed, 0).choice(len(ref), size=MMD_REF_CAP_DEFAULT, replace=False)
        ref_rows = ref.vectors[np.sort(idx)]
    inner = permutation_test_mmd(
        ref_rows, window.vectors, n_permutations=n_permutations, seed=seed
    )
    detail = dict(inner.detail)
    detail.update(
        {
            "ref_rows_used": int(ref_rows.shape[0]),
            "ref_cap": MMD_REF_CAP_DEFAULT,
            "capped": capped,
            "reject": inner.p_value < alpha,
            "alpha": alpha,
        }
    )
    return TestResult(inner.statistic, inner.p_value, "mmd_permutation", detail)


def detect_single_instance(
    ref_scores: ScoreSample,
    window_scores: ScoreSample,
    alpha: float,
    estimator: SingleInstanceEstimator,
) -> TestResult:
    """Welch two-sample t-test between reference and window score populations.

    Both samples must carry the same kappa label; when that label names a
    confidence function it must also match the claimed estimator.
    raw_passthrough scores are accepted as caller-asserted.
    """
    if ref_scores.kappa_name != window_scores.kappa_name:
        raise ValueError(
            f"estimator mismatch: reference kappa {ref_scores.kappa_name!r} vs "
            f"window kappa {window_scores.kappa_name!r}"
        )
    kappa = ref_scores.kappa_name
    if kappa != ConfidenceFunction.RAW_PASSTHROUGH.value and kappa != estimator.kappa_name:
        raise ValueError(
            f"estimator mismatch: scores carry kappa {kappa!r} but "
            f"estimator {estimator.value!r} expects {estimator.kappa_name!r}"
        )
    inner = t_test_two_sample_welch(ref_scores.scores, window_scores.scores)
    detail = dict(inner.detail)
    detail.update({"estimator": estimator.value, "reject": inner.p_value < alpha, "alpha": alpha})
    return TestResult(inner.statistic, inner.p_value, f"single_{estimator.value}", detail)
