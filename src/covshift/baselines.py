"""Comparison detectors behind one window-level interface.

detect_ks, detect_single_instance and detect_mmd are the one-shot
two-sample tests the source paper compares against: every detection
consumes the full retained reference sample (the seeded MMD subsample
cap is the one documented exception, mirroring kernel-size limits).
This is exactly the property the complexity benchmark (covshift bench)
measures against.

detect_ks_sorted is the fitted form of detect_ks: the eval adaptors
(covshift.eval.KsMethod, SingleInstanceMethod) do their reference-only
work once when built (sort_columns; stats.welch_moments) and then cost
O(k log m) and O(k) per window, with bit-identical p-values. MMD has no
reference-only work: its subsample is drawn from each window's seed.
"""

from __future__ import annotations

import enum
from dataclasses import InitVar, dataclass

import numpy as np

from .scores import ConfidenceFunction, ScoreSample, read_csv_matrix, validate_softmax_rows
from .stats import (
    TestResult,
    ks_against_sorted,
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
    "sort_columns",
    "detect_ks",
    "detect_ks_sorted",
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

    def check_kappa(self, kappa_name: str) -> None:
        """Reject scores whose kappa label names another confidence function.

        raw_passthrough scores are accepted as caller-asserted.
        """
        if kappa_name != ConfidenceFunction.RAW_PASSTHROUGH.value and kappa_name != self.kappa_name:
            raise ValueError(
                f"estimator mismatch: scores carry kappa {kappa_name!r} but "
                f"estimator {self.value!r} expects {self.kappa_name!r}"
            )


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


def _check_dims(ref_dim: int, window_dim: int) -> None:
    if ref_dim != window_dim:
        raise ValueError(f"dimension mismatch: reference d={ref_dim}, window d={window_dim}")


def detect_ks(ref: VectorSample, window: VectorSample) -> TestResult:
    """Per-dimension KS tests aggregated with a Bonferroni correction.

    The p-value is min(1, d * min_p), min_p being the smallest of the d
    per-dimension p-values.
    """
    _check_dims(ref.dim, window.dim)
    return _bonferroni(
        [ks_two_sample(ref.vectors[:, j], window.vectors[:, j]) for j in range(ref.dim)]
    )


def sort_columns(ref: VectorSample) -> np.ndarray:
    """The reference's columns as one C-contiguous (d, m) array, each row ascending.

    np.sort of the transposed view would keep its column-major layout, so
    every row would be strided; one C-ordered copy sorted in place is the
    only full-size array made.
    """
    columns = np.array(ref.vectors.T, order="C")
    columns.sort(axis=1)
    return columns


def detect_ks_sorted(columns: np.ndarray, window: VectorSample) -> TestResult:
    """detect_ks against the reference columns from sort_columns(ref), bit for bit."""
    _check_dims(columns.shape[0], window.dim)
    return _bonferroni(
        [ks_against_sorted(column, window.vectors[:, j]) for j, column in enumerate(columns)]
    )


def _bonferroni(results: list[TestResult]) -> TestResult:
    d = len(results)
    statistics = np.array([r.statistic for r in results])
    p_values = np.array([r.p_value for r in results])
    argmin_dim = int(np.argmin(p_values))
    min_p = float(p_values[argmin_dim])
    return TestResult(
        statistic=float(statistics.max()),
        p_value=min(1.0, d * min_p),
        detail={"dimensions": d, "argmin_dimension": argmin_dim, "min_p": min_p},
    )


def detect_mmd(
    ref: VectorSample,
    window: VectorSample,
    n_permutations: int,
    seed: int = 0,
) -> TestResult:
    """MMD permutation test, with the reference capped by seeded subsampling."""
    _check_dims(ref.dim, window.dim)
    ref_rows = ref.vectors
    capped = len(ref) > MMD_REF_CAP_DEFAULT
    if capped:
        idx = substream(seed, 0).choice(len(ref), size=MMD_REF_CAP_DEFAULT, replace=False)
        ref_rows = ref.vectors[np.sort(idx)]
    inner = permutation_test_mmd(
        ref_rows, window.vectors, n_permutations=n_permutations, seed=seed
    )
    detail = {
        **inner.detail,
        "ref_rows_used": int(ref_rows.shape[0]),
        "ref_cap": MMD_REF_CAP_DEFAULT,
        "capped": capped,
    }
    return TestResult(inner.statistic, inner.p_value, detail)


def detect_single_instance(
    ref_scores: ScoreSample,
    window_scores: ScoreSample,
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
    estimator.check_kappa(ref_scores.kappa_name)
    inner = t_test_two_sample_welch(ref_scores.scores, window_scores.scores)
    detail = {**inner.detail, "estimator": estimator.value}
    return TestResult(inner.statistic, inner.p_value, detail)
