"""Comparison detectors behind one window-level interface.

detect_ks, detect_single_instance and detect_mmd are the one-shot
two-sample tests the source paper compares against: every detection
consumes the full retained reference sample (the seeded MMD subsample
cap is the one documented exception, mirroring kernel-size limits).
This is exactly the property the complexity benchmark (covshift bench)
measures against.

The reference is a sample object: a VectorSample, or a ScoreSample whose
kappa label the single-instance test checks against its estimator. The
window is a bare NumPy array, (k, d) for KS and MMD and 1-D for the
single-instance test. Only a KS window's shape is checked here: each stats
kernel refuses NaN, +/-inf and overflow itself, with no numpy warning.

detect_ks calls stats.ks_two_sample per column, which sorts the
reference column and then calls stats.ks_against_sorted.
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

from .scores import (
    ConfidenceFunction, ScoreSample, _frozen_array, read_csv_matrix, validate_softmax_rows,
)
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
        arr = _frozen_array(self.vectors)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("vector sample must be a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector sample contains non-finite entries")
        if self.kind is VectorKind.SOFTMAX:
            validate_softmax_rows(arr, source, first_line)
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


def _check_window(d: int, window: np.ndarray) -> None:
    # The KS loops' (k, d) shape only: ks_against_sorted refuses NaN and +/-inf.
    if window.ndim != 2 or window.shape[1] != d:
        raise ValueError(f"dimension mismatch: window shape {window.shape}, reference d={d}")


def detect_ks(ref: VectorSample, window: np.ndarray) -> TestResult:
    """Per-dimension KS tests aggregated with a Bonferroni correction.

    The p-value is min(1, d * min_p), min_p being the smallest of the d
    per-dimension p-values; detail holds min_p and argmin_dimension, the
    first dimension that has it.
    """
    _check_window(ref.dim, window)
    return _bonferroni([ks_two_sample(ref.vectors[:, j], window[:, j]) for j in range(ref.dim)])


def sort_columns(ref: VectorSample) -> np.ndarray:
    """The reference's columns as one C-contiguous (d, m) array, each row ascending.

    np.sort of the transposed view would keep its column-major layout, so
    every row would be strided; one C-ordered copy sorted in place is the
    only full-size array made.
    """
    columns = np.array(ref.vectors.T, order="C")
    columns.sort(axis=1)
    return columns


def detect_ks_sorted(columns: np.ndarray, window: np.ndarray) -> TestResult:
    """detect_ks against the reference columns from sort_columns(ref), bit for bit."""
    _check_window(columns.shape[0], window)
    return _bonferroni(
        [ks_against_sorted(column, window[:, j]) for j, column in enumerate(columns)]
    )


def _bonferroni(results: list[TestResult]) -> TestResult:
    argmin_dim = min(range(len(results)), key=lambda j: results[j].p_value)
    min_p = results[argmin_dim].p_value
    return TestResult(
        statistic=max(r.statistic for r in results),
        p_value=min(1.0, len(results) * min_p),
        detail={"argmin_dimension": argmin_dim, "min_p": min_p},
    )


def detect_mmd(
    ref: VectorSample,
    window: np.ndarray,
    n_permutations: int,
    seed: int = 0,
) -> TestResult:
    """MMD permutation test, with the reference capped by seeded subsampling."""
    ref_rows = ref.vectors
    if len(ref) > MMD_REF_CAP_DEFAULT:
        idx = substream(seed, 0).choice(len(ref), size=MMD_REF_CAP_DEFAULT, replace=False)
        ref_rows = ref.vectors[np.sort(idx)]
    return permutation_test_mmd(ref_rows, window, n_permutations=n_permutations, seed=seed)


def detect_single_instance(
    ref_scores: ScoreSample,
    window: np.ndarray,
    estimator: SingleInstanceEstimator,
) -> TestResult:
    """Welch two-sample t-test between the reference scores and a 1-D window.

    The reference's kappa label must match the claimed estimator;
    raw_passthrough scores are accepted as caller-asserted.
    """
    estimator.check_kappa(ref_scores.kappa_name)
    return t_test_two_sample_welch(ref_scores.scores, window)
