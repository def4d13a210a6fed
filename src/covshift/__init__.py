"""Coverage-bound distribution shift detection for model monitoring.

Fits guaranteed-coverage selective-prediction bounds on a detection-
training sample of confidence scores and flags production windows whose
empirical coverage violates those bounds. Ships the classic two-sample
baselines (KS + Bonferroni, MMD permutation test, single-instance
t-tests), threshold-curve metrics, synthetic generators, and a scaling
benchmark behind one CLI.
"""

from .baselines import (
    SingleInstanceEstimator,
    VectorKind,
    VectorSample,
    detect_ks,
    detect_mmd,
    detect_single_instance,
    load_vectors,
)
from .bounds import BoundQuery, BoundResult, binomial_cdf, solve_bound
from .detector import (
    DetectionReport,
    DetectorModel,
    ModelFormatError,
    detect,
    fit,
    load_model,
    save_model,
)
from .eval import (
    LabeledPValues,
    TrialPlan,
    aupr,
    auroc,
    detection_error_and_fpr_at_95tpr,
    gen_scores,
    gen_vectors,
    run_trials,
)
from .scores import ConfidenceFunction, ScoreSample, load_scores
from .sgc import CoverageBound, SgcConfig, run_sgc
from .stats import (
    TestResult,
    incomplete_beta,
    ks_two_sample,
    make_rng,
    median_heuristic_bandwidth,
    permutation_test_mmd,
    student_t_cdf,
    substream,
    t_test_two_sample_welch,
)

__version__ = "0.1.0"

__all__ = [
    "BoundQuery",
    "BoundResult",
    "ConfidenceFunction",
    "CoverageBound",
    "DetectionReport",
    "DetectorModel",
    "LabeledPValues",
    "ModelFormatError",
    "ScoreSample",
    "SgcConfig",
    "SingleInstanceEstimator",
    "TestResult",
    "TrialPlan",
    "VectorKind",
    "VectorSample",
    "aupr",
    "auroc",
    "binomial_cdf",
    "detect",
    "detect_ks",
    "detect_mmd",
    "detect_single_instance",
    "detection_error_and_fpr_at_95tpr",
    "fit",
    "gen_scores",
    "gen_vectors",
    "incomplete_beta",
    "ks_two_sample",
    "load_model",
    "load_scores",
    "load_vectors",
    "make_rng",
    "median_heuristic_bandwidth",
    "permutation_test_mmd",
    "run_sgc",
    "run_trials",
    "save_model",
    "solve_bound",
    "student_t_cdf",
    "substream",
    "t_test_two_sample_welch",
]
