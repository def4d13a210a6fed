"""Coverage-bound distribution shift detection for model monitoring.

Fits guaranteed-coverage selective-prediction bounds on a detection-
training sample of confidence scores and flags production windows whose
empirical coverage violates those bounds. Ships the classic two-sample
baselines (KS + Bonferroni, MMD permutation test, single-instance
t-tests), threshold-curve metrics, synthetic generators, and a scaling
benchmark behind one CLI.
"""

from importlib import import_module

from .bounds import binomial_cdf, solve_bound
from .detector import (
    DetectionReport,
    DetectorModel,
    ModelFormatError,
    detect,
    fit,
    load_model,
    save_model,
)
from .scores import ConfidenceFunction, ScoreSample, load_scores
from .sgc import CoverageBound, run_sgc
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

# The baselines and the evaluation harness serve neither fitting nor
# detection, so these modules and their names are imported on first
# access (PEP 562): `covshift fit` and `covshift detect` never load them.
_LAZY = {
    "baselines": (
        "SingleInstanceEstimator",
        "VectorKind",
        "VectorSample",
        "detect_ks",
        "detect_mmd",
        "detect_single_instance",
        "load_vectors",
    ),
    "eval": (
        "LabeledPValues",
        "TrialPlan",
        "aupr",
        "auroc",
        "detection_error_and_fpr_at_95tpr",
        "gen_scores",
        "gen_vectors",
        "run_trials",
    ),
}
_LAZY_MODULE = {
    name: module for module, names in _LAZY.items() for name in (module, *names)
}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    # Cached as a plain attribute, so later lookups bypass this function.
    globals()[name] = value
    return value


__all__ = [
    "ConfidenceFunction",
    "CoverageBound",
    "DetectionReport",
    "DetectorModel",
    "LabeledPValues",
    "ModelFormatError",
    "ScoreSample",
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
