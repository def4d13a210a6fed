"""Coverage-based shift detector.

Fitting applies SGC once per target coverage on a uniformly spread grid
over [0.1, 1) and keeps the resulting (bound, threshold) pairs. Detection
computes the bound-violation statistic V over a window and runs a
one-sided one-sample t-test on the per-instance violation terms; the
window is flagged as shifted when the p-value falls below alpha.

A fitted model is a handful of scalars, so detection cost depends only on
the window size, never on the size of the detection-training sample.
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scores import ScoreSample
from .sgc import CoverageBound, SgcConfig, run_sgc
from .stats import student_t_cdf

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_DELTA",
    "DEFAULT_C_TARGET_COUNT",
    "ModelFormatError",
    "DetectorModel",
    "CoverageCheck",
    "DetectionReport",
    "coverage_grid",
    "fit",
    "violation_terms",
    "detect",
    "save_model",
    "load_model",
    "write_atomic",
]

FORMAT_VERSION = 1

DEFAULT_DELTA = 0.01
DEFAULT_C_TARGET_COUNT = 10

_COVERAGE_GRID_LO = 0.1
_COVERAGE_GRID_HI = 1.0


class ModelFormatError(ValueError):
    """Raised for malformed or version-incompatible model files."""


@dataclass(frozen=True)
class DetectorModel:
    """Fitted set of coverage bounds plus the fit configuration."""

    pairs: tuple[CoverageBound, ...]
    delta: float
    c_target_count: int
    kappa_name: str
    m: int
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        if len(self.pairs) != self.c_target_count:
            raise ValueError(
                f"expected {self.c_target_count} coverage pairs, got {len(self.pairs)}"
            )
        targets = [p.c_target for p in self.pairs]
        if any(not _COVERAGE_GRID_LO <= c < _COVERAGE_GRID_HI for c in targets):
            raise ValueError(f"c_targets must lie in [0.1, 1), got {targets}")
        if any(prev >= nxt for prev, nxt in zip(targets, targets[1:])):
            raise ValueError(f"c_targets must be strictly increasing, got {targets}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")


class CoverageCheck(NamedTuple):
    c_target: float
    b_star: float
    empirical_coverage: float
    violated: bool


@dataclass(frozen=True)
class DetectionReport:
    """Verdict for one window: V, p-value, and per-coverage diagnostics."""

    v_statistic: float
    p_value: float
    shift_detected: bool
    per_coverage: tuple[CoverageCheck, ...]
    window_size: int


def coverage_grid(c_target_count: int) -> list[float]:
    """c_target_count coverages uniformly spread over [0.1, 1), endpoint excluded."""
    if c_target_count < 1:
        raise ValueError(f"c_target_count must be >= 1, got {c_target_count}")
    step = (_COVERAGE_GRID_HI - _COVERAGE_GRID_LO) / c_target_count
    return [_COVERAGE_GRID_LO + j * step for j in range(c_target_count)]


def fit(
    sample: ScoreSample,
    delta: float = DEFAULT_DELTA,
    c_target_count: int = DEFAULT_C_TARGET_COUNT,
) -> DetectorModel:
    """Fit coverage bounds on a detection-training sample.

    Each target coverage gets its own SGC run at full confidence delta
    (the delta/k split happens inside SGC across its iterations); all runs
    share one sort of the sample.
    """
    sorted_scores = np.sort(sample.scores)
    pairs = tuple(
        run_sgc(sorted_scores, SgcConfig(delta=delta, target_coverage=c))
        for c in coverage_grid(c_target_count)
    )
    return DetectorModel(
        pairs=pairs,
        delta=delta,
        c_target_count=c_target_count,
        kappa_name=sample.kappa_name,
        m=len(sample),
    )


def _violation_matrix(
    model: DetectorModel, window: ScoreSample
) -> tuple[np.ndarray, tuple[CoverageCheck, ...]]:
    if window.kappa_name != model.kappa_name:
        raise ValueError(
            f"window kappa {window.kappa_name!r} does not match "
            f"model kappa {model.kappa_name!r}"
        )
    scores = window.scores
    k = scores.size
    terms = np.zeros((len(model.pairs), k))
    checks = []
    for j, pair in enumerate(model.pairs):
        selected = (scores >= pair.theta).astype(np.float64)
        c_hat = float(selected.mean())
        violated = c_hat <= pair.b_star
        if violated:
            terms[j] = pair.b_star - selected
        checks.append(CoverageCheck(pair.c_target, pair.b_star, c_hat, violated))
    return terms, tuple(checks)


def violation_terms(model: DetectorModel, window: ScoreSample) -> np.ndarray:
    """Per-coverage, per-instance bound-violation terms; their mean is V.

    For each coverage j the window's empirical coverage is compared with
    the fitted bound; a violated coverage (c_hat <= b*, equality counts)
    contributes (b*_j - g_j(x_i)) for every window instance i, a held
    coverage contributes zeros. The flattened k * C_target values are
    ordered coverage-major.
    """
    terms, _ = _violation_matrix(model, window)
    return terms.ravel()


def detect(model: DetectorModel, window: ScoreSample, alpha: float) -> DetectionReport:
    """Test one window for distribution shift at significance alpha.

    One-sided one-sample t-test of the k per-instance violation means
    (each instance's violation terms averaged across coverages) against
    zero. Testing at instance granularity respects the strong dependence
    between coverages within one window; pooling all k * C_target terms
    as i.i.d. would reject far above alpha on in-distribution windows.
    An all-identical vector degenerates to p = 1 when the mean is <= 0
    and p = 0 otherwise.
    """
    if len(window) < 2:
        raise ValueError(f"window must contain k >= 2 scores, got k={len(window)}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    terms, checks = _violation_matrix(model, window)
    per_instance = terms.mean(axis=0)
    n = per_instance.size
    mean = float(per_instance.mean())
    if mean < -1e-9:
        raise AssertionError(f"violation statistic must be nonnegative, got {mean}")
    v = max(0.0, mean)
    sd = float(per_instance.std(ddof=1))
    if sd == 0.0:
        p = 1.0 if mean <= 0.0 else 0.0
    else:
        t = mean / (sd / math.sqrt(n))
        p = 1.0 - student_t_cdf(t, n - 1)
    return DetectionReport(
        v_statistic=v,
        p_value=p,
        shift_detected=p < alpha,
        per_coverage=checks,
        window_size=len(window),
    )


def _model_payload(model: DetectorModel) -> dict:
    return {
        "format_version": model.format_version,
        "kappa_name": model.kappa_name,
        "delta": model.delta,
        "c_target_count": model.c_target_count,
        "m": model.m,
        "pairs": [
            {
                "c_target": p.c_target,
                "b_star": p.b_star,
                "theta": p.theta,
                "iterations": p.iterations,
                "empirical_coverage_at_fit": p.empirical_coverage_at_fit,
            }
            for p in model.pairs
        ],
    }


def save_model(model: DetectorModel, path: str) -> None:
    """Write the model as versioned JSON, atomically (temp file + rename).

    Floats round-trip exactly: json emits shortest-round-trip decimal
    representations (up to 17 significant digits).
    """
    write_atomic(path, json.dumps(_model_payload(model), indent=2) + "\n")


def _new_file_mode(path: str) -> int:
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file in the same directory and a rename.

    The file keeps the mode of the file it replaces, or gets the mode a
    plain open() would give it (0o666 less the umask); mkstemp's 0600
    would otherwise survive the rename. The data is synced to disk before
    the rename.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        os.fchmod(fd, _new_file_mode(path))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def load_model(path: str) -> DetectorModel:
    """Load a model file, checking format version and invariants."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from None
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: model file must hold a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        pairs = tuple(
            CoverageBound(
                c_target=float(p["c_target"]),
                b_star=float(p["b_star"]),
                theta=float(p["theta"]),
                iterations=int(p["iterations"]),
                empirical_coverage_at_fit=float(p["empirical_coverage_at_fit"]),
            )
            for p in payload["pairs"]
        )
        model = DetectorModel(
            pairs=pairs,
            delta=float(payload["delta"]),
            c_target_count=int(payload["c_target_count"]),
            kappa_name=str(payload["kappa_name"]),
            m=int(payload["m"]),
            format_version=int(version),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from None
    return model
