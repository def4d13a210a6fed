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

from .scores import ConfidenceFunction, ScoreSample
from .sgc import CoverageBound, SgcConfig, run_sgc
from .stats import student_t_cdf

__all__ = [
    "FORMAT_VERSION",
    "DEFAULT_DELTA",
    "DEFAULT_ALPHA",
    "DEFAULT_C_TARGET_COUNT",
    "ModelFormatError",
    "DetectorModel",
    "CoverageCheck",
    "DetectionReport",
    "coverage_grid",
    "fit",
    "detect",
    "save_model",
    "load_model",
    "write_atomic",
]

FORMAT_VERSION = 1

DEFAULT_DELTA = 0.01
DEFAULT_ALPHA = 0.05
DEFAULT_C_TARGET_COUNT = 10

_COVERAGE_GRID_LO = 0.1
_COVERAGE_GRID_HI = 1.0

_KAPPA_NAMES = tuple(cf.value for cf in ConfidenceFunction)


class ModelFormatError(ValueError):
    """Raised for malformed or version-incompatible model files."""


@dataclass(frozen=True)
class DetectorModel:
    """Fitted set of coverage bounds plus the fit configuration."""

    pairs: tuple[CoverageBound, ...]
    delta: float
    kappa_name: str
    m: int

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("a model needs at least one coverage pair")
        targets = [p.c_target for p in self.pairs]
        if any(not _COVERAGE_GRID_LO <= c < _COVERAGE_GRID_HI for c in targets):
            raise ValueError(f"c_targets must lie in [0.1, 1), got {targets}")
        if any(prev >= nxt for prev, nxt in zip(targets, targets[1:])):
            raise ValueError(f"c_targets must be strictly increasing, got {targets}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.kappa_name not in _KAPPA_NAMES:
            raise ValueError(
                f"kappa_name must be one of {', '.join(_KAPPA_NAMES)}, got {self.kappa_name!r}"
            )
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
    return DetectorModel(pairs=pairs, delta=delta, kappa_name=sample.kappa_name, m=len(sample))


def detect(model: DetectorModel, window: ScoreSample, alpha: float) -> DetectionReport:
    """Test one window for distribution shift at significance alpha.

    For each coverage j the window's empirical coverage c_hat_j at the
    fitted threshold is compared with the fitted bound b*_j. A violated
    coverage (c_hat_j <= b*_j, equality counts) contributes the term
    b*_j - g_j(x_i) for every window instance i, where g_j(x_i) is 1 when
    the score is selected (>= theta_j) and 0 otherwise; a held coverage
    contributes zeros. V is the mean of all k * C_target terms.

    The test is a one-sided one-sample t-test of the k per-instance
    violation means (each instance's terms averaged across coverages)
    against zero. Testing at instance granularity respects the strong
    dependence between coverages within one window; pooling all
    k * C_target terms as i.i.d. would reject far above alpha on
    in-distribution windows. An all-identical vector degenerates to
    p = 1 when the mean is <= 0 and p = 0 otherwise.
    """
    if len(window) < 2:
        raise ValueError(f"window must contain k >= 2 scores, got k={len(window)}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if window.kappa_name != model.kappa_name:
        raise ValueError(
            f"window kappa {window.kappa_name!r} does not match "
            f"model kappa {model.kappa_name!r}"
        )
    thetas = np.array([p.theta for p in model.pairs])
    b_stars = np.array([p.b_star for p in model.pairs])
    selected = window.scores >= thetas[:, None]
    c_hat = selected.mean(axis=1)
    violated = c_hat <= b_stars
    per_instance = np.where(violated[:, None], b_stars[:, None] - selected, 0.0).mean(axis=0)
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
    checks = tuple(
        CoverageCheck(pair.c_target, pair.b_star, c, viol)
        for pair, c, viol in zip(model.pairs, c_hat.tolist(), violated.tolist())
    )
    return DetectionReport(
        v_statistic=v,
        p_value=p,
        shift_detected=p < alpha,
        per_coverage=checks,
        window_size=len(window),
    )


def _model_payload(model: DetectorModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kappa_name": model.kappa_name,
        "delta": model.delta,
        "c_target_count": len(model.pairs),
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


def _json_int(value: object, name: str) -> int:
    # A count must be an integer literal: int() would truncate 500.9 and accept true.
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_number(value: object, name: str) -> float:
    # float() would also take the string "0.5" and true; a real must be a number literal.
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _json_pairs(value: object) -> list:
    if not isinstance(value, list) or not all(isinstance(p, dict) for p in value):
        raise TypeError("pairs must be a JSON list of objects")
    return value


def load_model(path: str) -> DetectorModel:
    """Load a model file, checking format version and invariants."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}") from None
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: model file must hold a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    try:
        pairs = tuple(
            CoverageBound(
                c_target=_json_number(p["c_target"], "c_target"),
                b_star=_json_number(p["b_star"], "b_star"),
                theta=_json_number(p["theta"], "theta"),
                iterations=_json_int(p["iterations"], "iterations"),
                empirical_coverage_at_fit=_json_number(
                    p["empirical_coverage_at_fit"], "empirical_coverage_at_fit"
                ),
            )
            for p in _json_pairs(payload["pairs"])
        )
        count = _json_int(payload["c_target_count"], "c_target_count")
        if count != len(pairs):
            raise ValueError(f"expected {count} coverage pairs, got {len(pairs)}")
        kappa_name = payload["kappa_name"]
        if type(kappa_name) is not str:
            raise TypeError(f"kappa_name must be a JSON string, got {kappa_name!r}")
        model = DetectorModel(
            pairs=pairs,
            delta=_json_number(payload["delta"], "delta"),
            kappa_name=kappa_name,
            m=_json_int(payload["m"], "m"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from None
    return model
