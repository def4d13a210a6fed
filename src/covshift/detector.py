"""Coverage-based shift detector.

Fitting applies SGC once per target coverage on a uniformly spread grid
over [0.1, 1) and keeps the resulting (bound, threshold) pairs. Detection
counts a window's scores into the bins between the distinct thresholds,
reads from those counts the violation statistic V (the mean violation
gap) and a one-sided one-sample t-test on the per-instance violation
means, and flags the window as shifted when the p-value falls below alpha.

A fitted model is a handful of scalars, so detection cost depends only on
the window size, never on the size of the detection-training sample, and
the statistic does not depend on the order of the window's scores.
"""

from __future__ import annotations

import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .scores import ConfidenceFunction, ScoreSample
from .sgc import CoverageBound, run_sgc
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
    """Fitted set of coverage bounds plus the fit configuration.

    edges holds the D distinct thresholds in ascending order, selected is
    a (C, D + 1) 0/1 int64 table whose row j marks the bins at or above
    theta_j, b_stars holds the bounds and c_targets the target coverages.
    All are read-only, built from pairs when the model is made, and left
    out of ==, hash, repr and the file.
    """

    pairs: tuple[CoverageBound, ...]
    delta: float
    kappa_name: str
    m: int
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    selected: np.ndarray = field(init=False, repr=False, compare=False)
    b_stars: np.ndarray = field(init=False, repr=False, compare=False)
    c_targets: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        thresholds = [p.theta for p in self.pairs]
        # sorted(set()) rather than np.unique, whose first call imports numpy.ma.
        edges = np.array(sorted(set(thresholds)))
        # Bin i holds the scores at or above edges[:i] and below edges[i:],
        # so theta_j selects every bin past its own edge.
        first = np.searchsorted(edges, thresholds, side="right")
        selected = (np.arange(edges.size + 1) >= first[:, None]).astype(np.int64)
        b_stars = np.array([p.b_star for p in self.pairs])
        for array in (edges, selected, b_stars):
            array.flags.writeable = False
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "b_stars", b_stars)
        object.__setattr__(self, "c_targets", tuple(targets))

    def __reduce__(self):
        # Unpickle and copy through __init__, so the arrays are rebuilt read-only.
        return (DetectorModel, (self.pairs, self.delta, self.kappa_name, self.m))


class CoverageCheck(NamedTuple):
    c_target: float
    b_star: float
    empirical_coverage: float
    violated: bool


# CoverageCheck from a 4-tuple without the Python-level __new__ that
# CoverageCheck(...) runs: detect builds one per coverage per window.
_new_check = partial(tuple.__new__, CoverageCheck)


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
    pairs = tuple(run_sgc(sorted_scores, delta, c) for c in coverage_grid(c_target_count))
    return DetectorModel(pairs=pairs, delta=delta, kappa_name=sample.kappa_name, m=len(sample))


def detect(model: DetectorModel, window: ScoreSample, alpha: float) -> DetectionReport:
    """Test one window for distribution shift at significance alpha.

    The k window scores are counted into the bins between the model's
    distinct thresholds. Coverage j's empirical coverage c_hat_j is its
    selected count (scores >= theta_j) over k; it is violated when c_hat_j
    <= b*_j, equality included. V is the mean violation gap: b*_j - c_hat_j
    summed over the violated coverages, over C.

    Instance i's violation mean is (sum of the violated b* - s_i) / C, where
    s_i counts the violated coverages that select it; those means average
    to V. The test is a one-sided one-sample t-test of the k means against
    zero, with their spread read exactly from the counts. Testing at
    instance granularity respects the strong dependence between coverages
    within one window; pooling all k * C terms as i.i.d. would reject far
    above alpha on in-distribution windows. Equal means (every s_i alike)
    give p = 1 when V is 0 and p = 0 otherwise.
    """
    n = len(window)
    if n < 2:
        raise ValueError(f"window must contain k >= 2 scores, got k={n}")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if window.kappa_name != model.kappa_name:
        raise ValueError(
            f"window kappa {window.kappa_name!r} does not match "
            f"model kappa {model.kappa_name!r}"
        )
    edges, selected, b_stars = model.edges, model.selected, model.b_stars
    counts = np.bincount(np.searchsorted(edges, window.scores, "right"), minlength=edges.size + 1)
    # Integer operands go through @, exact in any order; floats are summed
    # only with np.add.reduce, whose order a row of a batch would share.
    c_hat = (selected @ counts) / n
    violated = c_hat <= b_stars
    c = b_stars.size
    v = float(np.add.reduce(np.where(violated, b_stars - c_hat, 0.0)) / c)
    s = violated @ selected
    sum_s = int(counts @ s)
    # k^2 (k - 1) times the variance of the s_i, a Python int at any k.
    spread = n * int(counts @ (s * s)) - sum_s * sum_s
    if spread == 0:
        p = 1.0 if v == 0.0 else 0.0
    else:
        # The means have sd sqrt(spread / (k (k - 1))) / C, so t = V sqrt(k) / sd.
        t = v * (c * n) * math.sqrt((n - 1) / spread)
        # Upper tail as the CDF at -t: 1 - cdf(t) rounds to 0 below about 1e-16.
        p = student_t_cdf(-t, n - 1)
    rows = zip(model.c_targets, b_stars.tolist(), c_hat.tolist(), violated.tolist())
    return DetectionReport(
        v_statistic=v,
        p_value=p,
        shift_detected=p < alpha,
        per_coverage=tuple(map(_new_check, rows)),
        window_size=n,
    )


# The keys of one coverage pair in a model file, in file order, with the
# type each value must have.
_PAIR_KEYS = {
    "c_target": float,
    "b_star": float,
    "theta": float,
    "iterations": int,
    "empirical_coverage_at_fit": float,
}


def _model_payload(model: DetectorModel) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kappa_name": model.kappa_name,
        "delta": model.delta,
        "c_target_count": len(model.pairs),
        "m": model.m,
        "pairs": [{key: getattr(p, key) for key in _PAIR_KEYS} for p in model.pairs],
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


# A count must be an integer literal: int() would truncate 500.9 and accept
# true. float() would also take the string "0.5" and true, so a real must be
# a number literal.
_JSON_TYPES = {int: ((int,), "integer"), float: ((int, float), "number"), str: ((str,), "string")}


def _json_value(obj: dict, key: str, kind: type):
    value = obj[key]
    allowed, name = _JSON_TYPES[kind]
    if type(value) not in allowed:
        raise TypeError(f"{key} must be a JSON {name}, got {value!r}")
    return kind(value)


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
            CoverageBound(**{key: _json_value(p, key, kind) for key, kind in _PAIR_KEYS.items()})
            for p in _json_pairs(payload["pairs"])
        )
        count = _json_value(payload, "c_target_count", int)
        if count != len(pairs):
            raise ValueError(f"expected {count} coverage pairs, got {len(pairs)}")
        kappa_name = _json_value(payload, "kappa_name", str)
        model = DetectorModel(
            pairs=pairs,
            delta=_json_value(payload, "delta", float),
            kappa_name=kappa_name,
            m=_json_value(payload, "m", int),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed model file: {exc}") from None
    return model
