"""Coverage-based shift detector.

Fitting applies SGC once per target coverage on a uniformly spread grid
over [0.1, 1) and keeps the resulting (bound, threshold) pairs. Detection
counts the window's scores at or above each threshold, reads from those
counts the violation statistic V (the mean violation gap) and a one-sided
one-sample t-test on the per-instance violation means, and flags the
window as shifted when the p-value falls below alpha.

A fitted model is a handful of scalars, so detection cost depends only on
the window size, never on the size of the detection-training sample, and
the statistic does not depend on the order of the window's scores.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
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
    "violation_statistic",
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

    thetas holds the thresholds, b_stars the bounds and c_targets the
    target coverages, in the order of the pairs. All are read-only, built
    from pairs when the model is made, and left out of ==, hash, repr and
    the file.
    """

    pairs: tuple[CoverageBound, ...]
    delta: float
    kappa_name: str
    m: int
    thetas: np.ndarray = field(init=False, repr=False, compare=False)
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
        thetas = np.array([p.theta for p in self.pairs], dtype=np.float64)
        b_stars = np.array([p.b_star for p in self.pairs])
        for array in (thetas, b_stars):
            array.flags.writeable = False
        object.__setattr__(self, "thetas", thetas)
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

    The statistic is violation_statistic's; the report adds the verdict
    p < alpha and one CoverageCheck per coverage.
    """
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    if window.kappa_name != model.kappa_name:
        raise ValueError(
            f"window kappa {window.kappa_name!r} does not match "
            f"model kappa {model.kappa_name!r}"
        )
    c_hat, violated, v, p = violation_statistic(model, window.scores)
    rows = zip(model.c_targets, model.b_stars.tolist(), c_hat.tolist(), violated.tolist())
    return DetectionReport(
        v_statistic=v,
        p_value=p,
        shift_detected=p < alpha,
        per_coverage=tuple(map(_new_check, rows)),
        window_size=len(window),
    )


def violation_statistic(
    model: DetectorModel, scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """c_hat, violated, V and the p-value of a 1-D array of k >= 2 finite scores.

    Coverage j selects the N_j scores at or above theta_j, read from one
    sort of the window. Its empirical coverage c_hat_j is N_j / k; it is
    violated when c_hat_j <= b*_j, equality included. V is the mean
    violation gap: b*_j - c_hat_j summed over the violated coverages, over C.

    Instance i's violation mean is (sum of the violated b* - s_i) / C, where
    s_i counts the violated coverages that select it; those means average
    to V. The test is a one-sided one-sample t-test of the k means against
    zero, with their spread read exactly from the counts. Testing at
    instance granularity respects the strong dependence between coverages
    within one window; pooling all k * C terms as i.i.d. would reject far
    above alpha on in-distribution windows. Equal means (every s_i alike)
    give p = 1 when V is 0 and p = 0 otherwise. Nothing depends on the
    order of the scores.
    """
    if scores.ndim != 1:
        raise ValueError(f"window must be a 1-D array of scores, got shape {scores.shape}")
    n = scores.size
    if n < 2:
        raise ValueError(f"window must contain k >= 2 scores, got k={n}")
    # The method calls skip np.sort's and np.searchsorted's Python wrappers.
    ordered = scores.copy()
    ordered.sort()
    # NaN sorts last and -inf first, so the two ends show any non-finite score.
    if not (-math.inf < ordered[0] and ordered[-1] < math.inf):
        raise ValueError("window contains NaN or infinite scores")
    b_stars = model.b_stars
    # N_j: the scores from the first one at or above theta_j on.
    counts = n - ordered.searchsorted(model.thetas, "left")
    # Integer sums are exact in any order (Python ints here, @ in a batch);
    # floats are summed only with np.add.reduce, whose order a row of a
    # batch would share.
    c_hat = counts / n
    violated = c_hat <= b_stars
    c = b_stars.size
    # b* - c_hat is >= +0 exactly on the violated coverages, so clipping it
    # at 0 gives the gaps there and 0 elsewhere.
    v = float(np.add.reduce(np.maximum(b_stars - c_hat, 0.0)) / c)
    # s_i counts the violated coverages that select instance i. The selected
    # sets are nested, so coverages j and l both select min(N_j, N_l)
    # instances, and sum_i s_i^2 sums that over the ordered pairs (j, l) of
    # violated coverages. With the u violated counts x ascending, x_i is the
    # minimum of 2 (u - i) - 1 of those pairs (i from 0), which sums to
    # twice the sum of the prefix sums of x, less the sum of x.
    chosen = sorted(counts[violated].tolist())
    sum_s = sum(chosen)
    sum_s2 = 2 * sum(accumulate(chosen)) - sum_s
    # k^2 (k - 1) times the variance of the s_i, exact at any k.
    spread = n * sum_s2 - sum_s * sum_s
    if spread == 0:
        p = 1.0 if v == 0.0 else 0.0
    else:
        # The means have sd sqrt(spread / (k (k - 1))) / C, so t = V sqrt(k) / sd.
        t = v * (c * n) * math.sqrt((n - 1) / spread)
        # Upper tail as the CDF at -t: 1 - cdf(t) rounds to 0 below about 1e-16.
        p = student_t_cdf(-t, n - 1)
    return c_hat, violated, v, p


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


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temp file in the same directory and a rename.

    The temp file is created with the mode a plain open() would give it
    (0o666 less the umask, applied by the kernel), or takes the mode of
    the file it replaces. The data is synced to disk before the rename.
    An OSError that names the temp file (a missing directory, a path that
    is a directory) is raised again naming path.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                try:
                    os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
                except FileNotFoundError:
                    pass
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        if exc.filename != tmp_path:
            raise
        raise type(exc)(exc.errno, exc.strerror, path) from None


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
    """Load a model file, checking format version and invariants.

    A leading UTF-8 byte-order mark is skipped; one anywhere else makes
    the file malformed.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
