"""Data model for confidence scores and file ingestion.

A ScoreSample is an immutable ordered collection of per-instance
confidence scores. Scores are either supplied directly (one float per
line) or derived from softmax rows through a confidence-rate function.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SOFTMAX_SUM_TOL",
    "ConfidenceFunction",
    "ScoreSample",
    "load_scores",
]

# Accommodates probabilities exported with 4 decimal places.
SOFTMAX_SUM_TOL = 1e-4


class ConfidenceFunction(enum.Enum):
    """Confidence-rate function mapping model outputs to a scalar score."""

    SOFTMAX_RESPONSE = "softmax_response"
    ONE_MINUS_ENTROPY = "one_minus_entropy"
    RAW_PASSTHROUGH = "raw_passthrough"

    @classmethod
    def from_name(cls, name: str) -> "ConfidenceFunction":
        aliases = {
            "sr": cls.SOFTMAX_RESPONSE,
            "softmax_response": cls.SOFTMAX_RESPONSE,
            "entropy": cls.ONE_MINUS_ENTROPY,
            "one_minus_entropy": cls.ONE_MINUS_ENTROPY,
            "raw": cls.RAW_PASSTHROUGH,
            "raw_passthrough": cls.RAW_PASSTHROUGH,
        }
        try:
            return aliases[name]
        except KeyError:
            raise ValueError(f"unknown confidence function {name!r}") from None


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScoreSample:
    """Immutable ordered sample of finite confidence scores."""

    scores: np.ndarray
    kappa_name: str = ConfidenceFunction.RAW_PASSTHROUGH.value
    source_id: str = ""

    def __post_init__(self) -> None:
        arr = _frozen_array(self.scores)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("score sample must contain at least one score")
        if not np.all(np.isfinite(arr)):
            raise ValueError("score sample contains NaN or infinite entries")
        object.__setattr__(self, "scores", arr)

    def __len__(self) -> int:
        return int(self.scores.size)


def kappa_of_rows(rows: np.ndarray, cf: ConfidenceFunction) -> np.ndarray:
    """Scalar confidence score of each validated softmax row under the given CF.

    softmax_response is the maximal probability; one_minus_entropy is
    1 - H(p) with natural-log entropy and 0 * ln 0 = 0 (may be negative
    for many classes; only the ordering matters downstream).
    """
    if cf is ConfidenceFunction.SOFTMAX_RESPONSE:
        return rows.max(axis=1)
    if cf is ConfidenceFunction.ONE_MINUS_ENTROPY:
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = np.where(rows > 0.0, rows * np.log(np.where(rows > 0.0, rows, 1.0)), 0.0)
        return 1.0 + contrib.sum(axis=1)
    raise ValueError(f"confidence function {cf.value} does not apply to softmax rows")


def read_csv_matrix(path: str, header: bool = False) -> tuple[np.ndarray, int]:
    """Parse a comma-separated numeric file into an (n, d) matrix.

    Returns the matrix and the 1-based line number of its first data row
    so callers can report errors against original line numbers. Rows must
    all have the same width; a single trailing newline is tolerated.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    first_line = 1
    if header:
        if not lines:
            raise ValueError(f"{path}: empty file")
        lines = lines[1:]
        first_line = 2
    if not lines:
        raise ValueError(f"{path}: no data rows")
    rows = []
    width = None
    for offset, line in enumerate(lines):
        lineno = first_line + offset
        cells = line.strip().split(",")
        if cells == [""]:
            raise ValueError(f"{path}: line {lineno}: empty row")
        try:
            row = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: cannot parse row {line!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError(
                f"{path}: line {lineno}: row has {len(row)} columns, expected {width}"
            )
        rows.append(row)
    matrix = np.asarray(rows, dtype=np.float64)
    bad = ~np.isfinite(matrix)
    if bad.any():
        lineno = first_line + int(np.argwhere(bad)[0][0])
        raise ValueError(f"{path}: line {lineno}: non-finite value")
    return matrix, first_line


def validate_softmax_rows(matrix: np.ndarray, path: str, first_line: int) -> None:
    """Check that every row is a probability vector, reporting line numbers.

    Entries must lie in [0, 1] and each row must sum to 1 within
    SOFTMAX_SUM_TOL; callers check finiteness first.
    """
    out_of_range = (matrix < 0.0) | (matrix > 1.0)
    if out_of_range.any():
        lineno = first_line + int(np.argwhere(out_of_range.any(axis=1))[0][0])
        raise ValueError(f"{path}: line {lineno}: softmax entry outside [0, 1]")
    sums = matrix.sum(axis=1)
    bad_sum = np.abs(sums - 1.0) > SOFTMAX_SUM_TOL
    if bad_sum.any():
        idx = int(np.argwhere(bad_sum)[0][0])
        raise ValueError(
            f"{path}: line {first_line + idx}: row sums to {sums[idx]}, "
            f"outside 1 +/- {SOFTMAX_SUM_TOL}"
        )


def _load_raw_scores(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError(f"{path}: empty file")
    values = np.empty(len(lines), dtype=np.float64)
    for i, line in enumerate(lines):
        try:
            values[i] = float(line.strip())
        except ValueError:
            raise ValueError(f"{path}: line {i + 1}: cannot parse {line!r} as a float") from None
        if not math.isfinite(values[i]):
            raise ValueError(f"{path}: line {i + 1}: non-finite score")
    return values


def load_scores(
    path: str,
    format: str,
    cf: ConfidenceFunction | None = None,
    header: bool = False,
    source_id: str | None = None,
) -> ScoreSample:
    """Load a ScoreSample from a raw_scores or softmax_csv file.

    raw_scores holds one decimal float per line and is taken verbatim
    (kappa_name raw_passthrough unless cf overrides the label).
    softmax_csv rows are validated as probability vectors and converted
    through the given confidence function.
    """
    if source_id is None:
        source_id = path
    if format == "raw_scores":
        values = _load_raw_scores(path)
        name = (cf or ConfidenceFunction.RAW_PASSTHROUGH).value
        return ScoreSample(scores=values, kappa_name=name, source_id=source_id)
    if format == "softmax_csv":
        if cf is None or cf is ConfidenceFunction.RAW_PASSTHROUGH:
            raise ValueError("softmax_csv requires a softmax_response or one_minus_entropy CF")
        matrix, first_line = read_csv_matrix(path, header=header)
        validate_softmax_rows(matrix, path, first_line)
        return ScoreSample(
            scores=kappa_of_rows(matrix, cf),
            kappa_name=cf.value,
            source_id=source_id,
        )
    raise ValueError(f"unknown score file format {format!r}")
