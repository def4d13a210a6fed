"""Data model for confidence scores and file ingestion.

A ScoreSample is an immutable ordered collection of per-instance
confidence scores. Scores are either supplied directly (one float per
line, a one-column CSV) or derived from softmax rows through a
confidence-rate function.
"""

from __future__ import annotations

import enum
import itertools
import os
import stat
from dataclasses import dataclass
from typing import NoReturn

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


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScoreSample:
    """Immutable ordered sample of finite confidence scores."""

    scores: np.ndarray
    kappa_name: str = ConfidenceFunction.RAW_PASSTHROUGH.value

    def __post_init__(self) -> None:
        arr = _frozen_array(self.scores)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("score sample must contain at least one score")
        # One reduction: ndarray.all's Python wrapper costs more than the
        # test on small windows.
        if not np.logical_and.reduce(np.isfinite(arr)):
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
        # A zero entry takes log 1, so log 0 is never evaluated.
        return 1.0 + (rows * np.log(np.where(rows > 0.0, rows, 1.0))).sum(axis=1)
    raise ValueError(f"confidence function {cf.value} does not apply to softmax rows")


_CHUNK_CHARS = 1 << 20


def _count_lines(fh) -> int:
    # Lines of the text as split on "\n", less one trailing empty line:
    # the rows a single trailing newline leaves. Counted in chunks of the
    # newline-translated text, so no copy of the whole file is held.
    count, last = 0, "\n"
    while chunk := fh.read(_CHUNK_CHARS):
        count += chunk.count("\n")
        last = chunk[-1]
    return count if last == "\n" else count + 1


# File name suffixes that np.loadtxt, given a path, decompresses.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_csv_matrix(path: str, header: bool = False) -> tuple[np.ndarray, int]:
    """Parse a comma-separated numeric file into an (n, d) matrix.

    This is the one numeric text reader: a raw score file is its
    one-column case. Returns the matrix and the 1-based line number of its
    first data row so callers can report errors against original line
    numbers. Rows must all have the same width; a single trailing newline
    is tolerated. Cells take Python's float() syntax without digit-group
    underscores or non-ASCII digits, since np.loadtxt parses them.

    The file must be UTF-8 text; a leading byte-order mark, as "CSV
    UTF-8" exports write, is skipped. A counting pass decodes it in chunks
    first, so a file that does not open or decode fails with its name
    before parsing, and a blank first data row is named then. np.loadtxt
    then reads the file by its absolute path, which it never takes for a
    URL, in chunks with its C parser, so memory beyond the matrix stays
    bounded. Names ending in a suffix np.loadtxt would decompress by are
    refused. A faulty row is named by reading the file again line by line.

    The file is read more than once, so the path must name a regular
    file: a pipe, FIFO or device (``/dev/stdin``, a shell's ``<(...)``) is
    refused before it is opened. A missing file raises FileNotFoundError.
    """
    if os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES:
        raise ValueError(
            f"{path}: file names ending in {', '.join(_COMPRESSED_SUFFIXES)} are not "
            "read; give the decompressed text file"
        )
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path}: not a regular file (pipes and devices cannot be read)")
    first_line = 2 if header else 1
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            n_lines = _count_lines(fh)
            fh.seek(0)
            first_row = next(itertools.islice(fh, first_line - 1, None), "")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if n_lines == 0:
        raise ValueError(f"{path}: line 1: empty file")
    if header:
        n_lines -= 1
        if n_lines == 0:
            raise ValueError(f"{path}: line 2: no data rows")
    # np.loadtxt warns "no data" only when every data line is blank, which
    # needs the first one to be, so a blank first row is named before it runs.
    if not first_row.strip():
        _raise_first_bad_row(path, first_line, None)
    try:
        matrix = np.loadtxt(
            os.path.abspath(path),
            delimiter=",",
            comments=None,
            ndmin=2,
            dtype=np.float64,
            skiprows=first_line - 1,
            encoding="utf-8-sig",
        )
    except ValueError as exc:
        _raise_first_bad_row(path, first_line, exc)
    # loadtxt skips blank lines, so a short matrix means the file has one.
    if matrix.shape[0] != n_lines:
        _raise_first_bad_row(path, first_line, None)
    bad = ~np.isfinite(matrix)
    if bad.any():
        lineno = first_line + int(np.argwhere(bad)[0][0])
        raise ValueError(f"{path}: line {lineno}: non-finite value")
    return matrix, first_line


def _is_number(cell: str) -> bool:
    # np.loadtxt's float syntax: float()'s, less underscores and non-ASCII digits.
    text = cell.strip()
    if "_" in text or not text.isascii():
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _raise_first_bad_row(path: str, first_line: int, cause: ValueError | None) -> NoReturn:
    """Raise the line-numbered error for the first row np.loadtxt could not take.

    Only runs once the file is known to hold a faulty row (a blank first
    data row, or np.loadtxt failed or skipped a blank line), so the
    per-line Python work stays off the success path. The file is read one
    line at a time from first_line. The row checks accept exactly what
    np.loadtxt accepts.
    """
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        rows = itertools.islice(fh, first_line - 1, None)
        for lineno, line in enumerate(rows, start=first_line):
            line = line.rstrip("\n")
            cells = line.strip().split(",")
            if cells == [""]:
                raise ValueError(f"{path}: line {lineno}: empty row")
            if not all(map(_is_number, cells)):
                raise ValueError(f"{path}: line {lineno}: cannot parse row {line!r}")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"{path}: line {lineno}: row has {len(cells)} columns, expected {width}"
                )
    raise ValueError(f"{path}: cannot parse file: {cause}") from cause


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


def load_scores(
    path: str,
    format: str,
    cf: ConfidenceFunction | None = None,
    header: bool = False,
) -> ScoreSample:
    """Load a ScoreSample from a raw_scores or softmax_csv file.

    raw_scores holds one decimal float per line, a one-column CSV, and is
    taken verbatim (kappa_name raw_passthrough unless cf overrides the label).
    softmax_csv rows are validated as probability vectors and converted
    through the given confidence function. header skips the first line of
    either format.
    """
    if format == "raw_scores":
        matrix, first_line = read_csv_matrix(path, header=header)
        if matrix.shape[1] != 1:
            raise ValueError(
                f"{path}: line {first_line}: raw score file has {matrix.shape[1]} "
                "columns, expected 1"
            )
        values = matrix[:, 0]
        name = (cf or ConfidenceFunction.RAW_PASSTHROUGH).value
        return ScoreSample(scores=values, kappa_name=name)
    if format == "softmax_csv":
        if cf is None or cf is ConfidenceFunction.RAW_PASSTHROUGH:
            raise ValueError("softmax_csv requires a softmax_response or one_minus_entropy CF")
        matrix, first_line = read_csv_matrix(path, header=header)
        validate_softmax_rows(matrix, path, first_line)
        return ScoreSample(scores=kappa_of_rows(matrix, cf), kappa_name=cf.value)
    raise ValueError(f"unknown score file format {format!r}")
