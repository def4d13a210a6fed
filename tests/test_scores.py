import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from covshift.baselines import VectorKind, VectorSample, load_vectors
from covshift.scores import (
    ConfidenceFunction,
    ScoreSample,
    kappa_of_rows,
    load_scores,
    read_csv_matrix,
)

SR = ConfidenceFunction.SOFTMAX_RESPONSE
ENTROPY = ConfidenceFunction.ONE_MINUS_ENTROPY


def softmax_vector(probs):
    return VectorSample(vectors=[probs], kind=VectorKind.SOFTMAX)


def embedding_vector(values):
    return VectorSample(vectors=[values], kind=VectorKind.EMBEDDING)


class TestSoftmaxVector:
    def test_accepts_valid(self):
        v = softmax_vector([0.2, 0.3, 0.5])
        assert v.vectors[0].sum() == pytest.approx(1.0)

    def test_accepts_within_tolerance(self):
        softmax_vector([0.3333, 0.3333, 0.3333])  # sums to 0.9999

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            softmax_vector([0.5, 0.6])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            softmax_vector([1.2, -0.2])  # sums to 1

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            softmax_vector([float("nan"), 1.0])

    def test_immutable(self):
        v = softmax_vector([1.0, 0.0])
        with pytest.raises(ValueError):
            v.vectors[0, 0] = 0.5


class TestComputeKappa:
    """kappa over softmax rows, as load_scores computes it (kappa_of_rows)."""

    def test_one_hot_softmax_response(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(kappa_of_rows(rows, SR), [1.0, 1.0])

    def test_one_hot_entropy(self):
        # entropy of a point mass is 0
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(kappa_of_rows(rows, ENTROPY), [1.0, 1.0])

    def test_fair_coin_entropy(self):
        expected = 1.0 - math.log(2.0)
        assert kappa_of_rows(np.array([[0.5, 0.5]]), ENTROPY)[0] == pytest.approx(
            expected, abs=1e-12
        )

    def test_exact_zeros_add_nothing(self):
        # 0 * ln 0 = 0: a zero-probability class leaves the entropy unchanged
        padded = kappa_of_rows(np.array([[0.5, 0.0, 0.5, 0.0]]), ENTROPY)
        assert padded[0] == kappa_of_rows(np.array([[0.5, 0.5]]), ENTROPY)[0]
        # A zero entry of either sign never reaches the log.
        with np.errstate(all="raise"):
            signed = kappa_of_rows(np.array([[-0.0, 1.0, 0.0], [0.5, -0.0, 0.5]]), ENTROPY)
        assert signed.tolist() == [1.0, padded[0]]

    def test_pure_function(self):
        rows = np.array([[0.1, 0.2, 0.7]])
        assert np.array_equal(kappa_of_rows(rows, ENTROPY), kappa_of_rows(rows, ENTROPY))

    def test_raw_passthrough_rejected(self):
        with pytest.raises(ValueError):
            kappa_of_rows(np.array([[1.0, 0.0]]), ConfidenceFunction.RAW_PASSTHROUGH)

    def test_from_name_aliases(self):
        for short, full in (("sr", SR), ("entropy", ENTROPY)):
            assert ConfidenceFunction.from_name(short) is full
            assert ConfidenceFunction.from_name(full.value) is full
        assert ConfidenceFunction.from_name("raw_passthrough") is ConfidenceFunction.RAW_PASSTHROUGH
        with pytest.raises(ValueError):
            ConfidenceFunction.from_name("nope")


class TestScoreSample:
    def test_length_and_immutability(self):
        s = ScoreSample(scores=[0.9, 0.5])
        assert len(s) == 2
        with pytest.raises(ValueError):
            s.scores[0] = 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ScoreSample(scores=[])

    def test_rejects_nan_inf(self):
        with pytest.raises(ValueError):
            ScoreSample(scores=[0.1, float("nan")])
        with pytest.raises(ValueError):
            ScoreSample(scores=[0.1, float("inf")])

    def test_monotone_map_preserves_ordering(self):
        rng = np.random.default_rng(11)
        scores = rng.standard_normal(200)
        mapped = np.exp(scores)
        assert np.array_equal(np.argsort(scores), np.argsort(mapped))


class TestEmbeddingVector:
    def test_valid(self):
        embedding_vector([-1.5, 2.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            embedding_vector([1.0, float("inf")])


class TestLoadScores:
    def test_raw_verbatim(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.9\n0.5\n")
        s = load_scores(str(path), "raw_scores")
        assert np.array_equal(s.scores, [0.9, 0.5])
        assert s.kappa_name == "raw_passthrough"

    def test_raw_no_trailing_newline(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("1.25\n-3.5")
        s = load_scores(str(path), "raw_scores")
        assert np.array_equal(s.scores, [1.25, -3.5])

    def test_raw_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.9\nnope\n0.5\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scores(str(path), "raw_scores")

    def test_raw_rejects_nan_with_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.9\nnan\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scores(str(path), "raw_scores")

    def test_raw_rejects_empty_file(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_scores(str(path), "raw_scores")

    def test_softmax_csv_sr(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("1,0,0\n0.5,0.25,0.25\n")
        s = load_scores(str(path), "softmax_csv", cf=ConfidenceFunction.SOFTMAX_RESPONSE)
        assert np.array_equal(s.scores, [1.0, 0.5])
        assert s.kappa_name == "softmax_response"

    def test_softmax_csv_bad_sum_reports_line(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("1,0\n0.5,0.6\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scores(str(path), "softmax_csv", cf=ConfidenceFunction.SOFTMAX_RESPONSE)

    def test_softmax_csv_header_flag(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("p0,p1\n0.5,0.5\n")
        s = load_scores(
            str(path), "softmax_csv", cf=ConfidenceFunction.ONE_MINUS_ENTROPY, header=True
        )
        assert s.scores[0] == pytest.approx(1.0 - math.log(2.0))

    def test_softmax_csv_ragged_rows(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("1,0\n0.5,0.25,0.25\n")
        with pytest.raises(ValueError, match="line 2"):
            load_scores(str(path), "softmax_csv", cf=ConfidenceFunction.SOFTMAX_RESPONSE)

    def test_softmax_csv_requires_cf(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("1,0\n")
        with pytest.raises(ValueError):
            load_scores(str(path), "softmax_csv")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5\n")
        with pytest.raises(ValueError, match="format"):
            load_scores(str(path), "parquet")


def _mixed_cells(n_cells):
    """Cells in every float spelling the reader must parse exactly as float() does."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal(n_cells) * 10.0 ** rng.integers(-8, 8, n_cells)
    spellings = (
        repr,
        lambda v: f"{v:.4f}",
        lambda v: f"{v:.17e}",
        lambda v: f"{v:+.6E}",
        lambda v: f"  {v!r} ",
        lambda v: f"{abs(v):.3f}",
    )
    cells = [spellings[i % len(spellings)](float(v)) for i, v in enumerate(values)]
    return ["-0.0", "+0", ".5", "5.", "1e-320", "1.7976931348623157e308"] + cells


class TestReadCsvMatrix:
    @pytest.mark.parametrize("width", [1, 10])
    def test_values_equal_float_bit_for_bit(self, tmp_path, width):
        cells = _mixed_cells(200 * width)
        cells = cells[: len(cells) // width * width]
        rows = [cells[i : i + width] for i in range(0, len(cells), width)]
        path = tmp_path / "mixed.csv"
        path.write_bytes("".join(",".join(r) + "\r\n" for r in rows).encode())
        matrix, first_line = read_csv_matrix(str(path))
        expected = np.array([[float(c) for c in r] for r in rows])
        assert first_line == 1
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()
        if width == 1:
            sample = load_scores(str(path), "raw_scores")
            assert sample.scores.tobytes() == expected[:, 0].tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize(
        "body, line, match",
        [
            ("\n\n", 1, "empty row"),
            ("0.5,0.5\n\n0.5,0.5\n", 2, "empty row"),
            ("0.5,0.5\n0.5,0.5\n \t \n", 3, "empty row"),
            ("0.5,0.5\n0.5,nope\n", 2, "cannot parse row"),
            ("1,0\n0.5,0.25,0.25\n", 2, "row has 3 columns, expected 2"),
            ("1,0\n0.5,0.5\n0.5,nan\n", 3, "non-finite value"),
            ("1,0\n0.5,0.5\ninf,0\n", 3, "non-finite value"),
        ],
    )
    def test_error_names_file_and_line(self, tmp_path, header, body, line, match):
        path = tmp_path / "bad.csv"
        path.write_text(("p0,p1\n" if header else "") + body)
        with pytest.raises(ValueError, match=f"^{path}: line {line + header}: {match}"):
            read_csv_matrix(str(path), header=header)

    def test_empty_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        for header in (False, True):
            with pytest.raises(ValueError, match=f"^{path}: line 1: empty file$"):
                read_csv_matrix(str(path), header=header)
        path.write_text("p0,p1\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: no data rows$"):
            read_csv_matrix(str(path), header=True)

    @pytest.mark.parametrize("cell", ["1_0", "0.000_1", "\u0661", "\uff15"])
    def test_float_spellings_outside_numpy_syntax_rejected(self, tmp_path, cell):
        # float() accepts these; np.loadtxt's float syntax has no underscores
        # or non-ASCII digits, so the reader rejects them, naming the line.
        path = tmp_path / "scores.txt"
        path.write_text(f"0.5\n{cell}\n0.25\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: cannot parse row"):
            load_scores(str(path), "raw_scores")
        path.write_text(f"0.5,0.5\n0.5,{cell}\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: cannot parse row"):
            read_csv_matrix(str(path))

    def test_raw_file_with_two_columns_names_file_and_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.5,0.5\n0.25,0.75\n")
        with pytest.raises(
            ValueError, match=f"^{path}: line 1: raw score file has 2 columns, expected 1$"
        ):
            load_scores(str(path), "raw_scores")

    def test_raw_errors_use_the_csv_wording(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.9\nnope\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: cannot parse row 'nope'$"):
            load_scores(str(path), "raw_scores")
        path.write_text("0.9\n-inf\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: non-finite value$"):
            load_scores(str(path), "raw_scores")
        path.write_text("0.9\n  \n0.5\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: empty row$"):
            load_scores(str(path), "raw_scores")
        # As for CSVs, a cell that does not parse is reported before a
        # non-finite value on an earlier line.
        path.write_text("nan\nnope\n")
        with pytest.raises(ValueError, match=f"^{path}: line 2: cannot parse row 'nope'$"):
            load_scores(str(path), "raw_scores")

    def test_raw_file_header_flag_skips_first_line(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("score\n0.9\n0.5\n")
        sample = load_scores(str(path), "raw_scores", header=True)
        assert sample.scores.tolist() == [0.9, 0.5]
        with pytest.raises(ValueError, match=f"^{path}: line 1: cannot parse row 'score'$"):
            load_scores(str(path), "raw_scores")
        # As for CSVs, the flag skips the first line whatever it holds, and
        # errors keep the file's line numbers.
        path.write_text("0.9\n0.5\n")
        assert load_scores(str(path), "raw_scores", header=True).scores.tolist() == [0.5]
        path.write_text("score\n0.9\nnope\n")
        with pytest.raises(ValueError, match=f"^{path}: line 3: cannot parse row 'nope'$"):
            load_scores(str(path), "raw_scores", header=True)


def _loadtxt_line_by_line(path, skiprows: int) -> np.ndarray:
    # np.loadtxt over an open handle feeds its parser one line at a time;
    # given a path it reads the file in chunks. Both must parse alike.
    with open(path, "r", encoding="utf-8") as fh:
        return np.loadtxt(
            fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64, skiprows=skiprows
        )


def _read_error(path, header: bool = False) -> str:
    with pytest.raises(ValueError) as excinfo:
        read_csv_matrix(path, header=header)
    return str(excinfo.value)


def _error_within(call, seconds: float = 10.0) -> str:
    # Runs call in a thread, so a reader that blocks opening a FIFO with
    # no writer fails the test instead of hanging the suite.
    errors = []

    def run():
        try:
            call()
        except ValueError as exc:
            errors.append(str(exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "reader blocked on the FIFO"
    return errors[0]


class TestReaderByPath:
    """read_csv_matrix hands np.loadtxt the absolute path of the file."""

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize(
        "text",
        [
            b"0.5,1e-3\n0.25,7\n",
            b"0.5,1e-3\r\n0.25,7\r\n",
            b"0.5,1e-3\r0.25,7\r",
            b"0.5,1e-3\n0.25,7",
            b"  0.5 , 1e-3\n\t0.25,\t7  \n",
            "\ufeffp0,p1\n0.5,1e-3\n0.25,7\n".encode(),
        ],
        ids=["lf", "crlf", "lone-cr", "no-final-newline", "padded", "bom"],
    )
    def test_same_array_as_line_by_line(self, tmp_path, text, header):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        if text.startswith("\ufeff".encode()) and not header:
            # The BOM stays part of the first cell, as float() sees it.
            assert _read_error(str(path)) == f"{path}: line 1: cannot parse row '\\ufeffp0,p1'"
            return
        matrix, first_line = read_csv_matrix(str(path), header=header)
        expected = _loadtxt_line_by_line(path, int(header))
        assert first_line == 1 + header
        assert matrix.dtype == expected.dtype == np.float64
        assert matrix.shape == expected.shape
        assert matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text, line",
        [
            (b"0.5,1\n\n0.25,7\n", 2),
            (b"0.5,1\r\n\r\n0.25,7\r\n", 2),
            (b"0.5,1\r\r0.25,7\r", 2),
            (b"0.5,1\n0.25,7\n \t\n", 3),
            (b"0.5,1\r\n0.25,7\r\n\r\n", 3),
        ],
    )
    def test_blank_line_named(self, tmp_path, text, line):
        path = tmp_path / "blank.csv"
        path.write_bytes(text)
        assert _read_error(str(path)) == f"{path}: line {line}: empty row"
        assert _read_error(str(path), header=True) == f"{path}: line {line}: empty row"

    def test_space_in_name_and_relative_path(self, tmp_path, monkeypatch):
        path = tmp_path / "my scores.csv"
        path.write_bytes(b"0.5,1e-3\n0.25,7\n")
        expected = _loadtxt_line_by_line(path, 0).tobytes()
        assert read_csv_matrix(str(path))[0].tobytes() == expected
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "bad.csv").write_text("0.5\nx\n")
        monkeypatch.chdir(tmp_path)
        assert read_csv_matrix("my scores.csv")[0].tobytes() == expected
        # Errors name the path as the caller gave it.
        assert _read_error("sub/bad.csv") == "sub/bad.csv: line 2: cannot parse row 'x'"

    def test_url_like_relative_path_read_from_disk(self, tmp_path, monkeypatch):
        # The file f in the local directories "http:" and "localhost". Given
        # this path as is, np.loadtxt would try to fetch it as a URL.
        path = tmp_path / "http:" / "localhost" / "f"
        path.parent.mkdir(parents=True)
        path.write_text("0.5\n0.25\n")
        monkeypatch.chdir(tmp_path)
        matrix, _ = read_csv_matrix("http://localhost/f")
        assert matrix[:, 0].tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_refused(self, tmp_path, suffix):
        # np.loadtxt would decompress such a file by its name; a plain text
        # file named so would fail with a codec error that names no file.
        path = tmp_path / f"scores.txt{suffix}"
        path.write_text("0.5\n0.25\n")
        message = (
            f"{path}: file names ending in .gz, .bz2, .xz, .lzma are not read; "
            "give the decompressed text file"
        )
        assert _read_error(str(path)) == message
        with pytest.raises(ValueError) as excinfo:
            load_scores(str(path), "raw_scores")
        assert str(excinfo.value) == message

    def test_fifo_refused_before_opening(self, tmp_path):
        # A pipe would be used up by the counting pass before np.loadtxt read it.
        fifo = tmp_path / "scores.fifo"
        os.mkfifo(fifo)
        message = f"{fifo}: not a regular file (pipes and devices cannot be read)"
        assert _error_within(lambda: load_scores(str(fifo), "raw_scores")) == message
        assert _error_within(lambda: load_vectors(str(fifo), VectorKind.EMBEDDING)) == message

    def test_missing_file_keeps_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scores(str(tmp_path / "absent.txt"), "raw_scores")

    def test_reads_without_touching_warnings_filters(self, tmp_path, monkeypatch):
        # The filters are process-wide, and swapping them is not thread-safe,
        # so a read must neither install nor need one.
        def fail(*args, **kwargs):
            raise AssertionError("warnings filters touched")

        path = tmp_path / "scores.txt"
        path.write_text("0.5\n0.25\n")
        errors = {}
        # pytest itself uses catch_warnings, so the patch is undone before
        # any failure is reported.
        monkeypatch.setattr(warnings, "catch_warnings", fail)
        monkeypatch.setattr(warnings, "simplefilter", fail)
        try:
            loaded = load_scores(str(path), "raw_scores").scores.tolist()
            for text, header in [("\n\n", False), ("score\n\n", True)]:
                path.write_text(text)
                try:
                    load_scores(str(path), "raw_scores", header=header)
                except ValueError as exc:
                    errors[text] = str(exc)
        finally:
            monkeypatch.undo()
        assert loaded == [0.5, 0.25]
        assert errors == {
            "\n\n": f"{path}: line 1: empty row",
            "score\n\n": f"{path}: line 2: empty row",
        }

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "scores.bin"
        path.write_bytes(b"0.5\n\x1f\x8b\x08\n")
        match = f"^{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0x8b"
        with pytest.raises(ValueError, match=match):
            read_csv_matrix(str(path))
        with pytest.raises(ValueError, match=match):
            load_scores(str(path), "raw_scores")
        with pytest.raises(ValueError, match=match):
            load_vectors(str(path), VectorKind.EMBEDDING)


def _traced_read(path) -> tuple[int, str | None]:
    # Peak traced memory of read_csv_matrix(path), and its error if it raised.
    tracemalloc.start()
    try:
        read_csv_matrix(path)
        error = None
    except ValueError as exc:
        error = str(exc)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, error


def test_rejecting_a_row_peaks_near_loading_the_file(tmp_path):
    # Naming a bad row reads the file line by line, so rejecting a file
    # holds about what loading a valid one of the same size holds.
    n = 200_000
    body = "".join(f"{i / n:.6f}\n" for i in range(n - 1))
    versions = {
        "valid": ("0.5\n", None),
        "bad-last-row": ("abc\n", "line 200000: cannot parse row 'abc'"),
        "blank-before-last-row": ("\n0.5\n", "line 200000: empty row"),
    }
    peaks = {}
    for name, (tail, message) in versions.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(body + tail)
        peaks[name], error = _traced_read(str(path))
        assert error == (message and f"{path}: {message}")
    assert peaks["bad-last-row"] <= 1.5 * peaks["valid"], peaks
    assert peaks["blank-before-last-row"] <= 1.5 * peaks["valid"], peaks
