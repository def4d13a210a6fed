import math

import numpy as np
import pytest

from covshift.baselines import VectorKind, VectorSample
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

    def test_raw_file_ignores_header_flag(self, tmp_path):
        path = tmp_path / "scores.txt"
        path.write_text("0.9\n0.5\n")
        sample = load_scores(str(path), "raw_scores", header=True)
        assert sample.scores.tolist() == [0.9, 0.5]
