import numpy as np
import pytest

from covshift.baselines import (
    SingleInstanceEstimator,
    VectorKind,
    VectorSample,
    detect_ks,
    detect_ks_sorted,
    detect_mmd,
    detect_single_instance,
    load_vectors,
    sort_columns,
)
from covshift.scores import ScoreSample, validate_softmax_rows
from covshift.stats import ks_two_sample, permutation_test_mmd, substream


def gaussian_vectors(n, d, seed, shift=0.0):
    return substream(seed, 0).standard_normal((n, d)) + shift


class TestVectorSample:
    def test_embedding_accepts_any_finite(self):
        v = VectorSample(vectors=[[-5.0, 2.0], [0.0, 1.0]], kind=VectorKind.EMBEDDING)
        assert len(v) == 2
        assert v.dim == 2

    def test_softmax_rows_validated(self):
        VectorSample(vectors=[[0.5, 0.5], [1.0, 0.0]], kind=VectorKind.SOFTMAX)
        with pytest.raises(ValueError):
            VectorSample(vectors=[[0.5, 0.6]], kind=VectorKind.SOFTMAX)

    @pytest.mark.parametrize("vectors", [[], np.zeros((0, 2)), np.zeros((3, 0)), [1.0, 2.0]])
    def test_rejects_empty_or_not_2d(self, vectors):
        with pytest.raises(ValueError, match="vector sample must be a nonempty 2-D array"):
            VectorSample(vectors=vectors, kind=VectorKind.EMBEDDING)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            VectorSample(vectors=[[1.0, float("nan")]], kind=VectorKind.EMBEDDING)

    def test_immutable(self):
        v = VectorSample(vectors=[[1.0, 2.0]], kind=VectorKind.EMBEDDING)
        with pytest.raises(ValueError):
            v.vectors[0, 0] = 9.0


class TestLoadVectors:
    def test_embedding_skips_sum_check(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("1.5,-2.0\n3.0,4.0\n")
        v = load_vectors(str(path), VectorKind.EMBEDDING)
        assert v.vectors.shape == (2, 2)

    def test_softmax_checked(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("0.9,0.2\n")
        with pytest.raises(ValueError, match="line 1"):
            load_vectors(str(path), VectorKind.SOFTMAX)

    def test_rows_across_read_chunks(self, tmp_path):
        # More text than one counting chunk, with CRLF line ends: the rows
        # and the line number of a blank row must not depend on where a
        # chunk ends.
        rows = substream(32, 0).random((60_000, 2))
        lines = [",".join(repr(v) for v in row) for row in rows.tolist()]
        path = tmp_path / "big.csv"
        path.write_bytes(("h0,h1\r\n" + "\r\n".join(lines) + "\r\n").encode())
        assert path.stat().st_size > 2 * (1 << 20)
        v = load_vectors(str(path), VectorKind.EMBEDDING, header=True)
        assert np.array_equal(v.vectors, rows)
        lines[50_000] = ""
        path.write_bytes(("h0,h1\r\n" + "\r\n".join(lines) + "\r\n").encode())
        with pytest.raises(ValueError, match="line 50002: empty row"):
            load_vectors(str(path), VectorKind.EMBEDDING, header=True)

    def test_softmax_validated_once_naming_file_and_line(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return validate_softmax_rows(*args)

        monkeypatch.setattr("covshift.baselines.validate_softmax_rows", counting)
        path = tmp_path / "probs.csv"
        path.write_text("p0,p1\n0.5,0.5\n0.7,0.2\n")
        with pytest.raises(ValueError) as err:
            load_vectors(str(path), VectorKind.SOFTMAX, header=True)
        assert str(err.value).startswith(f"{path}: line 3: row sums to 0.8")
        assert len(calls) == 1
        path.write_text("0.5,0.5\n0.25,0.75\n")
        assert len(load_vectors(str(path), VectorKind.SOFTMAX)) == 2
        assert len(calls) == 2


class TestDetectKs:
    def test_d1_reduces_to_ks_two_sample(self):
        a = substream(20, 0).standard_normal(80)
        b = substream(21, 0).standard_normal(40) + 0.5
        direct = ks_two_sample(a, b)
        wrapped = detect_ks(VectorSample(a[:, None], VectorKind.EMBEDDING), b[:, None])
        assert wrapped.statistic == direct.statistic
        assert wrapped.p_value == pytest.approx(min(1.0, direct.p_value), abs=1e-15)

    def test_identical_pools_aggregate_p_clamped(self):
        rows = substream(22, 0).standard_normal((60, 4))
        r = detect_ks(VectorSample(rows, VectorKind.EMBEDDING), rows[:30])
        assert r.p_value == 1.0

    def test_shifted_dimension_found(self):
        for seed in range(10):
            ref = substream(23, seed).standard_normal((200, 5))
            win = substream(24, seed).standard_normal((100, 5))
            win[:, 3] += 3.0
            r = detect_ks(VectorSample(ref, VectorKind.EMBEDDING), win)
            assert r.detail["argmin_dimension"] == 3
            assert r.p_value < 0.05

    def test_dimension_order_invariance(self):
        ref = substream(25, 0).standard_normal((100, 4))
        win = substream(26, 0).standard_normal((50, 4)) + 0.4
        base = detect_ks(VectorSample(ref, VectorKind.EMBEDDING), win)
        perm = [2, 0, 3, 1]
        permuted = detect_ks(VectorSample(ref[:, perm], VectorKind.EMBEDDING), win[:, perm])
        assert permuted.p_value == base.p_value
        assert permuted.statistic == base.statistic

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            detect_ks(VectorSample(np.zeros((5, 2)), VectorKind.EMBEDDING), np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_window_rejected(self, bad):
        ref = VectorSample(substream(27, 0).standard_normal((20, 2)), VectorKind.EMBEDDING)
        with pytest.raises(ValueError, match="NaN or infinite"):
            detect_ks(ref, np.array([[0.5, 0.5], [bad, 0.5]]))


class TestDetectKsSorted:
    def test_matches_one_shot_bit_for_bit(self):
        rng = np.random.default_rng(30)
        for i in range(60):
            d = 1 + i % 3
            m, k = int(rng.integers(2, 400)), int(rng.integers(2, 201))
            if i % 2:
                ref = rng.integers(0, 6, (m, d)).astype(float)
                win = ref[rng.integers(0, m, k)]
                win[: k // 3] = rng.integers(0, 7, (k // 3, d))
            else:
                ref = rng.standard_normal((m, d))
                win = rng.standard_normal((k, d)) + rng.uniform(-0.5, 0.5)
            ref_sample = VectorSample(ref, VectorKind.EMBEDDING)
            fitted = detect_ks_sorted(sort_columns(ref_sample), win)
            direct = detect_ks(ref_sample, win)
            assert (fitted.statistic, fitted.p_value) == (direct.statistic, direct.p_value)
            assert dict(fitted.detail) == dict(direct.detail)

    def test_sort_columns_layout_leaves_reference_alone(self):
        rows = substream(31, 0).standard_normal((50, 3))
        ref = VectorSample(rows, VectorKind.EMBEDDING)
        before = ref.vectors.copy()
        columns = sort_columns(ref)
        assert columns.shape == (3, 50) and columns.flags["C_CONTIGUOUS"]
        assert np.array_equal(columns, np.sort(rows.T, axis=1))
        assert np.array_equal(ref.vectors, before)

    def test_dimension_mismatch(self):
        ref = VectorSample(np.zeros((5, 2)), VectorKind.EMBEDDING)
        with pytest.raises(ValueError, match="dimension"):
            detect_ks_sorted(sort_columns(ref), np.zeros((5, 3)))


class TestDetectMmd:
    def test_reference_cap_seeded_and_recorded(self):
        ref = VectorSample(substream(30, 0).standard_normal((5000, 2)), VectorKind.EMBEDDING)
        win = substream(31, 0).standard_normal((40, 2))
        a = detect_mmd(ref, win, n_permutations=20, seed=5)
        b = detect_mmd(ref, win, n_permutations=20, seed=5)
        assert (a.statistic, a.p_value) == (b.statistic, b.p_value)
        # The reference is capped at 1000 rows drawn from the seed's substream 0.
        rows = ref.vectors[np.sort(substream(5, 0).choice(5000, 1000, replace=False))]
        capped = permutation_test_mmd(rows, win, n_permutations=20, seed=5)
        assert (a.statistic, a.p_value, dict(a.detail)) == (
            capped.statistic, capped.p_value, dict(capped.detail)
        )

    def test_disjoint_clusters_hit_add_one_floor(self):
        ref = VectorSample(substream(32, 0).standard_normal((60, 2)), VectorKind.EMBEDDING)
        win = substream(33, 0).standard_normal((60, 2)) + 40.0
        r = detect_mmd(ref, win, n_permutations=100, seed=0)
        assert r.p_value == pytest.approx(1.0 / 101.0)

    def test_null_rejection_rate_near_alpha(self):
        rejections = 0
        for seed in range(20):
            ref = VectorSample(substream(34, seed).standard_normal((100, 2)), VectorKind.EMBEDDING)
            win = substream(35, seed).standard_normal((50, 2))
            r = detect_mmd(ref, win, n_permutations=100, seed=seed)
            rejections += r.p_value < 0.05
        assert rejections <= 3


class TestDetectSingleInstance:
    def test_shifted_scores_detected(self):
        ref = ScoreSample(substream(40, 0).standard_normal(1000))
        win = substream(41, 0).standard_normal(100) - 0.3
        r = detect_single_instance(ref, win, estimator=SingleInstanceEstimator.SR)
        assert r.p_value < 0.01

    def test_identical_constant_scores_p_one(self):
        ref = ScoreSample(np.full(10, 0.7))
        win = np.full(5, 0.7)
        r = detect_single_instance(ref, win, estimator=SingleInstanceEstimator.ENTROPY)
        assert r.p_value == 1.0

    def test_estimator_label_mismatch_rejected(self):
        ref = ScoreSample([0.1, 0.2], kappa_name="softmax_response")
        win = np.array([0.1, 0.2])
        with pytest.raises(ValueError, match="mismatch"):
            detect_single_instance(ref, win, SingleInstanceEstimator.ENTROPY)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_window_rejected(self, bad):
        ref = ScoreSample(substream(45, 0).random(50))
        with pytest.raises(ValueError, match="NaN or infinite"):
            detect_single_instance(ref, np.array([0.5, bad, 0.6]), SingleInstanceEstimator.SR)

    def test_raw_passthrough_accepted(self):
        ref = ScoreSample(substream(42, 0).random(50))
        win = substream(43, 0).random(50)
        r = detect_single_instance(ref, win, SingleInstanceEstimator.SR)
        assert 0.0 <= r.p_value <= 1.0

    def test_null_calibration_quick(self):
        rejections = 0
        n_trials = 200
        for i in range(n_trials):
            rng = substream(44, i)
            ref = ScoreSample(rng.standard_normal(500))
            win = rng.standard_normal(50)
            r = detect_single_instance(ref, win, SingleInstanceEstimator.ENTROPY)
            rejections += r.p_value < 0.05
        assert rejections / n_trials <= 0.05 + 3 * np.sqrt(0.05 * 0.95 / n_trials)
