import itertools
import json
import math
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from covshift.detector import (
    DEFAULT_C_TARGET_COUNT,
    DEFAULT_DELTA,
    DetectorModel,
    ModelFormatError,
    coverage_grid,
    detect,
    fit,
    load_model,
    save_model,
    write_atomic,
)
from covshift.scores import ScoreSample
from covshift.sgc import CoverageBound
from covshift.stats import student_t_cdf, substream
from oracles import violation_means_loop


def beta_scores(a, b, n, stream, index=0):
    g1 = substream(stream, index).standard_gamma(a, size=n)
    g2 = substream(stream + 1, index).standard_gamma(b, size=n)
    return g1 / (g1 + g2)


@pytest.fixture(scope="module")
def small_model():
    sample = ScoreSample(beta_scores(5, 1, 5000, stream=900))
    return fit(sample, delta=0.01, c_target_count=10)


FORMAT_1_TWO_PAIRS = """{
  "format_version": 1,
  "kappa_name": "raw_passthrough",
  "delta": 0.01,
  "c_target_count": 2,
  "m": 100,
  "pairs": [
    {
      "c_target": 0.1,
      "b_star": 0.09871234567890123,
      "theta": 0.9744612082,
      "iterations": 12,
      "empirical_coverage_at_fit": 0.1002
    },
    {
      "c_target": 0.55,
      "b_star": 0.3333333333333333,
      "theta": -1.5e-07,
      "iterations": 3,
      "empirical_coverage_at_fit": 1.0
    }
  ]
}
"""


def manual_model(pairs):
    return DetectorModel(
        pairs=tuple(pairs),
        delta=0.01,
        kappa_name="raw_passthrough",
        m=100,
    )


class TestCoverageGrid:
    def test_default_grid(self):
        grid = coverage_grid(10)
        expected = [0.10, 0.19, 0.28, 0.37, 0.46, 0.55, 0.64, 0.73, 0.82, 0.91]
        assert grid == pytest.approx(expected, abs=1e-12)

    def test_single_coverage(self):
        assert coverage_grid(1) == [0.1]

    def test_paper_defaults(self):
        assert DEFAULT_DELTA == 0.01
        assert DEFAULT_C_TARGET_COUNT == 10

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            coverage_grid(0)


class TestFit:
    def test_pairs_strictly_increasing_and_metadata(self, small_model):
        targets = [p.c_target for p in small_model.pairs]
        assert targets == sorted(targets)
        assert len(set(targets)) == len(targets)
        assert small_model.m == 5000
        assert small_model.kappa_name == "raw_passthrough"
        assert len(small_model.pairs) == 10

    def test_model_invariant_enforced(self):
        pair = CoverageBound(
            c_target=0.5, b_star=0.5, theta=0.5, iterations=1, empirical_coverage_at_fit=0.5
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            manual_model([pair, pair])

    def test_sorts_sample_once(self, monkeypatch):
        # all target coverages share one sort of the sample
        calls = []
        real_sort = np.sort

        def counting_sort(*args, **kwargs):
            calls.append(1)
            return real_sort(*args, **kwargs)

        sample = ScoreSample(substream(5, 0).random(1000))
        monkeypatch.setattr(np, "sort", counting_sort)
        fit(sample, delta=0.01, c_target_count=10)
        assert len(calls) == 1

    def test_unknown_kappa_label_rejected(self):
        sample = ScoreSample(substream(6, 0).random(200), kappa_name="foo")
        with pytest.raises(ValueError, match="kappa_name must be one of .*, got 'foo'"):
            fit(sample, c_target_count=2)

    def test_c_target_range_enforced(self):
        bad = CoverageBound(
            c_target=1.0, b_star=0.5, theta=0.5, iterations=1, empirical_coverage_at_fit=0.5
        )
        with pytest.raises(ValueError, match="0.1"):
            manual_model([bad])


class TestViolationTerms:
    def test_no_violation_all_zero(self, small_model):
        window = ScoreSample(np.full(50, 2.0))  # above every theta
        report = detect(small_model, window, alpha=0.05)
        assert len(report.per_coverage) == 10
        assert not any(check.violated for check in report.per_coverage)
        assert report.v_statistic == 0.0

    def test_full_violation_terms_are_bounds(self, small_model):
        window = ScoreSample(np.full(40, -1.0))  # below every theta
        report = detect(small_model, window, alpha=0.05)
        assert all(check.violated for check in report.per_coverage)
        assert all(check.empirical_coverage == 0.0 for check in report.per_coverage)
        expected_v = np.mean([p.b_star for p in small_model.pairs])
        assert report.v_statistic == pytest.approx(expected_v, abs=1e-15)

    def test_equality_violation_zero_contribution(self):
        pair = CoverageBound(
            c_target=0.5, b_star=0.5, theta=0.5, iterations=1, empirical_coverage_at_fit=0.5
        )
        model = manual_model([pair])
        window = ScoreSample([0.4, 0.6])  # c_hat = 0.5 == b_star
        report = detect(model, window, alpha=0.05)
        check = report.per_coverage[0]
        assert check.violated
        assert report.v_statistic == 0.0
        # mean-zero terms with positive spread: t = 0, p = 0.5
        assert report.p_value == pytest.approx(0.5, abs=1e-12)

    def test_kappa_mismatch_rejected(self, small_model):
        window = ScoreSample([0.5, 0.6], kappa_name="one_minus_entropy")
        with pytest.raises(ValueError, match="kappa"):
            detect(small_model, window, alpha=0.05)


class TestDetect:
    def test_no_violation_degenerate_p_one(self, small_model):
        report = detect(small_model, ScoreSample(np.full(30, 2.0)), alpha=0.05)
        assert report.p_value == 1.0
        assert not report.shift_detected
        assert report.v_statistic == 0.0
        assert report.window_size == 30

    def test_full_violation_detected(self, small_model):
        report = detect(small_model, ScoreSample(np.full(30, -1.0)), alpha=0.05)
        assert report.shift_detected
        assert report.p_value < 0.001
        assert report.v_statistic > 0.0

    def test_hand_computed_p_value(self):
        # b* = 0.5 at theta = 0.5; the window selects 1 of 3, so c_hat = 1/3
        # <= b* and the terms are [0.5, 0.5, -0.5]: mean 1/6, sd sqrt(1/3),
        # t = 0.5 on df = 2. The t_2 CDF is 1/2 + t / (2 sqrt(2 + t^2)),
        # so p = 1/2 - 1/6 = 1/3.
        pair = CoverageBound(
            c_target=0.5, b_star=0.5, theta=0.5, iterations=1, empirical_coverage_at_fit=0.5
        )
        report = detect(manual_model([pair]), ScoreSample([0.4, 0.4, 0.6]), alpha=0.05)
        assert report.v_statistic == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert report.p_value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert not report.shift_detected

    def test_constant_positive_terms_degenerate_p_zero(self):
        # every instance is below theta, so every term equals b* and sd = 0
        pair = CoverageBound(
            c_target=0.5, b_star=0.5, theta=0.5, iterations=1, empirical_coverage_at_fit=0.5
        )
        report = detect(manual_model([pair]), ScoreSample([0.1, 0.2, 0.3]), alpha=0.05)
        assert report.v_statistic == 0.5
        assert report.p_value == 0.0
        assert report.shift_detected

    def test_score_equal_to_theta_is_selected(self):
        pair = CoverageBound(
            c_target=0.5, b_star=0.5, theta=0.5, iterations=1, empirical_coverage_at_fit=0.5
        )
        report = detect(manual_model([pair]), ScoreSample([0.5, 0.5, 0.4]), alpha=0.05)
        check = report.per_coverage[0]
        assert check.empirical_coverage == 2.0 / 3.0
        assert not check.violated
        assert report.v_statistic == 0.0
        assert report.p_value == 1.0

    def test_matches_per_coverage_loop(self):
        # Models fitted on half-tied samples at every C in [1, 20], and the
        # same models with b* snapped to a multiple of 1/20 so that c_hat == b*
        # occurs; windows of k in [2, 200] drawn around the training
        # distribution, some holding threshold values. Every report field,
        # value and type, must equal the one-coverage-at-a-time definition.
        ks = [2, 3, 4, 10, 20, 37, 40, 100, 200]
        for c_count, snapped in itertools.product(range(1, 21), (False, True)):
            rng = substream(4300 + snapped, c_count)
            m = 400
            tied = rng.integers(0, 20, size=m // 2) / 20.0
            sample = np.concatenate([tied, rng.random(m - m // 2)])
            model = fit(ScoreSample(sample), delta=0.05, c_target_count=c_count)
            if snapped:
                pairs = [replace(p, b_star=round(p.b_star * 20) / 20) for p in model.pairs]
                model = replace(model, pairs=tuple(pairs))
            thetas = np.array([p.theta for p in model.pairs])
            for i, k in enumerate([*ks, *rng.integers(2, 201, size=5)]):
                window = rng.beta(1.0 + i % 3, 1.0, size=k)
                if i % 2:
                    n_exact = int(rng.integers(1, k + 1))
                    positions = rng.choice(k, size=n_exact, replace=False)
                    window[positions] = rng.choice(thetas, size=n_exact)
                if i % 5 == 4:
                    window = np.round(window * 20.0) / 20.0
                report = detect(model, ScoreSample(window), alpha=0.05)
                means, checks = violation_means_loop(model, ScoreSample(window))
                self._assert_report_equals(report, means, checks, alpha=0.05)

    @staticmethod
    def _assert_report_equals(report, means, checks, alpha):
        n = means.size
        mean = float(means.mean())
        sd = float(means.std(ddof=1))
        if sd == 0.0:
            p = 1.0 if mean <= 0.0 else 0.0
        else:
            p = 1.0 - student_t_cdf(mean / (sd / math.sqrt(n)), n - 1)
        assert report.v_statistic == max(0.0, mean)
        assert report.p_value == p
        assert report.shift_detected == (p < alpha)
        assert report.window_size == n
        assert [tuple(c) for c in report.per_coverage] == list(checks)
        assert [tuple(map(type, c)) for c in report.per_coverage] == [
            tuple(map(type, c)) for c in checks
        ]
        json.dumps([c._asdict() for c in report.per_coverage])

    def test_window_size_validation(self, small_model):
        with pytest.raises(ValueError, match="k >= 2"):
            detect(small_model, ScoreSample([0.5]), alpha=0.05)

    def test_alpha_validation(self, small_model):
        window = ScoreSample([0.5, 0.6])
        with pytest.raises(ValueError):
            detect(small_model, window, alpha=-0.01)
        with pytest.raises(ValueError):
            detect(small_model, window, alpha=1.0)
        # alpha = 0 is allowed and can never flag
        report = detect(small_model, window, alpha=0.0)
        assert not report.shift_detected

    def test_v_nonnegative_on_random_windows(self, small_model):
        for i in range(50):
            window = ScoreSample(substream(7000, i).random(40))
            report = detect(small_model, window, alpha=0.05)
            assert report.v_statistic >= 0.0

    def test_monotone_transform_invariance_end_to_end(self):
        raw = substream(81, 0).random(2000)
        window_raw = substream(82, 0).random(100)

        def transform(x):
            return np.exp(2.0 * x)

        model_a = fit(ScoreSample(raw), delta=0.05, c_target_count=5)
        model_b = fit(ScoreSample(transform(raw)), delta=0.05, c_target_count=5)
        rep_a = detect(model_a, ScoreSample(window_raw), alpha=0.05)
        rep_b = detect(model_b, ScoreSample(transform(window_raw)), alpha=0.05)
        assert rep_a.v_statistic == rep_b.v_statistic
        assert rep_a.p_value == rep_b.p_value
        for ca, cb in zip(rep_a.per_coverage, rep_b.per_coverage):
            assert ca.empirical_coverage == cb.empirical_coverage
            assert ca.violated == cb.violated
            assert ca.b_star == cb.b_star

    def test_id_calibration_small(self, small_model):
        n_windows, k = 200, 50
        rejections = 0
        for i in range(n_windows):
            window = ScoreSample(beta_scores(5, 1, k, stream=910, index=i))
            rejections += detect(small_model, window, alpha=0.05).shift_detected
        bound = 0.05 + 3 * np.sqrt(0.05 * 0.95 / n_windows)
        assert rejections / n_windows <= bound

    def test_shifted_windows_power(self, small_model):
        # Beta(2,2) windows of k=1000 against a Beta(5,1) model
        detected = 0
        for i in range(100):
            window = ScoreSample(beta_scores(2, 2, 1000, stream=920, index=i))
            if detect(small_model, window, alpha=0.05).p_value < 0.01:
                detected += 1
        assert detected >= 95


class TestModelSerialization:
    def test_round_trip_field_exact(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model, str(path))
        loaded = load_model(str(path))
        assert loaded == small_model

    def test_round_trip_awkward_floats(self, tmp_path):
        pair = CoverageBound(
            c_target=float(np.nextafter(0.1, 1.0)),
            b_star=1.0 / 3.0,
            theta=-1.2345678901234567e-89,
            iterations=3,
            empirical_coverage_at_fit=float(np.nextafter(1.0, 0.0)),
        )
        model = manual_model([pair])
        path = tmp_path / "model.json"
        save_model(model, str(path))
        assert load_model(str(path)) == model

    def test_format_1_on_disk(self, tmp_path):
        # The file text, keys and their order included, as format 1 writes it.
        pairs = [
            CoverageBound(0.1, 0.09871234567890123, 0.9744612082, 12, 0.1002),
            CoverageBound(0.55, 1.0 / 3.0, -1.5e-7, 3, 1.0),
        ]
        path = tmp_path / "model.json"
        save_model(manual_model(pairs), str(path))
        assert path.read_text(encoding="utf-8") == FORMAT_1_TWO_PAIRS

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\x1f\x8b\x08\x00")
        match = f"^{path}: not a valid model file: 'utf-8' codec can't decode byte 0x8b"
        with pytest.raises(ModelFormatError, match=match):
            load_model(str(path))

    def test_future_version_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model, str(path))
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(str(path))

    def test_non_increasing_targets_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model, str(path))
        payload = json.loads(path.read_text())
        payload["pairs"][0]["c_target"], payload["pairs"][1]["c_target"] = (
            payload["pairs"][1]["c_target"],
            payload["pairs"][0]["c_target"],
        )
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError):
            load_model(str(path))

    def _tampered(self, small_model, tmp_path, edit):
        path = tmp_path / "model.json"
        save_model(small_model, str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return str(path)

    def test_non_finite_theta_rejected(self, small_model, tmp_path):
        nan_theta = lambda p: p["pairs"][3].update(theta=float("nan"))
        path = self._tampered(small_model, tmp_path, nan_theta)
        with pytest.raises(ModelFormatError, match="theta"):
            load_model(path)

    @pytest.mark.parametrize("delta", [0.0, 1.0, 7.0, -0.01])
    def test_delta_outside_unit_interval_rejected(self, small_model, tmp_path, delta):
        path = self._tampered(small_model, tmp_path, lambda p: p.update(delta=delta))
        with pytest.raises(ModelFormatError, match="delta"):
            load_model(path)

    @pytest.mark.parametrize("m", [-5, 0, 1])
    def test_m_below_two_rejected(self, small_model, tmp_path, m):
        path = self._tampered(small_model, tmp_path, lambda p: p.update(m=m))
        with pytest.raises(ModelFormatError, match="m must be >= 2"):
            load_model(path)

    @pytest.mark.parametrize(
        "message,edit",
        [
            ("m must be a JSON integer", lambda p: p.update(m=500.9)),
            ("m must be a JSON integer", lambda p: p.update(m=5000.0)),
            ("m must be a JSON integer", lambda p: p.update(m="5000")),
            ("c_target_count must be", lambda p: p.update(c_target_count=10.7)),
            ("iterations must be", lambda p: p["pairs"][0].update(iterations=3.9)),
            ("unsupported format_version", lambda p: p.update(format_version=True)),
            ("at least one coverage pair", lambda p: p.update(c_target_count=0, pairs=[])),
            ("expected 5 coverage pairs, got 10", lambda p: p.update(c_target_count=5)),
        ],
        ids=[
            "m-fraction", "m-float", "m-string", "c_target_count", "iterations", "bool-version",
            "zero-pairs", "count-mismatch",
        ],
    )
    def test_non_integer_count_rejected(self, small_model, tmp_path, message, edit):
        # a truncating int() would load 500.9 as 500 and true as format_version 1;
        # c_target_count must also equal the number of pairs, of which there is at least one
        path = self._tampered(small_model, tmp_path, edit)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "message,edit",
        [
            ("delta must be a JSON number", lambda p: p.update(delta="0.01")),
            ("b_star must be a JSON number", lambda p: p["pairs"][0].update(b_star=True)),
            ("theta must be a JSON number", lambda p: p["pairs"][2].update(theta="0.5")),
            ("c_target must be a JSON number", lambda p: p["pairs"][0].update(c_target=None)),
            (
                "empirical_coverage_at_fit must be a JSON number",
                lambda p: p["pairs"][1].update(empirical_coverage_at_fit=[0.5]),
            ),
            ("kappa_name must be a JSON string", lambda p: p.update(kappa_name=None)),
            ("pairs must be a JSON list of objects", lambda p: p.update(pairs="abc")),
            ("pairs must be a JSON list of objects", lambda p: p.update(pairs=["abc"])),
        ],
        ids=[
            "delta-string", "b_star-bool", "theta-string", "c_target-null",
            "coverage-list", "kappa-null", "pairs-string", "pairs-of-strings",
        ],
    )
    def test_wrong_json_type_rejected(self, small_model, tmp_path, message, edit):
        # float() and str() would load "0.01" as 0.01, true as 1.0 and null as "None"
        path = self._tampered(small_model, tmp_path, edit)
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize("kappa", ["foo", "sr", ""])
    def test_unknown_kappa_label_rejected(self, small_model, tmp_path, kappa):
        # Only the three confidence function values name a model's scores;
        # an alias such as "sr" is a CLI spelling, not a label.
        path = self._tampered(small_model, tmp_path, lambda p: p.update(kappa_name=kappa))
        with pytest.raises(ModelFormatError, match=f"^{path}: malformed model file: kappa_name"):
            load_model(path)

    def test_integer_reals_load_as_floats(self, small_model, tmp_path):
        def integral(p):
            p["pairs"][0].update(b_star=0)
            p["pairs"][-1].update(empirical_coverage_at_fit=1)

        model = load_model(self._tampered(small_model, tmp_path, integral))
        assert type(model.pairs[0].b_star) is float and model.pairs[0].b_star == 0.0
        assert model.pairs[-1].empirical_coverage_at_fit == 1.0

    @pytest.mark.parametrize("coverage", [7.5, -0.25, float("nan")])
    def test_coverage_at_fit_outside_unit_interval_rejected(
        self, small_model, tmp_path, coverage
    ):
        edit = lambda p: p["pairs"][4].update(empirical_coverage_at_fit=coverage)
        path = self._tampered(small_model, tmp_path, edit)
        with pytest.raises(ModelFormatError, match="empirical_coverage_at_fit"):
            load_model(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ModelFormatError):
            load_model(str(path))


class TestWriteAtomic:
    def test_new_file_gets_mode_of_plain_open(self, tmp_path):
        path = tmp_path / "out.csv"
        old = os.umask(0o022)
        try:
            write_atomic(str(path), "a\n")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert path.read_text() == "a\n"

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        write_atomic(str(path), "new\n")
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.csv"]
