import hashlib
import itertools
import json
import math
import os
import pickle
import stat
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import covshift.bounds as bounds
import covshift.sgc as sgc
import covshift.detector as detector_module
from covshift.detector import (
    DEFAULT_C_TARGET_COUNT,
    DEFAULT_DELTA,
    CoverageCheck,
    DetectorModel,
    ModelFormatError,
    coverage_grid,
    detect,
    fit,
    load_model,
    save_model,
    violation_statistic,
    write_atomic,
)
from covshift.eval import BetaDist, CoverageDetectorMethod, gen_scores
from covshift.scores import ScoreSample
from covshift.sgc import CoverageBound
from covshift.stats import student_t_cdf, substream
from oracles import violation_means_loop, violation_statistic_exact


def beta_scores(a, b, n, stream, index=0):
    g1 = substream(stream, index).standard_gamma(a, size=n)
    g2 = substream(stream + 1, index).standard_gamma(b, size=n)
    return g1 / (g1 + g2)


@pytest.fixture(scope="module")
def small_model():
    sample = ScoreSample(beta_scores(5, 1, 5000, stream=900))
    return fit(sample, delta=0.01, c_target_count=10)


@pytest.fixture(scope="module")
def pinned_model():
    # The m = 20 000 fit of PINNED_FITS.
    return fit(gen_scores(BetaDist(5.0, 1.0), 20_000, seed=3), delta=0.01, c_target_count=10)


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

    def test_per_iteration_delta_whose_complement_rounds_to_one_rejected(self):
        # m = 2**20 + 1 splits delta over ceil(log2 m) = 21 iterations, and
        # 1e-15 / 21 is below 2**-54, where 1 - delta rounds to 1.
        sample = ScoreSample(substream(7, 0).random(2**20 + 1))
        with pytest.raises(ValueError) as info:
            fit(sample, delta=1e-15)
        assert str(info.value).startswith(
            "delta=1e-15 at m=1048577 gives a per-iteration delta of delta / ceil(log2 m) "
            "= 1e-15 / 21 = 4.76e-17, at or below 2**-54"
        )

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


# float.hex of (b_star, theta, empirical_coverage_at_fit) for each coverage
# of fit(gen_scores(BetaDist(5, 1), m, seed=3), delta=0.01, c_target_count=10).
# Every bound solve goes through the incomplete beta, at m = 500 as at
# m = 20 000.
PINNED_FITS = {
    500: [
        ("0x1.9925f9c400000p-4", "0x1.f3a9f30d32ea6p-1", "0x1.22d0e56041893p-3"),
        ("0x1.8499701200000p-3", "0x1.e78b56926efb3p-1", "0x1.f3b645a1cac08p-3"),
        ("0x1.1d3adc1f00000p-2", "0x1.da2ccb0124497p-1", "0x1.5c28f5c28f5c3p-2"),
        ("0x1.79383ced00000p-2", "0x1.cb01efe7d84c9p-1", "0x1.bc6a7ef9db22dp-2"),
        ("0x1.d7bf5cbb00000p-2", "0x1.bab909fb5e7a5p-1", "0x1.0e5604189374cp-1"),
        ("0x1.1a4a326600000p-1", "0x1.a851184c1220dp-1", "0x1.3c6a7ef9db22dp-1"),
        ("0x1.47cc40fe80000p-1", "0x1.99ad10f01a044p-1", "0x1.6872b020c49bap-1"),
        ("0x1.76ae41ef80000p-1", "0x1.777c483db2b09p-1", "0x1.947ae147ae148p-1"),
        ("0x1.a2e24e2400000p-1", "0x1.57d15548881c1p-1", "0x1.bc6a7ef9db22dp-1"),
        ("0x1.d21eaabc00000p-1", "0x1.22d35185ae051p-1", "0x1.e45a1cac08312p-1"),
    ],
    20_000: [
        ("0x1.99a0b98c00000p-4", "0x1.f4d0312ae13f9p-1", "0x1.b5a858793dd98p-4"),
        ("0x1.8512a97a00000p-3", "0x1.ea4b1b992cf6fp-1", "0x1.9758e219652bdp-3"),
        ("0x1.1eb95f9300000p-2", "0x1.deafdbef786fap-1", "0x1.292a305532618p-2"),
        ("0x1.7ad480cd00000p-2", "0x1.d14a78eb83f33p-1", "0x1.860aa64c2f838p-2"),
        ("0x1.d700100500000p-2", "0x1.c29a8ad272876p-1", "0x1.e28f5c28f5c29p-2"),
        ("0x1.1999044a80000p-1", "0x1.b220c1aac0224p-1", "0x1.1f5c28f5c28f6p-1"),
        ("0x1.47a854a500000p-1", "0x1.9eeb799fbdcf0p-1", "0x1.4d35a858793dep-1"),
        ("0x1.75c0fc4780000p-1", "0x1.87162ea2034e2p-1", "0x1.7ae147ae147aep-1"),
        ("0x1.a3d177fd00000p-1", "0x1.686b04a972e59p-1", "0x1.a83e425aee632p-1"),
        ("0x1.d1eafcb100000p-1", "0x1.38f9a18f16672p-1", "0x1.d532617c1bda5p-1"),
    ],
}


class TestPinnedFit:
    @pytest.mark.parametrize("m", sorted(PINNED_FITS))
    def test_fitted_floats_are_pinned(self, m, monkeypatch):
        # Each binomial_cdf call of the fit records how many incomplete_beta
        # calls it made.
        beta_calls = []
        real_incomplete_beta = bounds.incomplete_beta
        real_binomial_cdf = bounds.binomial_cdf

        def counting_beta(*args):
            beta_calls[-1] += 1
            return real_incomplete_beta(*args)

        def counting_cdf(*args):
            beta_calls.append(0)
            return real_binomial_cdf(*args)

        monkeypatch.setattr(bounds, "incomplete_beta", counting_beta)
        monkeypatch.setattr(bounds, "binomial_cdf", counting_cdf)
        model = fit(gen_scores(BetaDist(5.0, 1.0), m, seed=3), delta=0.01, c_target_count=10)
        got = [
            (p.b_star.hex(), p.theta.hex(), p.empirical_coverage_at_fit.hex())
            for p in model.pairs
        ]
        assert got == PINNED_FITS[m]
        assert beta_calls and set(beta_calls) == {1}


# float.hex of (v_statistic, p_value) for detect(pinned_model, window, 0.05) on
# each of pinned_windows(pinned_model), in order.
PINNED_DETECTS = [
    ("0x1.47b3c7a333333p-7", "0x0.0p+0"),
    ("0x1.0b8d587955556p-5", "0x1.b8d566bf0b390p-3"),
    ("0x1.eb6c0e930a3d6p-5", "0x1.4a941ecf6bd94p-3"),
    ("0x1.05ee7e041893ap-9", "0x1.7e59ab4a1fa2ap-2"),
    ("0x1.6d678b295e9dap-10", "0x1.8114b367f2220p-2"),
    ("0x1.603b4ae5ccccdp-3", "0x1.3b95b1c792d78p-2"),
    ("0x1.e8b4fc9e22223p-5", "0x1.566f637dba7a4p-2"),
    ("0x1.708ea354a3d70p-4", "0x1.50d6d4e2d4ffep-3"),
    ("0x1.0e4b2e8489376p-3", "0x1.c7e9cedf742a9p-14"),
    ("0x1.0a6708d5a3055p-3", "0x1.485a8bfeb107cp-111"),
    ("0x1.fff580deccccdp-4", "0x1.68e2835b7d900p-2"),
    ("0x1.e2f72b65c4445p-2", "0x1.44e986d19843ap-9"),
    ("0x1.b32dc8692e146p-2", "0x1.d04102b65190cp-22"),
    ("0x1.b433ed465d2f2p-2", "0x1.3fbc913a8b72fp-148"),
    ("0x1.a27cd5ed7b15bp-2", "0x0.0p+0"),
    ("0x1.1680cf9600000p-3", "0x1.0ff51164399cbp-2"),
    ("0x1.6500571211112p-3", "0x1.698fb7c445338p-3"),
    ("0x1.3f65f1ca147adp-5", "0x1.047d7954461eap-2"),
    ("0x1.063fd454fdf33p-10", "0x1.a567eb5777216p-2"),
    ("0x1.a3010a1e4f733p-12", "0x1.549d74440c63bp-2"),
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("0x1.028ca6c3f3333p-1", "0x0.0p+0"),
    ("0x1.26dd2f9d47ae3p-5", "0x1.cf3942e42cf8ap-3"),
]


def pinned_windows(model):
    # Twenty Beta windows, k cycling through 2, 3, 10, 100 and 1000: one
    # in-distribution set, then three shifted ones. Then a window above
    # every theta (no coverage violated, p = 1), one below every theta
    # (every coverage violated and every instance alike, p = 0) and one
    # holding theta_5 three times.
    shapes = ((5.0, 1.0), (3.0, 1.0), (2.0, 2.0), (5.0, 1.0))
    windows = [
        substream(5100, i).beta(*shapes[i // 5], size=(2, 3, 10, 100, 1000)[i % 5])
        for i in range(20)
    ]
    theta = model.pairs[4].theta
    holding_theta = np.array([theta] * 3 + [0.5] * 3 + [0.99] * 4)
    return [*windows, np.full(10, 2.0), np.full(10, -1.0), holding_theta]


def assert_matches_exact_statistic(report, model, window):
    """V within 2**-50 of the exact V, and p from the exact t or the degenerate rule."""
    v, t = violation_statistic_exact(model, window)
    assert abs(Fraction(report.v_statistic) - v) <= Fraction(1, 2**50)
    if t is None:
        assert report.p_value == (1.0 if v == 0 else 0.0)
    else:
        p = student_t_cdf(-t, len(window) - 1)
        assert report.p_value == pytest.approx(p, rel=1e-12, abs=0.0)


class TestPinnedDetect:
    def test_detect_floats_are_pinned(self, pinned_model):
        windows = [ScoreSample(w) for w in pinned_windows(pinned_model)]
        reports = [detect(pinned_model, w, alpha=0.05) for w in windows]
        got = [(r.v_statistic.hex(), r.p_value.hex()) for r in reports]
        assert got == PINNED_DETECTS
        # Each pin is the exact statistic to within its rounding.
        for report, window in zip(reports, windows):
            assert_matches_exact_statistic(report, pinned_model, window)
        # The k = 2 window 0 has two equal per-instance means and a positive
        # V, so its p is 0; the last window's fifth coverage selects the
        # theta-valued scores and holds.
        assert reports[0].p_value == 0.0 and reports[0].v_statistic > 0.0
        assert [c.violated for c in reports[-1].per_coverage] == [False] * 7 + [True] * 3


# The three models of TestEveryCountVector, as (c_target, b_star, theta).
COUNT_VECTOR_MODELS = {
    # D = 1; c_hat == b* = 0.5 at every even k.
    "one-edge": [(0.1, 0.5, 0.5)],
    # D = 2; the first two coverages share a theta.
    "shared-theta": [(0.1, 0.25, 0.8), (0.2, 0.5, 0.8), (0.3, 0.75, 0.3)],
    # D = 3; b* = 1/3 is the float of 1/3 and 2/6, and 0.6 and 0.8
    # those of 3/5 and 4/5.
    "three-edges": [(0.1, 1 / 3, 0.9), (0.4, 0.6, 0.6), (0.7, 0.8, 0.2)],
}


def count_vector_model(name):
    return manual_model(
        CoverageBound(c, b, theta, 1, 0.5) for c, b, theta in COUNT_VECTOR_MODELS[name]
    )


def count_vector_windows(model):
    """One window for every bin-count vector of k = 2 to 7 scores.

    The bins lie between the model's D distinct thresholds, so a window
    draws its scores from one per bin: below the lowest threshold for
    bin 0, and the i-th smallest threshold for bin i.
    """
    edges = sorted(set(model.thetas.tolist()))
    bin_scores = [edges[0] - 1.0, *edges]
    for k in range(2, 8):
        for bins in itertools.combinations_with_replacement(range(len(edges) + 1), k):
            window = ScoreSample([bin_scores[i] for i in bins])
            counts = np.bincount(np.searchsorted(edges, window.scores, "right"),
                                 minlength=len(edges) + 1)
            assert counts.tolist() == [bins.count(i) for i in range(len(edges) + 1)]
            yield window


class TestEveryCountVector:
    """detect reads only the counts N_j of the window's scores at or above
    each theta_j. Those are sums of the window's counts in the D + 1 bins
    between the distinct thresholds, so every bin-count vector of a small
    window can be checked against the exact statistic."""

    @pytest.mark.parametrize("name", list(COUNT_VECTOR_MODELS), ids=list(COUNT_VECTOR_MODELS))
    def test_matches_exact_statistic(self, name):
        model = count_vector_model(name)
        ties = 0
        for window in count_vector_windows(model):
            report = detect(model, window, alpha=0.05)
            assert_matches_exact_statistic(report, model, window)
            ties += sum(c.empirical_coverage == c.b_star for c in report.per_coverage)
        assert ties > 0


class TestModelColumns:
    def test_read_only_columns_of_the_pairs(self, small_model):
        thetas = small_model.thetas
        assert thetas.dtype == small_model.b_stars.dtype == np.float64
        assert thetas.shape == (len(small_model.pairs),)
        assert thetas.tolist() == [p.theta for p in small_model.pairs]
        assert small_model.b_stars.tolist() == [p.b_star for p in small_model.pairs]
        for column in (thetas, small_model.b_stars):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        for name in ("edges", "selected"):
            assert not hasattr(small_model, name)

    def test_tied_thresholds_kept_in_pair_order(self):
        pairs = [
            CoverageBound(c, b, theta, 1, 0.5)
            for c, b, theta in [(0.1, 0.1, 0.9), (0.2, 0.2, 0.5), (0.3, 0.3, 0.5), (0.4, 0.4, 0.1)]
        ]
        model = manual_model(pairs)
        assert model.thetas.tolist() == [0.9, 0.5, 0.5, 0.1]
        report = detect(model, ScoreSample([0.5, 0.5, 0.2, 0.95]), alpha=0.05)
        assert [c.empirical_coverage for c in report.per_coverage] == [0.25, 0.75, 0.75, 1.0]

    def test_ignored_by_eq_hash_and_repr(self, small_model):
        twin = replace(small_model)
        assert twin.thetas is not small_model.thetas
        assert twin == small_model
        assert hash(twin) == hash(small_model)
        for name in ("thetas", "b_stars"):
            assert name not in repr(small_model)
        assert twin != replace(small_model, m=small_model.m + 1)

    def test_rebuilt_by_replace(self, small_model):
        pairs = tuple(
            replace(p, b_star=p.b_star / 2, theta=p.theta + 1.0) for p in small_model.pairs
        )
        model = replace(small_model, pairs=pairs)
        assert model.thetas.tolist() == [p.theta for p in pairs]
        assert model.b_stars.tolist() == [p.b_star for p in pairs]
        for column in (model.thetas, model.b_stars):
            assert not column.flags.writeable
        with pytest.raises(ValueError, match="init=False"):
            replace(small_model, thetas=small_model.thetas)

    def test_survive_pickle(self, small_model):
        model = pickle.loads(pickle.dumps(small_model))
        assert model == small_model
        for name in ("thetas", "b_stars"):
            column = getattr(model, name)
            assert column.dtype == np.float64
            assert column.tolist() == getattr(small_model, name).tolist()
            assert not column.flags.writeable


class TestSolvedDecisions:
    @pytest.mark.parametrize("m", sorted(PINNED_FITS))
    def test_pinned_fit_when_every_decision_solves(self, m, monkeypatch):
        # No CDF clears an infinite margin, so every SGC decision solves its
        # bound and every solve bisects without a bracket. The decisions
        # are the bound_at_most calls of the success threshold's search;
        # the bound at m successes is decided from its closed form.
        decisions = solves = 0
        at_most, solve = bounds.bound_at_most, bounds.solve_bound

        def counting_decisions(*args):
            nonlocal decisions
            decisions += 1
            return at_most(*args)

        def counting_solves(*args):
            nonlocal solves
            solves += 1
            return solve(*args)

        monkeypatch.setattr(bounds, "_margin", lambda delta, limit: math.inf)
        monkeypatch.setattr(bounds, "bound_at_most", counting_decisions)
        monkeypatch.setattr(bounds, "solve_bound", counting_solves)
        monkeypatch.setattr(sgc, "solve_bound", counting_solves)
        model = fit(gen_scores(BetaDist(5.0, 1.0), m, seed=3), delta=0.01, c_target_count=10)
        got = [
            (p.b_star.hex(), p.theta.hex(), p.empirical_coverage_at_fit.hex())
            for p in model.pairs
        ]
        assert got == PINNED_FITS[m]
        assert decisions > 0
        assert solves == decisions + len(model.pairs)


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


def t_tail_cases(df):
    """(i, model, window) for 300 windows of k = df + 1 close scores.

    Two cases in three pair a model of up to C = 900 coverages with random
    bounds and thresholds with a window of close scores; the third holds
    one coverage and a window of scores all below its threshold.
    """
    k = df + 1
    for i in range(300):
        rng = substream(4400 + df, i)
        if i % 3:
            c = int(rng.integers(1, 901))
            targets = np.linspace(0.1, 0.9, c)
            b_stars = rng.uniform(0.7, 1.0, c)
            thetas = rng.random(c)
            window = rng.random() + rng.random(k) / (1 + i % 100)
        else:
            targets, b_stars, thetas = [0.5], [rng.random()], [0.5]
            window = np.full(k, 0.25)
        model = manual_model(
            CoverageBound(float(c_target), float(b), float(theta), 1, 0.5)
            for c_target, b, theta in zip(targets, b_stars, thetas)
        )
        yield i, model, window


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
        # distribution, some holding threshold values. The coverage checks,
        # value and type, must equal the one-coverage-at-a-time definition,
        # and V and p the exact statistic to within their rounding.
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
                sample = ScoreSample(window)
                report = detect(model, sample, alpha=0.05)
                self._assert_report_equals(report, model, sample, alpha=0.05)

    @pytest.mark.parametrize("k", [2, 3, 10, 100, 1000])
    def test_window_order_changes_no_bit(self, pinned_model, k):
        # The report is a function of the window's per-coverage counts, so a
        # shuffled window and the sorted one give the same floats, on the
        # pinned fit and on fits of half-tied samples against windows on
        # their ties.
        models = [pinned_model]
        for c_count in (3, 10):
            rng = substream(4500, c_count)
            sample = np.concatenate([rng.integers(0, 20, size=200) / 20.0, rng.random(200)])
            models.append(fit(ScoreSample(sample), delta=0.05, c_target_count=c_count))
        for i, model in enumerate(models):
            for j in range(20):
                rng = substream(4600 + k, 20 * i + j)
                window = rng.beta(1.0 + j % 3, 1.0, size=k)
                if j % 2:
                    window = np.round(window * 20.0) / 20.0
                shuffled, ordered = (
                    detect(model, ScoreSample(w), alpha=0.05)
                    for w in (rng.permutation(window), np.sort(window))
                )
                assert shuffled.v_statistic.hex() == ordered.v_statistic.hex(), (i, j)
                assert shuffled.p_value.hex() == ordered.p_value.hex(), (i, j)
                assert shuffled.per_coverage == ordered.per_coverage

    def test_t_cdf_called_once_per_window_with_spread(self, small_model, monkeypatch):
        # detect reads the t CDF through covshift.detector's module global,
        # once per window whose per-instance means spread (alternating
        # scores below and above every threshold) and never for one whose
        # means are all equal.
        calls = []

        def counting(t, df):
            calls.append(df)
            return student_t_cdf(t, df)

        monkeypatch.setattr(detector_module, "student_t_cdf", counting)
        for k in (2, 3, 10, 100):
            window = ScoreSample(np.resize([-1.0, 2.0], k))
            assert violation_means_loop(small_model, window)[0].std() > 0.0
            detect(small_model, window, alpha=0.05)
            assert calls == [k - 1], k
            calls.clear()
        # No coverage violated, and every coverage violated at k = 2, where
        # the mean of two equal means is exact.
        for window in (np.full(10, 2.0), np.full(2, -1.0)):
            report = detect(small_model, ScoreSample(window), alpha=0.05)
            assert report.p_value in (0.0, 1.0)
        assert calls == []

    def test_equal_means_are_degenerate_at_every_window_size(self, small_model):
        # Scores below every threshold violate every coverage and give k
        # equal per-instance means. Their rounded mean leaves a sd of a few
        # ulp at some k (10 and 20 here), which must not reach the t CDF.
        for k in (2, 3, 5, 10, 20, 30, 100):
            report = detect(small_model, ScoreSample(np.full(k, -1.0)), alpha=0.05)
            assert report.v_statistic > 0.0
            assert report.p_value == 0.0, k

    @pytest.mark.parametrize("df", [1, 2])
    def test_upper_tail_matches_closed_form(self, df):
        # P(T >= t) on df = 1 and 2 in closed form. The k = df + 1 terms
        # of a window differ by multiples of 1/C, so close scores against
        # models of up to C = 900 coverages give t in the hundreds, where
        # 1 - cdf(t) would lose several digits. For k = 3, terms that
        # all equal one b* have equal means, whose rounded mean leaves a sd
        # of a few ulp; they are degenerate, with p = 0, not a t of 1e15.
        def upper_tail(t):
            if df == 1:
                return math.atan(1.0 / t) / math.pi
            r = math.sqrt(2.0 + t * t)
            return 1.0 / (r * (r + t))

        k = df + 1
        largest = 0.0
        degenerate = 0
        for i, model, window in t_tail_cases(df):
            means, _ = violation_means_loop(model, ScoreSample(window))
            sd = float(means.std(ddof=1))
            if sd == 0.0 or means.mean() <= 0.0:
                continue
            p = detect(model, ScoreSample(window), alpha=0.05).p_value
            if means.min() == means.max():
                assert p == 0.0, i
                degenerate += 1
                continue
            t = float(means.mean()) / (sd / math.sqrt(k))
            largest = max(largest, t)
            assert p == pytest.approx(upper_tail(t), rel=1e-12, abs=0.0), (i, t)
        assert largest > 500.0
        assert (degenerate > 0) == (df == 2)

    @staticmethod
    def _assert_report_equals(report, model, window, alpha):
        _, checks = violation_means_loop(model, window)
        assert_matches_exact_statistic(report, model, window)
        assert type(report.v_statistic) is type(report.p_value) is float
        assert report.shift_detected == (report.p_value < alpha)
        assert report.window_size == len(window)
        assert all(type(c) is CoverageCheck for c in report.per_coverage)
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


class TestCoverageDetectorMethod:
    """eval's "ours" adaptor scores the raw window with violation_statistic
    and builds no ScoreSample or report; its p-value must be detect's, bit
    for bit."""

    @staticmethod
    def assert_same_p_values(model, windows):
        method = CoverageDetectorMethod(model)
        checked = 0
        for window in windows:
            scores = np.array(window)
            report = detect(model, ScoreSample(scores, model.kappa_name), alpha=0.05)
            assert method.p_value(scores, seed=0).hex() == report.p_value.hex()
            c_hat, violated, v, p = violation_statistic(model, scores)
            assert (v.hex(), p.hex()) == (report.v_statistic.hex(), report.p_value.hex())
            assert [tuple(c)[2:] for c in report.per_coverage] == list(
                zip(c_hat.tolist(), violated.tolist())
            )
            checked += 1
        assert checked > 0

    def test_pinned_windows(self, pinned_model):
        self.assert_same_p_values(pinned_model, pinned_windows(pinned_model))

    @pytest.mark.parametrize("name", list(COUNT_VECTOR_MODELS), ids=list(COUNT_VECTOR_MODELS))
    def test_every_count_vector(self, name):
        model = count_vector_model(name)
        windows = [w.scores for w in count_vector_windows(model)]
        self.assert_same_p_values(model, windows)

    @pytest.mark.parametrize("k", [2, 3, 10, 100, 1000])
    def test_random_windows(self, small_model, pinned_model, k):
        # Beta windows around and off the training law; every other one
        # holds some of the model's thresholds.
        for i, model in enumerate((small_model, pinned_model)):
            windows = []
            for j in range(20):
                rng = substream(4700 + k, 20 * i + j)
                window = rng.beta(1.0 + j % 4, 1.0, size=k)
                if j % 2:
                    held = rng.choice(k, size=max(1, k // 4), replace=False)
                    window[held] = rng.choice(model.thetas, size=held.size)
                windows.append(window)
            self.assert_same_p_values(model, windows)

    @pytest.mark.parametrize("df", [1, 2])
    def test_t_tail_models(self, df):
        for _, model, window in t_tail_cases(df):
            self.assert_same_p_values(model, [window])

    @pytest.mark.parametrize(
        "window",
        [
            [0.5, math.nan, 0.7],
            [math.nan, math.nan],
            [0.5, math.inf],
            [-math.inf, 0.5, 0.6],
            [[0.5, 0.6], [0.7, 0.8]],
            [0.5],
            [],
        ],
        ids=["nan", "all-nan", "inf", "-inf", "2-d", "k=1", "empty"],
    )
    def test_bad_window_rejected(self, small_model, window):
        window = np.array(window, dtype=np.float64)
        with pytest.raises(ValueError, match="window"):
            CoverageDetectorMethod(small_model).p_value(window, seed=0)
        with pytest.raises(ValueError, match="window"):
            violation_statistic(small_model, window)


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

    def test_pinned_fit_file_bytes(self, pinned_model, tmp_path):
        # The model file of the m = 20 000 fit, byte for byte: the threshold
        # and bound arrays a model carries stay out of its file.
        path = tmp_path / "model.json"
        save_model(pinned_model, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "a87dbe2eaf4959b7495f300451a1dffc99503718e2c40652daa16490eec8063d"

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b"\x1f\x8b\x08\x00")
        match = f"^{path}: not a valid model file: 'utf-8' codec can't decode byte 0x8b"
        with pytest.raises(ModelFormatError, match=match):
            load_model(str(path))

    def test_leading_byte_order_mark_skipped(self, small_model, tmp_path):
        # Editors that save "UTF-8 with BOM" prefix the file with U+FEFF.
        plain = tmp_path / "model.json"
        save_model(small_model, str(plain))
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load_model(str(marked)) == load_model(str(plain)) == small_model

    @pytest.mark.parametrize("where", ["twice", "inside", "end"])
    def test_byte_order_mark_elsewhere_rejected(self, small_model, tmp_path, where):
        path = tmp_path / "model.json"
        save_model(small_model, str(path))
        text = path.read_bytes()
        mark = b"\xef\xbb\xbf"
        edited = {
            "twice": mark + mark + text,
            "inside": text.replace(b"{", b"{" + mark, 1),
            "end": text + mark,
        }[where]
        path.write_bytes(edited)
        with pytest.raises(ModelFormatError, match=f"^{path}: not a valid model file: "):
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
            ("iterations must be >= 1", lambda p: p["pairs"][0].update(iterations=0)),
            (r"b_star 1\.5 outside \[0, 1\]", lambda p: p["pairs"][3].update(b_star=1.5)),
        ],
        ids=[
            "m-fraction", "m-float", "m-string", "c_target_count", "iterations", "bool-version",
            "zero-pairs", "count-mismatch", "zero-iterations", "b_star-above-one",
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
        path.write_text('[{"format_version": 1}]')
        with pytest.raises(ModelFormatError, match="model file must hold a JSON object"):
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

    def test_modes_set_without_changing_the_umask(self, tmp_path, monkeypatch):
        # The umask is process-wide, so reading it by setting it would race
        # with files other threads create.
        def fail(*args):
            raise AssertionError("umask changed")

        new, replaced = tmp_path / "new.csv", tmp_path / "replaced.csv"
        replaced.write_text("old\n")
        replaced.chmod(0o640)
        old = os.umask(0o022)
        try:
            monkeypatch.setattr(os, "umask", fail)
            write_atomic(str(new), "a\n")
            write_atomic(str(replaced), "b\n")
        finally:
            monkeypatch.undo()
            os.umask(old)
        assert stat.S_IMODE(new.stat().st_mode) == 0o644
        assert stat.S_IMODE(replaced.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["new.csv", "replaced.csv"]

    @pytest.mark.parametrize("failing", ["replace", "fsync"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, failing, existing):
        path = tmp_path / "out.csv"
        if existing:
            path.write_text("old\n")

        def fail(*args):
            raise OSError(f"{failing} failed")

        monkeypatch.setattr(os, failing, fail)
        with pytest.raises(OSError, match=f"{failing} failed"):
            write_atomic(str(path), "new\n")
        monkeypatch.undo()
        assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
        if existing:
            assert path.read_text() == "old\n"
