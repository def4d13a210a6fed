"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

import itertools
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import beyond_count, percentile, sustained_op_seconds, tail_percentile  # noqa: E402
from tracer import (  # noqa: E402
    COVSHIFT_WRAPS,
    Span,
    Tracer,
    install_covshift,
    layer_metrics,
    self_times,
    solve_cache_hit_ratio,
)
from reference import (  # noqa: E402
    coverage_p_value,
    ks_bonferroni_p_value,
    mmd_p_value,
    reference_verdicts,
    trial_windows,
    welch_p_value,
)
from workloads import TimedMethod, write_decimal  # noqa: E402

import covshift  # noqa: E402


def tick_tracer() -> Tracer:
    ticks = itertools.count()
    return Tracer(clock=lambda: float(next(ticks)))


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        spans = [Span(0, -1, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 6.0), Span(2, 1, "b", 2.0, 4.0)]
        assert self_times(spans) == {0: 5.0, 1: 3.0, 2: 2.0}

    def test_back_to_back_children_are_not_double_counted(self):
        spans = [Span(0, -1, "root", 0.0, 10.0), Span(1, 0, "a", 2.0, 5.0), Span(2, 0, "b", 5.0, 9.0)]
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_overlapping_children_count_their_union(self):
        spans = [Span(0, -1, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 5.0), Span(2, 0, "b", 3.0, 7.0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_self_times_add_up_to_the_root(self):
        tracer = tick_tracer()
        owner = types.SimpleNamespace(leaf=lambda: None)
        owner.mid = lambda: (owner.leaf(), owner.leaf())
        tracer.wrap(owner, "leaf", "leaf")
        tracer.wrap(owner, "mid", "mid")
        with tracer.span("root") as root:
            owner.mid()
            owner.leaf()
        tracer.restore()
        selfs = self_times(tracer.spans)
        assert sum(selfs.values()) == pytest.approx(root.end - root.start)
        assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 0]


class TestTailRule:
    @pytest.mark.parametrize(
        "n, expected",
        [(10, None), (19, None), (20, 50.0), (33, 60.0), (80, 80.0), (100, 90.0),
         (136, 90.0), (999, 98.0), (1000, 99.0), (120_000, 99.0)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert tail_percentile(n) == expected
        if expected is not None:
            assert beyond_count(n, expected) >= 10

    def test_percentile_interpolates_and_agrees_with_the_median(self):
        assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
        assert percentile(list(range(101)), 90) == 90
        assert percentile([7.0], 99) == 7.0
        assert beyond_count(100, 90) == 10
        assert beyond_count(999, 99) == 9


def test_sustained_cost_reads_each_part_at_its_90th_percentile():
    # One slow sample in ten: the 90th percentile lies a tenth of the way
    # from the fast to the slow sample; two slow detects in twenty, a fifth.
    parts = {"fit": [1.0] * 9 + [2.0], "detect": [0.1] * 36 + [0.3] * 4}
    assert sustained_op_seconds(parts, ops=10) == pytest.approx(1.1 + 4 * 0.12)
    # A batch of 256 operations per sample costs 1/256 of a sample per operation.
    assert sustained_op_seconds({"detect": [2.56] * 5}, ops=5 * 256) == pytest.approx(0.01)


class TestRestore:
    @staticmethod
    def snapshot():
        state = {}
        for module_name, cls, attr, _ in COVSHIFT_WRAPS:
            owner = sys.modules[module_name]
            if cls is not None:
                owner = getattr(owner, cls)
            state[(module_name, cls, attr)] = vars(owner).get(attr, "<absent>")
        return state

    def test_install_then_restore_puts_back_every_attribute(self):
        import covshift.cli  # noqa: F401  (the tracer wraps cli's names too)

        before = self.snapshot()
        tracer = Tracer()
        with tracer:
            install_covshift(tracer)
            assert not tracer.missing
            during = self.snapshot()
            assert all(during[key] is not before[key] for key in before)
        after = self.snapshot()
        assert all(after[key] is before[key] for key in before)

    def test_restore_after_an_exception(self):
        before = self.snapshot()
        with pytest.raises(RuntimeError):
            with Tracer() as tracer:
                install_covshift(tracer)
                raise RuntimeError("boom")
        assert all(self.snapshot()[key] is before[key] for key in before)

    def test_inherited_attribute_is_removed_again(self):
        class Base:
            def f(self):
                return 1

        class Child(Base):
            pass

        tracer = Tracer()
        tracer.wrap(Child, "f", "f")
        assert Child().f() == 1 and "f" in vars(Child)
        tracer.restore()
        assert "f" not in vars(Child)

    def test_missing_attribute_is_reported_not_wrapped(self):
        tracer = Tracer()
        owner = types.SimpleNamespace()
        tracer.wrap(owner, "gone", "gone")
        assert tracer.missing and not hasattr(owner, "gone")

    def test_raised_calls_are_counted(self):
        tracer = tick_tracer()

        def fail():
            raise ValueError

        owner = types.SimpleNamespace(fail=fail)
        tracer.wrap(owner, "fail", "fail")
        with tracer.span("harness.timed") as root:
            with pytest.raises(ValueError):
                owner.fail()
        tracer.restore()
        assert tracer.spans[1].raised
        assert layer_metrics(tracer, root.id, ops=1)["trace.raised_calls"][0] == 1.0


def test_cache_hit_ratio_counts_solves_without_a_cdf_child():
    spans = [
        Span(0, -1, "bounds.solve_bound", 0, 1),
        Span(1, 0, "bounds.binomial_cdf", 0, 1),
        Span(2, -1, "bounds.solve_bound", 1, 2),
        Span(3, -1, "bounds.solve_bound", 2, 3),
    ]
    assert solve_cache_hit_ratio(spans) == pytest.approx(2 / 3)


def test_write_decimal_returns_exactly_what_a_reader_parses(tmp_path):
    rng = np.random.default_rng(3)
    column = np.concatenate([rng.random(500), [0.0, 1.0 - 1e-17, 0.999999999]])
    parsed = write_decimal(tmp_path / "col.txt", column)
    text = (tmp_path / "col.txt").read_text().split("\n")
    assert text[-1] == "" and np.array_equal(np.array([float(v) for v in text[:-1]]), parsed)
    table = rng.dirichlet([5, 1, 1], 200)
    parsed = write_decimal(tmp_path / "rows.csv", table)
    rows = (tmp_path / "rows.csv").read_text().strip().split("\n")
    assert np.array_equal(np.array([[float(c) for c in r.split(",")] for r in rows]), parsed)


def test_reference_verdicts_match_the_library():
    rng = np.random.default_rng(5)
    model = covshift.fit(covshift.ScoreSample(rng.beta(5, 1, 20_000)), delta=0.01, c_target_count=10)
    windows = np.concatenate([rng.beta(5, 1, (300, 10)), rng.beta(2, 2, (300, 10))])
    flagged, ambiguous = reference_verdicts(model, windows)
    library = np.array(
        [covshift.detect(model, covshift.ScoreSample(w), 0.05).shift_detected for w in windows])
    assert 0 < flagged.sum() < len(windows)
    assert np.array_equal(flagged[~ambiguous], library[~ambiguous])


class TestEvalReference:
    """The re-derived p-values agree with the library's on its own windows."""

    @pytest.fixture(scope="class")
    def pools(self):
        rng = np.random.default_rng(9)

        def rows(n, first):
            gam = rng.standard_gamma(np.array((first,) + (1.0,) * 9), size=(n, 10))
            return gam / gam.sum(axis=1, keepdims=True)

        return rows(3000, 5.0), rows(300, 5.0), rows(300, 2.0)

    @staticmethod
    def check(method, pools, rows, reference, n_trials=2):
        """run_trials on pools (the library's samples of the raw rows) against the reference."""
        plan = covshift.TrialPlan(window_sizes=(10, 100), n_trials=n_trials, seed=11)
        outcome = covshift.run_trials(*pools, TimedMethod(method), plan)
        checked = 0
        for si, k in enumerate(plan.window_sizes):
            for t in range(n_trials):
                draws = trial_windows(11, n_trials, si, t, len(rows[0]), len(rows[1]), k)
                for pos, (raw, (idx, seed)) in enumerate(zip(rows, draws)):
                    expected = reference(raw[idx], seed)
                    if expected is not None:
                        assert outcome.per_size[k].p_values[2 * t + pos] == pytest.approx(
                            expected, rel=1e-6, abs=1e-9)
                        checked += 1
        # At most one MMD p-value may be skipped as a near-tie.
        assert checked >= 4 * n_trials - 1

    def test_score_methods(self, pools):
        from covshift.baselines import SingleInstanceEstimator
        from covshift.eval import CoverageDetectorMethod, SingleInstanceMethod

        train, *rows = (p.max(axis=1) for p in pools)
        samples = [covshift.ScoreSample(x, kappa_name="softmax_response") for x in rows]
        ref = covshift.ScoreSample(train, kappa_name="softmax_response")
        model = covshift.fit(ref, delta=0.01, c_target_count=10)
        self.check(CoverageDetectorMethod(model), samples, rows,
                   lambda w, seed: coverage_p_value(model, w), n_trials=5)
        self.check(SingleInstanceMethod(ref, SingleInstanceEstimator.SR), samples, rows,
                   lambda w, seed: welch_p_value(train, w), n_trials=5)

    def test_vector_methods(self, pools):
        from covshift.baselines import VectorKind, VectorSample
        from covshift.eval import KsMethod, MmdMethod

        train, *rows = pools
        ref, *samples = (VectorSample(p, VectorKind.SOFTMAX) for p in pools)
        self.check(KsMethod(ref), samples, rows, lambda w, seed: ks_bonferroni_p_value(train, w))
        self.check(MmdMethod(ref), samples, rows, lambda w, seed: mmd_p_value(train, w, seed),
                   n_trials=1)
