import math

import numpy as np
import pytest

from covshift.bounds import solve_bound, success_threshold
from covshift.sgc import CoverageBound, iter_sgc, run_sgc
from covshift.stats import substream
from oracles import stepwise_sgc


class TestCoverageBound:
    @pytest.mark.parametrize("coverage", [7.5, -0.01, 1.0 + 1e-12, float("nan")])
    def test_coverage_at_fit_outside_unit_interval_rejected(self, coverage):
        with pytest.raises(ValueError, match="empirical_coverage_at_fit"):
            CoverageBound(0.5, 0.4, 0.3, 3, coverage)


class TestRunSgc:
    def test_m2_hand_trace(self):
        # k=1 iteration; z = ceil(3/2) = 2, theta = 0.7, c_hat = 1/2,
        # b* = solve_bound(2, 1, 0.1) = sqrt(0.1)
        cb = run_sgc(np.array([0.3, 0.7]), 0.1, 0.5)
        assert cb.iterations == 1
        assert cb.theta == 0.7
        assert cb.empirical_coverage_at_fit == 0.5
        assert cb.b_star == pytest.approx(math.sqrt(0.1), abs=1e-9)

    def test_all_identical_scores_hit_full_coverage_convention(self):
        # every theta equals the tied score, c_hat = 1, successes = m
        cb = run_sgc(np.full(4, 0.5), 0.1, 0.5)
        assert cb.theta == 0.5
        assert cb.empirical_coverage_at_fit == 1.0
        assert cb.b_star == pytest.approx((0.1 / 2) ** 0.25, abs=1e-12)

    def test_determinism(self):
        scores = np.sort(substream(1, 0).random(257))
        a = run_sgc(scores, 0.05, 0.3)
        b = run_sgc(scores, 0.05, 0.3)
        assert a == b

    def test_requires_m_at_least_two(self):
        with pytest.raises(ValueError):
            run_sgc(np.array([0.5]), 0.1, 0.5)

    def test_config_validation(self):
        scores = np.array([0.3, 0.7])
        with pytest.raises(ValueError, match="delta"):
            run_sgc(scores, 0.0, 0.5)
        with pytest.raises(ValueError, match="target_coverage"):
            run_sgc(scores, 0.1, 0.0)
        with pytest.raises(ValueError, match="target_coverage"):
            iter_sgc(scores, 0.1, 1.5)

    def test_iteration_count_is_ceil_log2_m(self):
        for m in (2, 3, 4, 5, 1024, 1025):
            scores = substream(2, m).random(m)
            cb = run_sgc(np.sort(scores), 0.1, 0.5)
            assert cb.iterations == math.ceil(math.log2(m))

    def test_monotone_transform_invariance(self):
        for seed in range(5):
            scores = substream(3, seed).standard_normal(300)
            mapped = scores**3 + 2.0 * scores  # strictly increasing on R
            trace_a = iter_sgc(np.sort(scores), 0.05, 0.4)
            trace_b = iter_sgc(np.sort(mapped), 0.05, 0.4)
            for ita, itb in zip(trace_a, trace_b):
                assert ita.z == itb.z
                assert ita.c_hat == itb.c_hat
                assert ita.b_star == itb.b_star
            last = trace_a[-1]
            assert trace_b[-1].theta == pytest.approx(last.theta**3 + 2.0 * last.theta)

    def test_search_state_invariants(self):
        for m in (2, 5, 9, 64, 100, 1000):
            scores = substream(4, m).random(m)
            trace = iter_sgc(np.sort(scores), 0.05, 0.5)
            for it in trace:
                # z_min < z_max holds at the start of every iteration
                assert 1 <= it.z_min < it.z_max <= m
                assert it.z_min < it.z <= it.z_max
                assert 1 <= it.z <= m

    def test_each_step_moves_the_way_its_bound_says(self):
        for m, target in ((2, 0.5), (9, 0.3), (100, 0.5), (1000, 0.9), (5000, 0.1)):
            for scores in (substream(5, m).random(m), np.round(substream(6, m).random(m), 1)):
                sorted_scores = np.sort(scores)
                trace = iter_sgc(sorted_scores, 0.05, target)
                for it, nxt in zip(trace, trace[1:]):
                    if it.b_star <= target:
                        assert (nxt.z_min, nxt.z_max) == (it.z_min, it.z)
                    else:
                        assert (nxt.z_min, nxt.z_max) == (it.z, it.z_max)
                last = trace[-1]
                cb = run_sgc(sorted_scores, 0.05, target)
                assert (cb.b_star, cb.theta, cb.empirical_coverage_at_fit) == (
                    last.b_star, last.theta, last.c_hat
                )

    def test_uniform_guarantee_monte_carlo(self):
        # b* stays near the target and fresh-sample coverage at theta
        # exceeds b* in >= 99% of trials (delta = 0.01)
        held = 0
        n_trials = 500
        for i in range(n_trials):
            scores = substream(555, i).random(1000)
            cb = run_sgc(np.sort(scores), 0.01, 0.5)
            assert cb.b_star <= 0.55
            fresh = substream(556, i).random(100_000)
            if (fresh >= cb.theta).mean() > cb.b_star:
                held += 1
        assert held >= int(0.99 * n_trials)


def fit_samples(rng, count, log10_m_range):
    """Seeded sorted samples of four kinds: continuous, saturated, negative, integer."""
    for i in range(count):
        m = int(10 ** rng.uniform(*log10_m_range))
        scores = rng.beta(5.0, 1.0, m)
        if i % 4 == 1:
            scores[rng.random(m) < 0.6] = 1.0
        elif i % 4 == 2:
            scores = -3.0 * rng.standard_normal(m)
        elif i % 4 == 3:
            scores = rng.integers(0, 6, m).astype(float)
        yield np.sort(scores)


class TestThresholdDecisions:
    """run_sgc decides its steps from one success threshold per target.

    Each fit must equal the stepwise oracle, which bisects every step's bound.
    """

    def assert_fits_match(self, rng, samples):
        mismatched = []
        for sorted_scores in samples:
            delta = float(10 ** rng.uniform(-12, math.log10(0.9)))
            targets = (float(rng.uniform(0.001, 1.0)), float(rng.uniform(0.99, 1.0)), 1.0)
            for target in targets:
                cb = run_sgc(sorted_scores, delta, target)
                got = (cb.b_star, cb.theta, cb.empirical_coverage_at_fit)
                if got != stepwise_sgc(sorted_scores, delta, target):
                    mismatched.append((sorted_scores.size, delta, target))
        assert not mismatched, mismatched[:5]

    def test_random_fits_match_the_stepwise_oracle(self):
        rng = np.random.default_rng(19)
        self.assert_fits_match(rng, fit_samples(rng, 80, (math.log10(2), 4.0)))

    def test_large_fits_match_the_stepwise_oracle(self):
        rng = np.random.default_rng(20)
        self.assert_fits_match(rng, fit_samples(rng, 8, (4.5, 5.0)))

    @pytest.mark.parametrize(
        "m, delta, target", [(2, 0.3, 0.1), (2, 1e-6, 1e-9), (5, 0.3, 1e-9), (1000, 0.01, 1e-9)]
    )
    def test_empty_threshold_matches_the_stepwise_oracle(self, m, delta, target):
        # The target lies below the bound at zero successes, so no count
        # below m passes and only the minimum's tie block, here all of a
        # constant sample, can move a step to higher coverage.
        assert success_threshold(m, delta / math.ceil(math.log2(m)), target) == -1
        samples = (substream(7, m).random(m), np.round(substream(8, m).random(m), 1), np.ones(m))
        for scores in samples:
            sorted_scores = np.sort(scores)
            cb = run_sgc(sorted_scores, delta, target)
            got = (cb.b_star, cb.theta, cb.empirical_coverage_at_fit)
            assert got == stepwise_sgc(sorted_scores, delta, target)

    def test_full_success_step_is_decided_by_its_own_bound(self):
        # The lowest 9 of 16 scores tie, so the first step succeeds on every
        # score. Its bound delta' ** (1 / m) is exactly the target, which
        # lies below the bound at m - 1: that step moves to higher coverage
        # although m exceeds the success threshold.
        m = 16
        sorted_scores = np.concatenate([np.zeros(9), np.arange(1.0, 8.0)])
        step_delta = 0.01 / 4
        target = step_delta ** (1.0 / m)
        assert target < solve_bound(m, m - 1, step_delta)
        assert success_threshold(m, step_delta, target) < m - 1
        cb = run_sgc(sorted_scores, 0.01, target)
        assert (cb.b_star, cb.theta, cb.empirical_coverage_at_fit) == (target, 0.0, 1.0)
        assert stepwise_sgc(sorted_scores, 0.01, target) == (target, 0.0, 1.0)


def test_search_steps_read_no_scores(monkeypatch):
    # The steps decide from four integers; only n_min and n_v before the
    # loop and the kept pair after it count the sorted scores.
    calls = []
    searchsorted = np.searchsorted

    def counted(*args, **kwargs):
        calls.append(args)
        return searchsorted(*args, **kwargs)

    sorted_scores = np.sort(substream(9, 0).random(100_000))
    monkeypatch.setattr(np, "searchsorted", counted)
    cb = run_sgc(sorted_scores, 0.01, 0.5)
    assert cb.iterations == 17
    assert len(calls) <= 2
