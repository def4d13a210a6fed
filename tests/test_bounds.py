import math

import numpy as np
import pytest

from covshift.bounds import BISECTION_TOL, BoundQuery, BoundResult, binomial_cdf, solve_bound
from oracles import grid_scan_bound


class TestBinomialCdf:
    def test_full_support_is_one(self):
        for m, b in [(1, 0.3), (17, 0.0), (400, 0.999), (10**6, 0.5)]:
            assert binomial_cdf(m, m, b) == 1.0

    def test_zero_successes_is_failure_power(self):
        assert binomial_cdf(0, 3, 0.5) == pytest.approx(0.125, abs=1e-12)

    def test_hand_checked_sum(self):
        # 0.125 + 3 * 0.5 * 0.25 = 0.5
        assert binomial_cdf(1, 3, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_edge_probabilities(self):
        assert binomial_cdf(2, 5, 0.0) == 1.0
        assert binomial_cdf(2, 5, 1.0) == 0.0

    def test_matches_direct_sum_at_moderate_m(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(2, 2000))
            x = int(rng.integers(0, m))
            b = float(rng.uniform(0.01, 0.99))
            j = np.arange(x + 1)
            logc = np.array(
                [math.lgamma(m + 1) - math.lgamma(v + 1) - math.lgamma(m - v + 1) for v in j]
            )
            lt = logc + j * math.log(b) + (m - j) * math.log1p(-b)
            peak = lt.max()
            expected = math.exp(peak) * np.exp(lt - peak).sum()
            assert binomial_cdf(x, m, b) == pytest.approx(expected, abs=1e-11)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_cdf(-1, 5, 0.5)
        with pytest.raises(ValueError):
            binomial_cdf(6, 5, 0.5)
        with pytest.raises(ValueError):
            binomial_cdf(2, 5, 1.5)
        with pytest.raises(ValueError):
            binomial_cdf(0, 0, 0.5)


class TestSolveBound:
    def test_closed_form_m1(self):
        # constraint (1-b) <= 1-delta forces b* = delta
        for delta in (0.05, 0.1, 0.5):
            r = solve_bound(BoundQuery(m=1, successes=0, delta=delta))
            assert r.satisfiable
            assert r.b_star == pytest.approx(delta, abs=1e-9)

    def test_closed_form_m2(self):
        # constraint 1 - b^2 <= 1-delta forces b* = sqrt(delta)
        for delta in (0.1, 0.01):
            r = solve_bound(BoundQuery(m=2, successes=1, delta=delta))
            assert r.b_star == pytest.approx(math.sqrt(delta), abs=1e-9)

    def test_all_successes_unsatisfiable(self):
        r = solve_bound(BoundQuery(m=4, successes=4, delta=0.05))
        assert not r.satisfiable
        assert r.b_star == pytest.approx(0.05 ** 0.25, abs=1e-12)

    def test_matches_grid_oracle_frozen_example(self):
        # grid oracle value for (m=100, successes=90, delta=0.05)
        r = solve_bound(BoundQuery(m=100, successes=90, delta=0.05))
        assert r.b_star == pytest.approx(0.848205, abs=2e-6)
        assert grid_scan_bound(100, 90, 0.05) == pytest.approx(0.848205, abs=1e-12)

    def test_matches_grid_oracle_small_batch(self):
        # the full m <= 50 sweep runs in the acceptance suite
        for m in range(1, 16):
            for delta in (0.1, 0.01):
                for successes in range(m):
                    oracle = grid_scan_bound(m, successes, delta)
                    r = solve_bound(BoundQuery(m, successes, delta))
                    assert abs(r.b_star - oracle) < 2e-6, (m, successes, delta)

    def test_monotone_in_successes_and_delta(self):
        deltas = [0.001, 0.01, 0.05, 0.1, 0.5]
        for m in (5, 20, 100):
            for delta in deltas:
                values = [
                    solve_bound(BoundQuery(m, s, delta)).b_star for s in range(m)
                ]
                assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            for s in range(0, m, max(1, m // 7)):
                by_delta = [solve_bound(BoundQuery(m, s, d)).b_star for d in deltas]
                assert all(a <= b + 1e-12 for a, b in zip(by_delta, by_delta[1:]))

    def test_feasibility_bracketing(self):
        for m in (5, 20, 100):
            for delta in (0.01, 0.1):
                for s in range(m):
                    b = solve_bound(BoundQuery(m, s, delta)).b_star
                    assert binomial_cdf(s, m, b) <= 1.0 - delta
                    if b > 1e-8:
                        assert binomial_cdf(s, m, b - 1e-8) > 1.0 - delta

    def test_repeated_query_returns_cached_result(self):
        # Cold-start timings empty the cache through solve_bound.cache_clear.
        solve_bound.cache_clear()
        first = solve_bound(BoundQuery(m=50, successes=40, delta=0.05))
        assert solve_bound(BoundQuery(m=50, successes=40, delta=0.05)) is first
        assert solve_bound.cache_info().hits == 1

    def test_bisection_tolerance_documented(self):
        assert BISECTION_TOL == 1e-10

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(m=0, successes=0, delta=0.1)
        with pytest.raises(ValueError):
            BoundQuery(m=5, successes=6, delta=0.1)
        with pytest.raises(ValueError):
            BoundQuery(m=5, successes=-1, delta=0.1)
        with pytest.raises(ValueError):
            BoundQuery(m=5, successes=2, delta=0.0)
        with pytest.raises(ValueError):
            BoundQuery(m=5, successes=2, delta=1.0)
        with pytest.raises(ValueError):
            BoundResult(b_star=1.5, satisfiable=True)
