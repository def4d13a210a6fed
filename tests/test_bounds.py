import math
from fractions import Fraction

import numpy as np
import pytest

import covshift.bounds as bounds
import covshift.sgc as sgc
from covshift.bounds import (
    BISECTION_TOL,
    binomial_cdf,
    bound_at_most,
    solve_bound,
    success_threshold,
)
from covshift.detector import coverage_grid, fit
from covshift.scores import ScoreSample
import oracles
from oracles import bisection_bound, grid_scan_bound


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

    def test_within_half_the_margin_of_the_exact_cdf(self):
        # At grid points, the CDF must lie within half of the rounding margin
        # that solve_bound and bound_at_most allow it, so that no two
        # evaluations together leave that margin. The queries cover the bulk
        # at m <= 1000, the tails within m / 100 of either end at larger m,
        # and the grid cells next to each query's b* at delta = 1e-6.
        grid = bounds._GRID
        queries = [
            (x, m)
            for m in (2, 7, 60, 333, 1000)
            for x in sorted({0, m // 10, m // 3, m // 2, m - m // 4, m - 1})
        ]
        for m in (1001, 4321, 20_000):
            thin = m // 100
            queries += [(x, m) for x in (0, 1, thin - 1, thin, m - thin - 1, m - thin, m - 1)]
        checked = 0
        for x, m in queries:
            sd = math.sqrt(max(x * (m - x), 1) / m)
            cells = {round((x + 0.5 + z * sd) / m * grid) for z in (-4.0, 0.0, 4.0)}
            k_star = round(solve_bound(m, x, 1e-6) * grid)
            cells.update((k_star - 1, k_star))
            for k in sorted(k for k in cells if 0 < k < grid):
                exact = oracles.binomial_cdf_exact(x, m, k)
                v = float(exact)
                if v in (0.0, 1.0):
                    continue
                tol = 0.5 * (4096.0 * math.ulp(v) + 1e-10 * min(v, 1.0 - v))
                error = abs(Fraction(binomial_cdf(x, m, k / grid)) - exact)
                ratio = float(error / Fraction(tol))
                assert ratio <= 1.0, (x, m, k, ratio)
                checked += 1
        assert checked > 150

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_cdf(-1, 5, 0.5)
        with pytest.raises(ValueError):
            binomial_cdf(6, 5, 0.5)
        with pytest.raises(ValueError):
            binomial_cdf(2, 5, 1.5)
        with pytest.raises(ValueError):
            binomial_cdf(0, 0, 0.5)
        # Counts that name no binomial: a fraction, an integral float, a bool.
        for x, m in [(3.5, 10), (3, 10.0), (3.0, 10), (True, 10), (1, True)]:
            with pytest.raises(ValueError, match="must be an integer"):
                binomial_cdf(x, m, 0.2)

    def test_numpy_integer_counts_accepted(self):
        # Counts are taken as Python ints: in int32, (m - x) * (x + 1)
        # overflows at m = 1e5.
        inputs = [(3, 10, 0.2), (40, 5000, 0.01), (3000, 5000, 0.4), (50_000, 100_000, 0.5)]
        for x, m, b in inputs:
            for x_type, m_type in [(np.int64, np.int32), (np.int32, np.int32)]:
                assert binomial_cdf(x_type(x), m_type(m), b) == binomial_cdf(x, m, b)


class TestSolveBound:
    def test_closed_form_m1(self):
        # constraint (1-b) <= 1-delta forces b* = delta
        for delta in (0.05, 0.1, 0.5):
            assert solve_bound(1, 0, delta) == pytest.approx(delta, abs=1e-9)

    def test_closed_form_m2(self):
        # constraint 1 - b^2 <= 1-delta forces b* = sqrt(delta)
        for delta in (0.1, 0.01):
            assert solve_bound(2, 1, delta) == pytest.approx(math.sqrt(delta), abs=1e-9)

    def test_all_successes_unsatisfiable(self):
        # no b meets the constraint; the full-success Clopper-Pearson bound
        assert solve_bound(4, 4, 0.05) == pytest.approx(0.05 ** 0.25, abs=1e-12)

    def test_matches_grid_oracle_frozen_example(self):
        # grid oracle value for (m=100, successes=90, delta=0.05)
        assert solve_bound(100, 90, 0.05) == pytest.approx(0.848205, abs=2e-6)
        assert grid_scan_bound(100, 90, 0.05) == pytest.approx(0.848205, abs=1e-12)

    def test_matches_grid_oracle_small_batch(self):
        # the full m <= 50 sweep runs in the acceptance suite
        for m in range(1, 16):
            for delta in (0.1, 0.01):
                for successes in range(m):
                    oracle = grid_scan_bound(m, successes, delta)
                    b_star = solve_bound(m, successes, delta)
                    assert abs(b_star - oracle) < 2e-6, (m, successes, delta)

    @pytest.mark.parametrize("delta", [1e-17, 2.0**-54, 5e-324])
    def test_delta_whose_complement_rounds_to_one_rejected(self, delta):
        # The solver works with 1 - delta, which is exactly 1 here; its
        # Newton target, the logit of 1 - delta, used to divide by zero.
        assert 1.0 - delta == 1.0
        calls = [
            lambda: solve_bound(100, 50, delta),
            lambda: bound_at_most(100, 50, delta, 0.5),
            lambda: success_threshold(100, delta, 0.5),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"^delta must exceed 2\*\*-54 \(about 5.6e-17\)"):
                call()

    def test_tiny_delta_acts_as_its_rounded_complement(self):
        # Every delta just above 2**-54 and below 3 * 2**-54 reaches the
        # constraint as 1 - 2**-53, and so solves as delta = 2**-53 does.
        smallest = math.nextafter(2.0**-54, 1.0)
        want = solve_bound(100, 50, 2.0**-53)
        for delta in (smallest, 1.6e-16):
            assert 1.0 - delta == 1.0 - 2.0**-53
            assert solve_bound(100, 50, delta) == want

    def test_monotone_in_successes_and_delta(self):
        deltas = [0.001, 0.01, 0.05, 0.1, 0.5]
        for m in (5, 20, 100):
            for delta in deltas:
                values = [solve_bound(m, s, delta) for s in range(m)]
                assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
            for s in range(0, m, max(1, m // 7)):
                by_delta = [solve_bound(m, s, d) for d in deltas]
                assert all(a <= b + 1e-12 for a, b in zip(by_delta, by_delta[1:]))

    def test_feasibility_bracketing(self):
        for m in (5, 20, 100):
            for delta in (0.01, 0.1):
                for s in range(m):
                    b = solve_bound(m, s, delta)
                    assert binomial_cdf(s, m, b) <= 1.0 - delta
                    if b > 1e-8:
                        assert binomial_cdf(s, m, b - 1e-8) > 1.0 - delta

    def test_bisection_tolerance_documented(self):
        assert BISECTION_TOL == 1e-10

    def test_float_count_is_checked_after_its_integer_was_cached(self):
        # 10.0 names no binomial, even right after 10 was solved.
        solve_bound(10, 3, 0.1)
        with pytest.raises(ValueError, match="m must be an integer"):
            solve_bound(10.0, 3, 0.1)
        with pytest.raises(ValueError, match="successes must be an integer"):
            solve_bound(10, 3.0, 0.1)

    def test_numpy_integer_counts_accepted(self):
        assert solve_bound(np.int64(5000), np.int64(4000), 0.01) == solve_bound(5000, 4000, 0.01)
        m, s = np.int32(100_000), np.int32(50_000)
        assert solve_bound(m, s, 0.01) == solve_bound(100_000, 50_000, 0.01)
        assert success_threshold(m, 0.01, 0.5) == success_threshold(100_000, 0.01, 0.5)

    def test_query_validation(self):
        for m, successes, delta in [(0, 0, 0.1), (5, 6, 0.1), (5, -1, 0.1), (5, 2, 0.0), (5, 2, 1.0)]:
            with pytest.raises(ValueError):
                solve_bound(m, successes, delta)
        for m, successes in [(10.5, 3), (10, 3.5), (True, 0), (1, False)]:
            with pytest.raises(ValueError, match="must be an integer"):
                solve_bound(m, successes, 0.1)


@pytest.fixture(scope="module")
def fit_scores():
    return np.random.default_rng(1).beta(5.0, 1.0, 1_000_000)


@pytest.fixture(scope="module")
def fit_queries(fit_scores):
    """The 200 bound queries of the SGC traces of a fit at m = 1e6, in SGC order."""
    queries = []

    def record(*q):
        queries.append(q)
        return solve_bound(*q)

    sorted_scores = np.sort(fit_scores)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sgc, "solve_bound", record)
        for c in coverage_grid(10):
            sgc.iter_sgc(sorted_scores, 0.01, c)
    return queries


def flat_rounding_queries():
    # At tiny delta and small m the CDF changes by an ulp over many grid
    # cells near the root and is not monotone at that scale; a bracket end
    # that cleared the limit by rounding alone replayed some of these to a
    # neighbouring grid point.
    rng = np.random.default_rng(8)
    queries = []
    for _ in range(500):
        m = int(rng.integers(2, 1000))
        delta = float(10 ** rng.uniform(-12, -8))
        queries.append((m, int(rng.integers(0, m)), delta))
    return queries


def cold_solve(q, monkeypatch):
    """b_star of q and the binomial_cdf calls its solve makes."""
    calls = 0
    cdf = bounds.binomial_cdf

    def counting(*args):
        nonlocal calls
        calls += 1
        return cdf(*args)

    with monkeypatch.context() as mp:
        mp.setattr(bounds, "binomial_cdf", counting)
        b_star = solve_bound(*q)
    return b_star, calls


class TestBracketedSolve:
    """solve_bound brackets the root with Newton, then replays the bisection.

    The replay must make every decision the plain bisection makes, so each
    b_star equals the oracle's exactly.
    """

    def assert_matches_oracle(self, queries):
        mismatched = [q for q in queries if solve_bound(*q) != bisection_bound(*q)]
        assert not mismatched, mismatched[:5]

    def test_every_small_sample(self):
        deltas = (0.1, 0.01, 0.01 / 20)
        self.assert_matches_oracle(
            [(m, s, d) for d in deltas for m in range(1, 60) for s in range(m)]
        )

    def test_seeded_large_samples(self):
        rng = np.random.default_rng(11)
        queries = []
        for _ in range(300):
            m = int(10 ** rng.uniform(1, 9))
            delta = float(10 ** rng.uniform(-6, -1))
            # Also the counts at the edges of the tails within m / 100 of
            # either end.
            thin = m // 100
            counts = {0, 1, m // 2, m - 1, int(rng.integers(0, m))}
            counts |= {thin - 1, thin, m - thin - 1, m - thin}
            for s in counts:
                if 0 <= s < m:
                    queries.append((m, s, delta))
        self.assert_matches_oracle(queries)

    def test_fit_queries(self, fit_queries):
        assert len(fit_queries) == 200
        self.assert_matches_oracle(fit_queries)

    def test_degenerate_queries(self):
        queries = [
            (m, s, d)
            for m in (1, 2, 3, 50, 1000, 10**6)
            for s in {0, m // 2, m - 1}
            for d in (1e-12, 0.01, 0.5, 0.9)
        ]
        self.assert_matches_oracle(queries)

    def test_queries_where_the_cdf_rounds_flat(self):
        self.assert_matches_oracle(flat_rounding_queries())

    @pytest.mark.parametrize("slope", [0.0, math.nan])
    def test_unusable_slope_falls_back_to_full_bisection(self, slope, monkeypatch):
        queries = [(m, s, 0.01) for m, s in [(1, 0), (2, 1), (50, 25), (10**6, 900_000)]]
        bracketed = [cold_solve(q, monkeypatch) for q in queries]
        monkeypatch.setattr(bounds, "_cdf_slope", lambda s, m, b: slope)
        fallback = [cold_solve(q, monkeypatch) for q in queries]
        # Only the start point is evaluated before the bisection takes over.
        for q, (b_star, calls), (slow_b_star, slow_calls) in zip(queries, bracketed, fallback):
            assert slow_b_star == b_star == bisection_bound(*q), q
            assert slow_calls > calls, q

    def test_few_cdf_evaluations_per_cold_solve(self, fit_queries, monkeypatch):
        calls = [cold_solve(q, monkeypatch)[1] for q in dict.fromkeys(fit_queries)]
        assert max(calls) <= 12


class TestBoundAtMost:
    """bound_at_most(m, s, delta, c) is exactly solve_bound(m, s, delta) <= c."""

    def test_matches_solved_bound(self, monkeypatch):
        # bound_at_most re-solves a query for each c near its b*; a memo of
        # the exact solves saves the repeats.
        solved = {}

        def memo_solve(*q):
            if q not in solved:
                solved[q] = solve_bound(*q)
            return solved[q]

        monkeypatch.setattr(bounds, "solve_bound", memo_solve)
        rng = np.random.default_rng(12)
        queries = flat_rounding_queries()
        for _ in range(200):
            m = int(10 ** rng.uniform(0, 9))
            delta = float(10 ** rng.uniform(-12, math.log10(0.9)))
            for s in {0, 1, m // 2, m - 1, m}:
                queries.append((m, s, delta))
        queries += [(10**9, s, d) for s in (0, 1, 10**9 // 2, 10**9 - 1) for d in (1e-12, 0.9)]
        cell = 1.0 / bounds._GRID
        mismatched = []
        for q in queries:
            b_star = memo_solve(*q)
            for c in (
                *(b_star + k * cell for k in range(-3, 4)),
                b_star - 1e-12,
                b_star + 1e-12,
                float(rng.random()),
                1.0,
            ):
                if bound_at_most(*q, c) != (b_star <= c):
                    mismatched.append((q, c))
        assert not mismatched, mismatched[:5]

    def test_cdf_that_fails_to_converge_falls_back_to_the_solve(self, monkeypatch):
        # Near the centre of a binomial with m above about 1e8 the continued
        # fraction can fail to converge: binomial_cdf(993563119, 1987126238,
        # 0.5) raises, while the solve of this query never evaluates there.
        q = (1987126238, 993563119, 0.01)
        b_star = solve_bound(*q)

        def failing(*args):
            raise ArithmeticError("continued fraction failed to converge")

        solved = []
        monkeypatch.setattr(bounds, "binomial_cdf", failing)
        monkeypatch.setattr(bounds, "solve_bound", lambda *args: solved.append(args) or b_star)
        assert bound_at_most(*q, b_star)
        assert not bound_at_most(*q, b_star - 1.0 / bounds._GRID)
        assert solved == [q, q]

    def test_query_validation(self):
        with pytest.raises(ValueError, match="delta"):
            bound_at_most(10, 5, 1.0, 0.5)
        with pytest.raises(ValueError, match="successes"):
            bound_at_most(10, 11, 0.1, 0.5)

    def test_coverage_one_or_above_needs_no_evaluation(self, monkeypatch):
        # A bound never exceeds 1, so c >= 1 holds at every count without
        # a solve or a CDF evaluation.
        calls = 0
        cdf, solve = bounds.binomial_cdf, bounds.solve_bound

        def counting(real):
            def wrapped(*args):
                nonlocal calls
                calls += 1
                return real(*args)

            return wrapped

        monkeypatch.setattr(bounds, "binomial_cdf", counting(cdf))
        monkeypatch.setattr(bounds, "solve_bound", counting(solve))
        for m in range(1, 61):
            for s in range(m + 1):
                for delta in (1e-12, 0.01, 0.9):
                    assert bound_at_most(m, s, delta, 1.0)
                    assert bound_at_most(m, s, delta, 1.5)
                    assert bound_at_most(m, s, delta, math.inf)
        assert calls == 0
        for q in [(0, 0, 0.1), (10, 11, 0.1), (10, -1, 0.1), (10, 5, 0.0), (10, 5, 1.0),
                  (10.0, 5, 0.1), (10, 5.0, 0.1)]:
            with pytest.raises(ValueError):
                bound_at_most(*q, 1.0)
        assert calls == 0

    def test_cold_fit_solves_only_the_kept_pairs(self, fit_scores, monkeypatch):
        calls = solves = 0
        cdf = bounds.binomial_cdf

        def counting(*args):
            nonlocal calls
            calls += 1
            return cdf(*args)

        def counting_solves(*args):
            nonlocal solves
            solves += 1
            return solve_bound(*args)

        monkeypatch.setattr(bounds, "binomial_cdf", counting)
        monkeypatch.setattr(bounds, "solve_bound", counting_solves)
        monkeypatch.setattr(sgc, "solve_bound", counting_solves)
        fit(ScoreSample(fit_scores), delta=0.01, c_target_count=10)
        assert solves == 10
        assert calls <= 100


class TestSuccessThreshold:
    """success_threshold(m, delta, c) splits the counts below m by bound_at_most."""

    def test_every_count_of_small_samples(self):
        rng = np.random.default_rng(13)
        queries = []
        for m in range(1, 301):
            delta = float(10 ** rng.uniform(-12, math.log10(0.9)))
            near = (rng.uniform(0.0, 0.02), rng.uniform(0.98, 1.0), rng.random())
            queries.append((m, delta, float(near[m % 3])))
            # At c = 1.0 every count below m passes, and none evaluates.
            queries.append((m, delta, 1.0))
        mismatched = []
        for m, delta, c in queries:
            threshold = success_threshold(m, delta, c)
            assert -1 <= threshold < m
            mismatched += [
                (m, s, delta, c)
                for s in range(m)
                if bound_at_most(m, s, delta, c) != (s <= threshold)
            ]
        assert not mismatched, mismatched[:5]

    def test_cdf_that_fails_to_converge_falls_back_to_the_solve(self, monkeypatch):
        # Every decision then solves its bound, here read from the bounds
        # solved before the CDF began to fail.
        m, delta, c = 40, 0.01, 0.7
        solved = {(m, s, delta): solve_bound(m, s, delta) for s in range(m)}
        expected = max(q[1] for q, b_star in solved.items() if b_star <= c)
        assert expected < m - 1

        def failing(*args):
            raise ArithmeticError("continued fraction failed to converge")

        monkeypatch.setattr(bounds, "binomial_cdf", failing)
        monkeypatch.setattr(bounds, "solve_bound", lambda *q: solved[q])
        assert success_threshold(m, delta, c) == expected

    @pytest.mark.parametrize("m", [10_000, 1_000_000, 10_000_000])
    def test_boundary_at_large_samples(self, m):
        # SGC's per-step delta at each overall delta, over the fit's grid
        # and coverages near either end.
        k = math.ceil(math.log2(m))
        coverages = [float(c) for c in coverage_grid(10)] + [1e-3, 0.999]
        for delta in (0.01 / k, 1e-6 / k, 1e-12 / k):
            for c in coverages:
                threshold = success_threshold(m, delta, c)
                assert -1 <= threshold < m
                if threshold >= 0:
                    assert bound_at_most(m, threshold, delta, c), (m, delta, c)
                if threshold + 1 < m:
                    assert not bound_at_most(m, threshold + 1, delta, c), (m, delta, c)

    def test_coverage_outside_the_bounds_range(self):
        # No bound below m successes is under the first grid point, and
        # none exceeds 1.
        for delta in (0.01, 1e-15):
            for c in (-0.5, -math.inf, 0.0, 2.0**-35):
                assert not bound_at_most(1000, 0, delta, c)
                assert success_threshold(1000, delta, c) == -1
            for c in (1.0, 1.5, math.inf):
                assert success_threshold(1000, delta, c) == 999

    def test_query_validation(self):
        with pytest.raises(ValueError, match="delta"):
            success_threshold(10, 0.0, 0.5)
        with pytest.raises(ValueError, match="m must"):
            success_threshold(0, 0.1, 0.5)
        with pytest.raises(ValueError, match="^c must be a number, got nan$"):
            success_threshold(100, 0.01, math.nan)
