import itertools
import math
import tracemalloc

import numpy as np
import pytest

import covshift.stats as stats_module
from covshift import bounds
from covshift.bounds import binomial_cdf, bound_at_most, solve_bound
from covshift.stats import (
    TestResult as StatsTestResult,
)
from covshift.stats import (
    incomplete_beta,
    ks_against_sorted,
    ks_two_sample,
    make_rng,
    median_heuristic_bandwidth,
    permutation_test_mmd,
    rekey,
    student_t_cdf,
    substream,
    t_test_two_sample_welch,
    t_test_welch_against,
    welch_moments,
)
import oracles
from oracles import (
    ks_statistic_enumerated,
    median_bandwidth_loop,
    median_bandwidth_triu,
    mmd2_double_loop,
    mmd_permutation_loop,
    plain_t_cdf,
    welch_from_samples,
    welch_moments_numpy,
)


class TestSpecialFunctions:
    def test_incomplete_beta_uniform_case(self):
        for x in np.linspace(0.0, 1.0, 23):
            assert incomplete_beta(1.0, 1.0, float(x)) == pytest.approx(float(x), abs=1e-12)

    def test_incomplete_beta_symmetry(self):
        # I_x(a, b) = 1 - I_{1-x}(b, a)
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = float(rng.uniform(0.2, 40.0))
            b = float(rng.uniform(0.2, 40.0))
            x = float(rng.uniform(0.01, 0.99))
            assert incomplete_beta(a, b, x) == pytest.approx(
                1.0 - incomplete_beta(b, a, 1.0 - x), abs=1e-12
            )

    def test_incomplete_beta_domain(self):
        with pytest.raises(ValueError):
            incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            incomplete_beta(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                      (1.0, math.nan), (math.inf, math.inf)])
    def test_incomplete_beta_rejects_non_finite_parameters(self, a, b):
        with pytest.raises(ValueError, match="^incomplete_beta requires finite a, b > 0"):
            incomplete_beta(a, b, 0.5)

    def test_student_t_cdf_symmetry_point(self):
        for df in (1, 2, 3.5, 30, 10**6):
            assert student_t_cdf(0.0, df) == 0.5

    def test_student_t_cdf_negative_zero(self):
        for df in (1, 3.5, 10**6):
            assert student_t_cdf(-0.0, df) == 0.5

    def test_student_t_cdf_symmetry_identity(self):
        for df in (1, 4, 77, 1e5):
            for t in (0.3, 1.2, 4.5):
                assert student_t_cdf(t, df) + student_t_cdf(-t, df) == pytest.approx(
                    1.0, abs=1e-12
                )

    def test_student_t_cdf_df1_closed_form(self):
        # Cauchy: F(t) = 1/2 + arctan(t)/pi
        for t in (-5.0, -0.7, 0.4, 2.0):
            expected = 0.5 + math.atan(t) / math.pi
            assert student_t_cdf(t, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_student_t_cdf_df2_closed_form(self):
        # F(t) = 1/2 + t / (2 sqrt(t^2 + 2))
        for t in (-3.0, -0.2, 1.0, 3.4641016151377544):
            expected = 0.5 + t / (2.0 * math.sqrt(t * t + 2.0))
            assert student_t_cdf(t, 2.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("df", [1, 1.0, 2, 2.0])
    def test_student_t_cdf_deep_tail_relative(self, df):
        # The lower tail P(T <= -t) in closed form: atan(1/t)/pi on df = 1,
        # 1/(s(s + t)) with s = sqrt(2 + t^2) on df = 2. At t = 1e150 these
        # are about 2e-151 and 5e-301, far below what an absolute
        # tolerance could see.
        def lower_tail(t):
            if df == 1:
                return math.atan(1.0 / t) / math.pi
            s = math.sqrt(2.0 + t * t)
            return 1.0 / (s * (s + t))

        for t in np.logspace(-6, 150, 313):
            t = float(t)
            assert student_t_cdf(-t, df) == pytest.approx(lower_tail(t), rel=1e-12, abs=0.0), t

    def test_student_t_cdf_large_df_matches_normal(self):
        # at df = 1e6 the t distribution is a normal to ~1e-7
        for t in (-2.0, -0.5, 1.0, 2.5):
            normal = 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
            assert student_t_cdf(t, 1e6) == pytest.approx(normal, abs=1e-6)

    def test_student_t_cdf_domain(self):
        with pytest.raises(ValueError):
            student_t_cdf(0.0, 0.0)

    @pytest.mark.parametrize("df", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("t", [-5.0, 0.0, 1.0, 5.0])
    def test_student_t_cdf_rejects_non_finite_df(self, t, df):
        # Unchecked, an infinite df reads 0.5 at every t: df + t^2 is inf,
        # so the complement of x is 0 and the tail reads as whole.
        with pytest.raises(ValueError, match="^student_t_cdf requires a finite df > 0"):
            student_t_cdf(t, df)

    @pytest.mark.parametrize("df", [1, 9, 2.5, 1e6])
    def test_student_t_cdf_infinite_and_nan_t(self, df):
        assert student_t_cdf(math.inf, df) == 1.0
        assert student_t_cdf(-math.inf, df) == 0.0
        with pytest.raises(ValueError, match="^student_t_cdf requires a finite t$"):
            student_t_cdf(math.nan, df)


def t_grid(df):
    # A log grid of |t| from 1e-8 to 1e150, both signs, and points around
    # the symmetry switch x = (a + 1)/(a + b + 2), at t^2 = 3 df / (df + 2).
    switch = math.sqrt(3.0 * df / (df + 2.0))
    ts = [float(t) for t in np.logspace(-8, 150, 25)]
    ts += [switch * (1.0 + e) for e in (-1e-3, -1e-12, 0.0, 1e-12, 1e-3)]
    ts.append(math.nextafter(switch, 0.0))
    ts.append(math.nextafter(switch, math.inf))
    return [s * t for t in ts for s in (1.0, -1.0)]


def hex_or_raise(f, *args):
    try:
        return f(*args).hex()
    except ArithmeticError:
        return "ArithmeticError"


class TestStudentTTables:
    """The incomplete beta and its callers equal the plain loop of oracles bit for bit.

    Every caller runs the one continued-fraction loop, which computes each
    term as it goes, and reads the front factor's (a, b)-only terms from
    one bounded cache; both must give the plain loop's bits at every df.
    """

    def test_integral_df_equal_the_plain_fraction_bit_for_bit(self):
        for df in [*range(1, 1001), 10**4, 10**5]:
            for t in t_grid(df):
                want = plain_t_cdf(t, df).hex()
                assert student_t_cdf(t, df).hex() == want, (df, t)
                assert student_t_cdf(t, float(df)).hex() == want, (df, t)

    def test_fractional_df_run_the_plain_fraction(self):
        dfs = [0.5, 2.5, 23.803387046967142, 1e5 + 0.5]
        dfs += [float(df) for df in 10.0 ** substream(23, 0).uniform(-1.0, 6.0, 40) if df % 1.0]
        for df in dfs:
            for t in t_grid(df):
                assert student_t_cdf(t, df).hex() == plain_t_cdf(t, df).hex(), (df, t)

    def test_incomplete_beta_equals_the_plain_fraction(self):
        # a and b log-spaced from 1e-2 to 1e6, x spread over (0, 1) and
        # placed right around the symmetry switch.
        params = [float(p) for p in np.logspace(-2, 6, 17)]
        for a in params:
            for b in params:
                switch = (a + 1.0) / (a + b + 2.0)
                xs = [0.0, 1e-300, 1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0]
                xs += [math.nextafter(switch, 0.0), switch, math.nextafter(switch, 1.0)]
                for x in xs:
                    want = hex_or_raise(oracles.incomplete_beta_xc, a, b, x, 1.0 - x)
                    assert hex_or_raise(incomplete_beta, a, b, x) == want, (a, b, x)

    def test_binomial_cdf_on_the_incomplete_beta_path(self, monkeypatch):
        # m from 2 to 1e8, counts from the centre out to the thin tails
        # within m / 100 of either end, b a few standard deviations around
        # x / m, and a query near m = 2e9 whose fraction exhausts the term
        # cap on both sides. Every query goes through incomplete_beta.
        calls = 0
        real = bounds.incomplete_beta

        def counting(a, b, x):
            nonlocal calls
            calls += 1
            return real(a, b, x)

        monkeypatch.setattr(bounds, "incomplete_beta", counting)
        queries = 0
        for m in (2, 7, 100, 999, 1000, 1001, 10**4, 123_457, 10**6, 10**7, 10**8):
            thin = m // 100
            counts = {0, thin - 1, thin, m // 7, m // 2, m - thin - 1, m - thin}
            for x in sorted(x for x in counts if 0 <= x < m):
                sd = math.sqrt(x * (m - x) / m)
                for z in (-3.0, -1.0, -0.01, 0.0, 0.5, 3.0):
                    b = (x + 0.5 + z * sd) / m
                    if not 0.0 < b < 1.0:
                        continue
                    y = 1.0 - b
                    want = hex_or_raise(oracles.incomplete_beta_xc, m - x, x + 1, y, 1.0 - y)
                    assert hex_or_raise(binomial_cdf, x, m, b) == want, (x, m, b)
                    queries += 1
        x, m = 993563119, 1987126238
        want = hex_or_raise(oracles.incomplete_beta_xc, m - x, x + 1, 0.5, 0.5)
        assert hex_or_raise(binomial_cdf, x, m, 0.5) == want == "ArithmeticError"
        assert calls == queries + 1

    def test_cdf_slope_equals_the_plain_front(self):
        rng = substream(24, 0)
        for _ in range(500):
            m = int(10 ** rng.uniform(0.0, 8.0))
            s = int(rng.integers(0, m))
            b = float(rng.uniform(1e-6, 1.0 - 1e-6))
            want = math.exp(oracles.log_beta_front(s + 1, m - s, b, 1.0 - b)) / (b * (1.0 - b))
            assert bounds._cdf_slope(s, m, b).hex() == want.hex(), (s, m, b)

    def test_front_term_cache_is_bounded(self):
        stats_module._front_terms.cache_clear()
        try:
            student_t_cdf(-1.5, 9)
            student_t_cdf(-2.5, 9)
            info = stats_module._front_terms.cache_info()
            assert (info.misses, info.hits) == (1, 1)
            for df in range(1, 3 * stats_module._FRONT_CACHE):
                student_t_cdf(-1.5, df)
            info = stats_module._front_terms.cache_info()
            assert info.currsize == info.maxsize == stats_module._FRONT_CACHE == 16
            student_t_cdf(-2.5, df)
            assert stats_module._front_terms.cache_info().hits == info.hits + 1
        finally:
            stats_module._front_terms.cache_clear()

    def test_a_fraction_that_does_not_converge_raises(self, monkeypatch):
        # With the term cap cut to 2, every path to the fraction raises
        # ArithmeticError naming the incomplete beta's a, b and x, never a
        # TypeError from an unconverged result, and bound_at_most still
        # falls back to solving.
        q = (10**6, 500_000, 0.01)
        b_star = solve_bound(*q)
        monkeypatch.setattr(stats_module, "_MAX_TERMS", 2)
        stats_module._front_terms.cache_clear()
        try:
            # Each incomplete beta and each df below evaluates one point on
            # either side of the symmetry switch.
            cases = [
                (lambda: incomplete_beta(30.0, 40.0, 0.4), (30.0, 40.0, 0.4)),
                (lambda: incomplete_beta(30.0, 40.0, 0.5), (30.0, 40.0, 0.5)),
                (lambda: binomial_cdf(500_000, 10**6, 0.5), (500_000, 500_001, 0.5)),
            ]
            for df, t in itertools.product((9, 9.0, 9.5), (0.5, 3.0)):
                x = df / (df + t * t)
                cases.append((lambda df=df, t=t: student_t_cdf(-t, df), (0.5 * df, 0.5, x)))
            for call, (a, b, x) in cases:
                with pytest.raises(ArithmeticError) as info:
                    call()
                assert f"(a={a}, b={b}, x={x})" in str(info.value)

            solved = []
            monkeypatch.setattr(bounds, "solve_bound", lambda *args: solved.append(args) or b_star)
            assert bound_at_most(*q, b_star)
            assert not bound_at_most(*q, b_star - 1.0 / bounds._GRID)
            assert solved == [q, q]
        finally:
            stats_module._front_terms.cache_clear()


class TestKsTwoSample:
    def test_disjoint_supports(self):
        assert ks_two_sample([0.1, 0.2], [0.3, 0.4]).statistic == 1.0

    def test_hand_enumerated_third(self):
        r = ks_two_sample([1, 2, 3], [2, 3, 4])
        assert r.statistic == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_identical_samples(self):
        r = ks_two_sample([0.5, 0.1, 0.9], [0.5, 0.1, 0.9])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal(rng.integers(2, 30))
            b = rng.standard_normal(rng.integers(2, 30)) + rng.uniform(-1, 1)
            r = ks_two_sample(a, b)
            assert r.statistic == pytest.approx(ks_statistic_enumerated(a, b), abs=1e-12)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(40)
        b = rng.standard_normal(55) + 0.3
        r1 = ks_two_sample(a, b)
        r2 = ks_two_sample(b, a)
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value

    def test_p_value_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a = rng.standard_normal(20)
            b = rng.standard_normal(20) + rng.uniform(0, 3)
            assert 0.0 <= ks_two_sample(a, b).p_value <= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


def tied_ks_cases(rng, n_cases):
    """(reference, window) pairs with heavy ties, repeated reference values and k in [2, 200]."""
    for i in range(n_cases):
        m = int(rng.integers(2, 300))
        k = int(rng.integers(2, 201))
        style = i % 4
        if style == 0:
            a, b = rng.integers(0, 4, m), rng.integers(0, 5, k)
        elif style == 1:
            a = rng.integers(0, 30, m).astype(float)
            b = a[rng.integers(0, m, k)]
        elif style == 2:
            a = np.round(rng.standard_normal(m), 1)
            b = np.concatenate([a[rng.integers(0, m, k // 2)], np.round(rng.standard_normal(k - k // 2), 1)])
        else:
            a, b = rng.standard_normal(m), rng.standard_normal(k) + rng.uniform(-1, 1)
        yield np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)


class TestKsAgainstSorted:
    def test_bit_identical_to_pooled_test_and_oracle(self):
        # ks_two_sample sorts a and calls ks_against_sorted; both are checked
        # against the oracle, which evaluates the ECDFs at every pooled point.
        rng = np.random.default_rng(5)
        for a, b in tied_ks_cases(rng, 80):
            expected = ks_statistic_enumerated(a.tolist(), b.tolist())
            assert ks_against_sorted(np.sort(a), b).statistic == expected
            assert ks_two_sample(a, b).statistic == expected

    def test_supremum_just_below_a_window_point(self):
        # The largest gap sits at reference points below the window, where
        # only the left counts of the window's first point see it.
        r = ks_against_sorted(np.array([0.0, 1.0, 2.0, 3.0]), [5.0, 6.0])
        assert r.statistic == 1.0
        r = ks_against_sorted(np.array([1.0, 1.0, 2.0, 9.0]), [2.0, 3.0, 4.0])
        assert r.statistic == ks_statistic_enumerated([1.0, 1.0, 2.0, 9.0], [2.0, 3.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_against_sorted(np.array([]), [1.0])
        with pytest.raises(ValueError):
            ks_against_sorted(np.array([1.0]), [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_rejected_in_either_sample(self, bad):
        clean = [0.1, 0.2, 0.3]
        for a, b in ((clean, [0.3, bad]), ([0.3, bad, 0.2], clean)):
            with pytest.raises(ValueError, match="NaN or infinite"):
                ks_two_sample(a, b)
            with pytest.raises(ValueError, match="NaN or infinite"):
                ks_against_sorted(np.sort(np.array(a)), b)


def mmd_statistic(x, y) -> tuple[float, float]:
    """Observed statistic and bandwidth of the library's one MMD estimator."""
    r = permutation_test_mmd(x, y, n_permutations=1, seed=0)
    return r.statistic, r.detail["bandwidth"]


class TestMmd:
    def test_equal_multisets_closed_form(self):
        # With x = y the all-pairs cross term keeps its diagonal, so the
        # estimator equals 2s/(n^2 (n-1)) - 2/n where s is the
        # off-diagonal kernel sum (0 only when every off-diagonal kernel
        # value is 1).
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 2))
        statistic, sigma = mmd_statistic(x, x.copy())
        n = x.shape[0]
        s = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    d = x[i] - x[j]
                    s += math.exp(-float(np.dot(d, d)) / (2.0 * sigma**2))
        expected = 2.0 * s / (n * n * (n - 1)) - 2.0 / n
        assert statistic == pytest.approx(expected, abs=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.standard_normal((int(rng.integers(2, 7)), 3))
            y = rng.standard_normal((int(rng.integers(2, 7)), 3)) + 0.5
            statistic, sigma = mmd_statistic(x, y)
            assert statistic == pytest.approx(mmd2_double_loop(x, y, sigma), abs=1e-12)

    def test_swap_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal((5, 2)) + 1.0
        v, _ = mmd_statistic(x, y)
        assert mmd_statistic(y, x)[0] == pytest.approx(v, abs=1e-15)
        perm = rng.permutation(8)
        assert mmd_statistic(x[perm], y)[0] == pytest.approx(v, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            mmd_statistic(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_undersized(self):
        with pytest.raises(ValueError):
            mmd_statistic(np.zeros((1, 2)), np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "x, n_permutations, message",
        [
            (np.zeros((2, 2, 2)), 10, "x must be a sequence of equal-length vectors"),
            (np.zeros(3), 10, "x must be a sequence of equal-length vectors"),
            (np.zeros((3, 2)), 0, "n_permutations must be >= 1, got 0"),
        ],
        ids=["3-d", "1-d", "no-permutations"],
    )
    def test_invalid_arguments_rejected(self, x, n_permutations, message):
        with pytest.raises(ValueError, match=message):
            permutation_test_mmd(x, np.ones((3, 2)), n_permutations=n_permutations)


def pooled_sq(x, y) -> np.ndarray:
    """Squared Euclidean distances between every pair of pooled rows."""
    pooled = np.vstack([np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)])
    diff = pooled[:, None, :] - pooled[None, :, :]
    return np.sum(diff * diff, axis=2)


class TestMedianHeuristic:
    def test_two_points(self):
        # distance 2 -> 2 sigma^2 = 2 -> sigma = 1
        assert median_heuristic_bandwidth(pooled_sq([[0.0]], [[2.0]])) == pytest.approx(1.0)

    def test_three_collinear(self):
        # pairwise distances {1, 1, 2}, median 1 -> sigma = sqrt(0.5)
        sigma = median_heuristic_bandwidth(pooled_sq([[0.0], [1.0]], [[2.0]]))
        assert sigma == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_zero_median_falls_back_to_smallest_positive(self):
        # distances {0 x6, 1 x4}: median 0 -> fall back to 1 -> sigma = sqrt(0.5)
        sigma = median_heuristic_bandwidth(pooled_sq([[0.0], [0.0], [0.0]], [[0.0], [1.0]]))
        assert sigma == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_all_identical_errors(self):
        with pytest.raises(ValueError, match="identical"):
            median_heuristic_bandwidth(pooled_sq([[1.0], [1.0]], [[1.0]]))

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (5,), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            median_heuristic_bandwidth(np.ones(shape))

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="pooled sample of size >= 2"):
            median_heuristic_bandwidth(np.zeros((1, 1)))

    @pytest.mark.parametrize("n", [1010, 1100])
    def test_selection_equals_np_median_at_eval_sizes(self, n):
        # The pooled sizes of an eval mmd window (1000 reference rows plus
        # k = 10 or 100) give an odd (509545) and an even (604450) pair
        # count, so both the one- and the two-value median are covered.
        rng = np.random.default_rng(n)
        for _ in range(3):
            pooled = rng.dirichlet(np.ones(10), n)
            for rows in (pooled, np.round(pooled, 1)):
                sq = stats_module._sq_distances(rows)
                assert median_heuristic_bandwidth(sq) == median_bandwidth_triu(sq)

    def test_selection_equals_np_median_on_ties(self):
        rng = np.random.default_rng(15)
        fallbacks = 0
        for _ in range(400):
            n, d = int(rng.integers(2, 30)), int(rng.integers(1, 4))
            rows = np.round(rng.standard_normal((n, d)) / rng.uniform(0.5, 4.0))
            sq = stats_module._sq_distances(rows)
            dists = np.sqrt(sq[np.triu_indices(n, 1)])
            if not dists.any():
                with pytest.raises(ValueError, match="identical"):
                    median_heuristic_bandwidth(sq)
                continue
            fallbacks += np.median(dists) == 0.0
            assert median_heuristic_bandwidth(sq) == median_bandwidth_triu(sq)
        assert fallbacks >= 10


class TestSqDistances:
    @staticmethod
    def whole_matrix(pooled):
        norms = np.sum(pooled * pooled, axis=1)
        sq = norms[:, None] + norms[None, :] - 2.0 * (pooled @ pooled.T)
        return np.maximum(sq, 0.0)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 130, 1010])
    def test_bits_of_the_whole_matrix_expression(self, n):
        # Sizes below, at and above one block of rows and across several;
        # rounded rows give exact zeros that the clip must keep.
        block = stats_module._SQ_BLOCK_ROWS
        assert 2 < block < 130
        rng = np.random.default_rng(n)
        for rows in (rng.dirichlet(np.ones(10), n), np.round(rng.standard_normal((n, 3)))):
            got = stats_module._sq_distances(rows)
            assert got.tobytes() == self.whole_matrix(rows).tobytes()

    def test_peak_memory_is_one_matrix(self):
        # The n x n matrix plus one block of rows: the whole-matrix
        # expression holds two n x n arrays at once.
        n = 1100
        rows = np.random.default_rng(16).dirichlet(np.ones(10), n)
        tracemalloc.start()
        try:
            stats_module._sq_distances(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8


class TestPermutationMmd:
    def test_identical_samples_not_rejected(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((30, 2))
        high = 0
        for seed in range(10):
            r = permutation_test_mmd(base, base + 0.0, n_permutations=100, seed=seed)
            if r.p_value > 0.05:
                high += 1
        assert high >= 9

    def test_separated_gaussians_rejected(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal((50, 3)) + 3.0
        for seed in range(10):
            assert permutation_test_mmd(x, y, n_permutations=100, seed=seed).p_value <= 0.01

    def test_add_one_smoothing_floor(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((20, 2)) + 50.0
        r = permutation_test_mmd(x, y, n_permutations=100, seed=0)
        assert r.p_value == pytest.approx(1.0 / 101.0)

    def test_single_permutation_identical_samples(self):
        base = np.arange(8.0).reshape(4, 2)
        r = permutation_test_mmd(base, base.copy(), n_permutations=1, seed=3)
        assert r.p_value in (0.5, 1.0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((15, 2))
        y = rng.standard_normal((12, 2)) + 0.5
        a = permutation_test_mmd(x, y, n_permutations=50, seed=99)
        b = permutation_test_mmd(x, y, n_permutations=50, seed=99)
        assert (a.statistic, a.p_value) == (b.statistic, b.p_value)

    def test_observed_matches_standalone_estimator(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal((11, 2)) + 1.0
        r = permutation_test_mmd(x, y, n_permutations=10, seed=0)
        sigma = r.detail["bandwidth"]
        assert sigma == pytest.approx(median_bandwidth_loop(x, y), rel=1e-12)
        assert r.statistic == pytest.approx(mmd2_double_loop(x, y, sigma), abs=1e-12)

    def test_bandwidth_matches_pair_loop_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            x = rng.standard_normal((int(rng.integers(2, 9)), d))
            y = rng.standard_normal((int(rng.integers(2, 9)), d)) * 2.0 + 0.5
            # coarse rounding ties most pairs; 5 of these draws have a zero
            # median and take the smallest-positive fallback
            if rng.random() < 0.5:
                x, y = np.round(x / 3), np.round(y / 3)
            r = permutation_test_mmd(x, y, n_permutations=1)
            assert r.detail["bandwidth"] == pytest.approx(median_bandwidth_loop(x, y), rel=1e-12)

    def test_bandwidth_computed_once_per_call(self, monkeypatch):
        # The benchmark tracer times the bandwidth step through this
        # module attribute, so the test must find it on the call path.
        returned = []
        inner = stats_module.median_heuristic_bandwidth

        def counting(sq):
            returned.append(inner(sq))
            return returned[-1]

        monkeypatch.setattr(stats_module, "median_heuristic_bandwidth", counting)
        rng = np.random.default_rng(14)
        for call in range(1, 4):
            x = rng.standard_normal((6, 2))
            y = rng.standard_normal((7 + call, 2))
            r = permutation_test_mmd(x, y, n_permutations=5, seed=call)
            assert len(returned) == call
            assert returned[-1] == r.detail["bandwidth"]

    def test_overflowing_rows_rejected(self):
        # Squared distances of these rows overflow to inf and inf - inf;
        # the statistic would be NaN and p a meaningless 1/21.
        with pytest.raises(ValueError, match="squared norms"):
            permutation_test_mmd([[1e200], [2e200], [3.0]], [[1.0], [2.0]], n_permutations=20)
        for bad in (math.nan, math.inf, 1e154):
            with pytest.raises(ValueError, match="squared norms"):
                permutation_test_mmd([[0.0, 1.0], [bad, 2.0]], [[1.0, 0.0], [2.0, 2.0]],
                                     n_permutations=5)

    def test_large_finite_rows_accepted(self):
        r = permutation_test_mmd([[1e150], [2e150]], [[3e150], [-1e150]], n_permutations=5)
        assert math.isfinite(r.statistic)
        sigma = median_bandwidth_loop([[1e150], [2e150]], [[3e150], [-1e150]])
        assert r.detail["bandwidth"] == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (2, 3), (3, 2)])
    def test_reproduced_split_always_counted(self, m, n):
        # Tiny samples make permutations that reproduce the observed
        # partition common (for m == n also with the groups swapped). Each
        # has the observed statistic in exact arithmetic and must count as
        # >= observed, whatever the rounding; every other partition counts
        # by its own statistic.
        observed_split = {frozenset(range(m)), frozenset(range(m, m + n))}
        for data_seed in range(10):
            rng = np.random.default_rng(data_seed)
            x = rng.standard_normal((m, 2))
            y = rng.standard_normal((n, 2)) + 6.0
            pooled = np.vstack([x, y])
            sigma = permutation_test_mmd(x, y, n_permutations=1).detail["bandwidth"]
            observed = mmd2_double_loop(x, y, sigma)
            for seed in range(2):
                expected = 0
                for i in range(200):
                    perm = substream(seed, i).permutation(m + n)
                    split = {frozenset(perm[:m].tolist()), frozenset(perm[m:].tolist())}
                    if split == observed_split:
                        expected += 1
                        continue
                    stat = mmd2_double_loop(pooled[perm[:m]], pooled[perm[m:]], sigma)
                    assert abs(stat - observed) > 1e-9
                    expected += stat > observed
                r = permutation_test_mmd(x, y, n_permutations=200, seed=seed)
                assert r.p_value == (1 + expected) / 201

    def test_pinned_floats(self, monkeypatch):
        # Statistic and p-value of three seeded cases, computed when every
        # permutation built its own generator; one generator per call,
        # rekeyed per permutation, must draw the same permutations.
        pinned = [
            ("-0x1.6a59e714658c0p-6", "0x1.4141414141414p-1"),
            ("0x1.7e880cb949640p-6", "0x1.3d70a3d70a3d7p-2"),
            ("0x1.c7b1b0d8d1af8p-4", "0x1.6ece540f4898dp-4"),
        ]
        made = 0

        def counting(*args):
            nonlocal made
            made += 1
            return substream(*args)

        monkeypatch.setattr(stats_module, "substream", counting)
        cases = [(20, 20, 2, 0.0, 50), (30, 12, 3, 0.5, 99), (9, 25, 1, 1.0, 200)]
        got = []
        for case, (m, n, d, shift, n_permutations) in enumerate(cases):
            x = substream(97, case).standard_normal((m, d))
            y = substream(98, case).standard_normal((n, d)) + shift
            r = permutation_test_mmd(x, y, n_permutations, seed=case + 5)
            got.append((r.statistic.hex(), r.p_value.hex()))
        assert got == pinned
        assert made == len(cases)

    @pytest.mark.parametrize("m, n", [(12, 30), (30, 12), (20, 20)])
    @pytest.mark.parametrize("n_permutations", [1, 7, 100])
    def test_matches_per_permutation_definition(self, m, n, n_permutations):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((m, 3))
            y = rng.standard_normal((n, 3)) + 0.4
            r = permutation_test_mmd(x, y, n_permutations=n_permutations, seed=seed)
            sigma = r.detail["bandwidth"]
            assert sigma == pytest.approx(median_bandwidth_loop(x, y), rel=1e-12)
            assert r.p_value == mmd_permutation_loop(x, y, sigma, n_permutations, seed)
            assert abs(r.statistic - mmd2_double_loop(x, y, sigma)) <= 1e-12


class TestTTests:
    def test_welch_identical_samples(self):
        r = t_test_two_sample_welch([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.statistic == 0.0
        assert r.p_value == 1.0

    def test_welch_complete_separation_degenerate(self):
        r = t_test_two_sample_welch([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
        assert r.p_value == 0.0

    def test_welch_equal_constant_samples(self):
        r = t_test_two_sample_welch([2.0, 2.0], [2.0, 2.0])
        assert r.p_value == 1.0

    def test_welch_power_on_separated_normals(self):
        for seed in range(10):
            rng = substream(123, seed)
            a = rng.standard_normal(50)
            b = rng.standard_normal(50) + 1.0
            assert t_test_two_sample_welch(a, b).p_value < 0.01

    def test_welch_undersized(self):
        with pytest.raises(ValueError):
            t_test_two_sample_welch([1.0], [1.0, 2.0])

    def test_welch_against_moments_bit_identical(self):
        rng = np.random.default_rng(6)
        cases = [
            (np.full(50, 0.3), rng.random(10)),  # zero-variance reference
            (np.full(8, 2.0), np.full(3, 2.0)),  # both constant, equal: p = 1
            (np.full(8, 2.0), np.full(3, 1.0)),  # both constant, different: p = 0
            (rng.random(8), np.full(4, 0.5)),  # zero-variance window
        ]
        cases += [(rng.standard_normal(int(rng.integers(2, 500))),
                   rng.standard_normal(int(rng.integers(2, 200))) + rng.uniform(-1, 1))
                  for _ in range(40)]
        for a, b in cases:
            moments = welch_moments(a)
            assert moments == (float(a.mean()), float(a.var(ddof=1)), a.size)
            fitted = t_test_welch_against(moments, b)
            direct = t_test_two_sample_welch(a, b)
            assert (fitted.statistic, fitted.p_value) == welch_from_samples(a, b)
            assert (direct.statistic, direct.p_value) == welch_from_samples(a, b)
            assert dict(fitted.detail) == dict(direct.detail)
        assert t_test_welch_against(welch_moments(np.full(8, 2.0)), np.full(3, 2.0)).p_value == 1.0
        assert t_test_welch_against(welch_moments(np.full(8, 2.0)), np.full(3, 1.0)).p_value == 0.0

    def test_welch_tiny_spreads_keep_their_df(self):
        # Scaling both samples by 2**e scales every squared standard error by
        # 2**(2e) exactly and leaves their shares of the sum as they are, so
        # t, df and p keep their bits while the errors stay normal floats;
        # squaring the errors themselves would underflow at 2**-300 and
        # overflow at 2**300.
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.standard_normal(int(rng.integers(2, 60)))
            b = rng.standard_normal(int(rng.integers(2, 60))) + rng.uniform(-2, 2)
            plain = t_test_two_sample_welch(a, b)
            for e in (-300, 300, -480, 480):
                scaled = t_test_two_sample_welch(np.ldexp(a, e), np.ldexp(b, e))
                assert scaled.statistic == plain.statistic
                assert scaled.p_value == plain.p_value
                assert scaled.detail["df"] == plain.detail["df"]
            decimal = t_test_two_sample_welch(1e-100 * a, 1e-100 * b)
            assert decimal.p_value == pytest.approx(plain.p_value, rel=1e-9, abs=0.0)
        # One sample constant: the df is the other sample's n - 1.
        lone = t_test_two_sample_welch(np.full(5, 2.0**-300), 2.0**-300 * np.arange(7.0))
        assert lone.detail["df"] == 6.0

    @pytest.mark.parametrize("n", [2, 10, 100, 100_000])
    def test_welch_moments_equal_numpy(self, n):
        rng = np.random.default_rng(n)
        for offset in (0.0, 1e8, -3.5):
            for _ in range(20 if n < 100_000 else 2):
                xs = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 4) + offset
                for sample in (xs, np.round(xs, 2)):
                    moments = welch_moments(sample)
                    assert (moments.mean, moments.var) == welch_moments_numpy(sample)
                    assert moments.n == n

    def test_welch_moments_require_one_dimension(self):
        with pytest.raises(ValueError, match="1-D"):
            welch_moments(np.ones((3, 2)))
        with pytest.raises(ValueError, match="1-D"):
            t_test_two_sample_welch(np.ones(4), np.ones((2, 2)))
        with pytest.raises(ValueError, match="1-D"):
            welch_moments(2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_welch_non_finite_rejected(self, bad):
        # Opposite infinities sum to NaN, which numpy would warn of before
        # the ValueError; the suite's filter turns that warning into a failure.
        clean = [0.1, 0.2, 0.3]
        mixed = [np.inf, -np.inf, 0.1]
        for a, b in ((clean, [0.3, bad, 0.2]), ([bad, 0.1, 0.2], clean), (mixed, clean)):
            with pytest.raises(ValueError, match="NaN or infinite value"):
                t_test_two_sample_welch(a, b)
        for b in ([bad, 0.4], mixed):
            with pytest.raises(ValueError, match="NaN or infinite value"):
                t_test_welch_against(welch_moments(clean), b)

    # Neither test below silences numpy: the overflow must reach the
    # ValueError with no RuntimeWarning, which the suite's filter would fail.
    def test_welch_overflowing_sum_rejected(self):
        with pytest.raises(ValueError, match="sum that overflows"):
            welch_moments([1e308, 1e308, 1.0])

    def test_welch_overflowing_squares_rejected(self):
        # The mean is 0 and finite; the squared deviations are not.
        with pytest.raises(ValueError, match="squared deviations overflow"):
            t_test_two_sample_welch([1e200, -1e200, 0.0], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("scale", [1e-170, 1e-160], ids=["underflow", "subnormal"])
    def test_welch_spread_below_normal_rejected(self, scale):
        # At 1e-170 both variances underflow to 0, which would read as a
        # degenerate p = 0; at 1e-160 they are subnormal, which would move t.
        rng = np.random.default_rng(5)
        a = rng.standard_normal(30)
        b = rng.standard_normal(20) + 0.3
        with pytest.raises(ValueError, match="spread is too small"):
            t_test_two_sample_welch(scale * a, scale * b)
        with pytest.raises(ValueError, match="spread is too small"):
            t_test_welch_against(welch_moments(a), scale * b)

    def test_welch_tiny_constant_samples_stay_degenerate(self):
        r = t_test_two_sample_welch(np.full(4, 1e-200), np.full(3, 1e-200))
        assert (r.statistic, r.p_value, dict(r.detail)) == (0.0, 1.0, {"degenerate": True})

    def test_welch_moments_undersized(self):
        with pytest.raises(ValueError):
            welch_moments([1.0])
        with pytest.raises(ValueError):
            t_test_welch_against(welch_moments([1.0, 2.0]), [3.0])


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).random(10)
        b = make_rng(42).random(10)
        assert np.array_equal(a, b)

    def test_substreams_distinct_and_deterministic(self):
        a = substream(42, 0).random(5)
        b = substream(42, 1).random(5)
        c = substream(42, 0).random(5)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_substream_negative_index_rejected(self):
        with pytest.raises(ValueError):
            substream(1, -1)

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1, -7])
    def test_rekeyed_generator_draws_as_a_fresh_substream(self, seed):
        draws = (
            lambda g: g.choice(50, 10, replace=False),
            lambda g: g.integers(0, 2**63),
            lambda g: g.permutation(30),
            lambda g: g.standard_normal(5),
        )
        rng = substream(seed, 0)
        left_behind = set()
        for i in range(201):
            # Leave state behind: an advanced counter, a partly used output
            # buffer and, after an odd number of 32-bit draws, a cached half.
            rng.standard_normal(i % 3)
            for _ in range(i % 2 + 1):
                rng.integers(0, 7)
            rng.random(dtype=np.float32)
            state = rng.bit_generator.state
            left_behind.add((bool(state["state"]["counter"].any()), state["has_uint32"]))
            fresh = substream(seed, i)
            assert rekey(rng, seed, i) is rng
            # Each draw leads in turn: bounded draws reject some raw values,
            # a stale zero among them, and could hide a buffer left behind.
            for draw in draws[i % 4:] + draws[:i % 4]:
                assert np.array_equal(draw(rng), draw(fresh)), (seed, i)
        assert {(True, 0), (True, 1)} <= left_behind

    def test_rekey_rejects_the_indices_substream_rejects(self):
        for index in (-1, 2**64 - 1, 2**70):
            with pytest.raises(ValueError):
                substream(1, index)
            rng = substream(1, 3)
            with pytest.raises(ValueError):
                rekey(rng, 1, index)
            assert np.array_equal(rng.random(4), substream(1, 3).random(4))
        last = 2**64 - 2
        rng = rekey(substream(1, 0), 1, last)
        assert np.array_equal(rng.random(4), substream(1, last).random(4))

    def test_result_p_value_validated(self):
        with pytest.raises(ValueError):
            StatsTestResult(statistic=0.0, p_value=1.5)
