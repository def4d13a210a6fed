import hashlib
import re

import numpy as np
import pytest

from covshift.baselines import (
    SingleInstanceEstimator,
    VectorKind,
    VectorSample,
    detect_ks,
    detect_single_instance,
)
from covshift.eval import (
    METHODS,
    BetaDist,
    CSV_HEADER,
    DirichletDist,
    GaussianDist,
    KsMethod,
    LabeledPValues,
    MethodSettings,
    MixtureDist,
    MmdMethod,
    SingleInstanceMethod,
    TrialPlan,
    UniformDist,
    aupr,
    auroc,
    detection_error_and_fpr_at_95tpr,
    gen_scores,
    gen_vectors,
    parse_score_dist,
    parse_vector_dist,
    run_trials,
)
import covshift.eval as eval_module
from covshift.scores import ScoreSample
from covshift.stats import substream
from oracles import auroc_pair_count


def labeled(p_shifted, p_id):
    p = np.concatenate([p_shifted, p_id])
    y = np.concatenate([np.ones(len(p_shifted), bool), np.zeros(len(p_id), bool)])
    return LabeledPValues(p_values=p, is_shifted=y)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc(labeled([0.01, 0.02], [0.6, 0.9])) == 1.0

    def test_all_ties(self):
        assert auroc(labeled([0.5, 0.5], [0.5, 0.5, 0.5])) == 0.5

    def test_enumerated_three_quarters(self):
        # pairs: (0.01 beats 0.2), (0.01 beats 0.8), (0.5 beats 0.8),
        # (0.5 loses to 0.2) -> 3/4
        assert auroc(labeled([0.01, 0.5], [0.2, 0.8])) == 0.75

    def test_rank_symmetry_identity(self):
        for i in range(100):
            rng = substream(60, i)
            n = int(rng.integers(4, 40))
            p = rng.random(n)
            y = rng.random(n) < 0.5
            if y.all() or not y.any():
                y[0] = ~y[0]
            data = LabeledPValues(p, y)
            flipped = LabeledPValues(p, ~y)
            assert abs(auroc(data) + auroc(flipped) - 1.0) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc(LabeledPValues([0.1, 0.2], [True, True]))

    def test_matches_pair_count_oracle_on_ties(self):
        # Half the draws take p from five values, half round it to two
        # decimals, so most thresholds hold several windows of both classes.
        for i in range(300):
            rng = substream(61, i)
            n = int(rng.integers(2, 80))
            p = rng.random(n)
            p = np.floor(p * 5) / 4 if i % 2 else np.round(p, 2)
            y = rng.random(n) < 0.5
            if y.all() or not y.any():
                y[0] = ~y[0]
            assert auroc(LabeledPValues(p, y)) == auroc_pair_count(1.0 - p, y)


class TestAupr:
    def test_perfect_separation_both_polarities(self):
        data = labeled([0.01, 0.02], [0.6, 0.9])
        assert aupr(data, "in") == 1.0
        assert aupr(data, "out") == 1.0

    def test_constant_scores_give_base_rate(self):
        data = labeled([0.5], [0.5, 0.5, 0.5])
        assert aupr(data, "in") == 0.75
        assert aupr(data, "out") == 0.25

    def test_hand_walked_staircase(self):
        # AUPR-In positives (ID) carry p {0.9, 0.4}, negatives {0.6, 0.1};
        # descending-p sweep: P=1 at R=1/2, then P=2/3 at R=1
        # -> 1/2 + 1/2 * 2/3 = 5/6
        data = labeled([0.6, 0.1], [0.9, 0.4])
        assert aupr(data, "in") == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            aupr(labeled([0.1], [0.9]), "sideways")


class TestErrorAtTpr:
    def test_perfect_separation(self):
        err = detection_error_and_fpr_at_95tpr(labeled([0.01] * 20, [0.9] * 20))
        assert err.fpr_at_95tpr == 0.0
        assert err.detection_error <= 0.025

    def test_identical_scores_forced_all_positive(self):
        err = detection_error_and_fpr_at_95tpr(labeled([0.5] * 10, [0.5] * 10))
        assert err.fpr_at_95tpr == 1.0
        assert err.detection_error == 0.5

    def test_hand_walked_overlap(self):
        # 18 of 20 positives rank above all negatives (18/20 = 0.90 <
        # 0.95), one negative slots in before the 19th positive; reaching
        # TPR >= 0.95 therefore flags exactly that negative:
        # FPR = 1/20, P_e = 0.5*(1-0.95) + 0.5*0.05 = 0.05
        p_shifted = np.concatenate([np.linspace(0.01, 0.18, 18), [0.45, 0.95]])
        p_id = np.concatenate([[0.40], np.linspace(0.5, 0.9, 19)])
        err = detection_error_and_fpr_at_95tpr(labeled(p_shifted, p_id))
        assert err.fpr_at_95tpr == pytest.approx(0.05)
        assert err.detection_error == pytest.approx(0.05)

    def test_metrics_invariant_under_monotone_score_transform(self):
        rng = substream(61, 0)
        p = rng.random(60)
        y = rng.random(60) < 0.4
        y[0], y[1] = True, False
        data = LabeledPValues(p, y)
        # squaring the detection score 1-p is strictly increasing on [0,1]
        transformed = LabeledPValues(1.0 - (1.0 - p) ** 2, y)
        assert auroc(transformed) == pytest.approx(auroc(data), abs=1e-12)
        assert aupr(transformed, "out") == pytest.approx(aupr(data, "out"), abs=1e-12)
        a = detection_error_and_fpr_at_95tpr(data)
        b = detection_error_and_fpr_at_95tpr(transformed)
        assert a == b


class TestLabeledPValues:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledPValues([0.5, 1.5], [True, False])
        with pytest.raises(ValueError):
            LabeledPValues([], [])
        with pytest.raises(ValueError):
            LabeledPValues([0.5], [True, False])
        with pytest.raises(ValueError):
            LabeledPValues([np.nan, 0.5, 0.2, 0.9], [True, False, True, False])


class TestGenerators:
    def test_beta11_is_uniform(self):
        s = gen_scores(BetaDist(1, 1), 10_000, seed=1)
        xs = np.sort(s.scores)
        ecdf = np.arange(1, xs.size + 1) / xs.size
        assert np.max(np.abs(ecdf - xs)) < 0.05

    def test_uniform_range(self):
        s = gen_scores(UniformDist(), 1000, seed=2)
        assert np.all((s.scores >= 0) & (s.scores < 1))

    def test_dirichlet_rows_sum_to_one(self):
        v = gen_vectors(DirichletDist((1.0, 1.0, 1.0)), 500, seed=3)
        assert v.kind is VectorKind.SOFTMAX
        assert np.max(np.abs(v.vectors.sum(axis=1) - 1.0)) < 1e-12

    def test_gaussian_mean_sane(self):
        v = gen_vectors(GaussianDist(mu=0.0, sigma=1.0, dim=4), 4000, seed=4)
        assert v.kind is VectorKind.EMBEDDING
        assert abs(v.vectors.mean()) < 4.0 / np.sqrt(4000 * 4)

    def test_mixture_draws_and_validation(self):
        mix = MixtureDist(((0.5, BetaDist(5, 1)), (0.5, UniformDist())))
        s = gen_scores(mix, 2000, seed=5)
        assert np.all((s.scores >= 0) & (s.scores <= 1))
        with pytest.raises(ValueError, match="sum"):
            MixtureDist(((0.5, UniformDist()), (0.6, UniformDist())))

    def test_reproducible(self):
        a = gen_scores(BetaDist(2, 3), 100, seed=9)
        b = gen_scores(BetaDist(2, 3), 100, seed=9)
        assert np.array_equal(a.scores, b.scores)

    def test_beta_gamma_underflow_named(self):
        # At a = b = 0.001 both gamma draws of some score are 0, and 0/0
        # would be a NaN score.
        message = "^beta a=0.001, b=0.001: both gamma draws of a score underflowed to 0$"
        with pytest.raises(ValueError, match=message):
            gen_scores(BetaDist(0.001, 0.001), 1000, seed=1)
        mix = MixtureDist(((0.5, BetaDist(0.001, 0.001)), (0.5, UniformDist())))
        with pytest.raises(ValueError, match=message):
            gen_scores(mix, 1000, seed=1)

    def test_dirichlet_gamma_underflow_named(self):
        message = (
            "^dirichlet concentrations 0.001, 0.001, 0.001: "
            "every gamma draw of a row underflowed to 0$"
        )
        with pytest.raises(ValueError, match=message):
            gen_vectors(DirichletDist((0.001,) * 3), 100, seed=1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BetaDist(0.0, 1.0)
        with pytest.raises(ValueError):
            GaussianDist(0.0, -1.0, 3)
        with pytest.raises(ValueError):
            gen_scores(UniformDist(), 0, seed=1)
        with pytest.raises(ValueError, match="^mixture needs at least one component$"):
            MixtureDist(())
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            gen_vectors(DirichletDist((1.0, 1.0)), 0, seed=0)
        # A distribution of the other kind is named, not drawn from.
        with pytest.raises(ValueError, match="^unsupported score distribution DirichletDist"):
            gen_scores(DirichletDist((1.0, 1.0)), 5, seed=0)
        with pytest.raises(ValueError, match="^unsupported vector distribution BetaDist"):
            gen_vectors(BetaDist(1.0, 1.0), 5, seed=0)


class TestDistParsing:
    def test_score_specs(self):
        assert parse_score_dist("uniform") == UniformDist()
        assert parse_score_dist("beta:5,1") == BetaDist(5.0, 1.0)
        mix = parse_score_dist("mixture:0.5*beta(5,1)+0.5*uniform")
        assert mix == MixtureDist(((0.5, BetaDist(5.0, 1.0)), (0.5, UniformDist())))

    def test_vector_specs(self):
        assert parse_vector_dist("dirichlet:1,1,1") == DirichletDist((1.0, 1.0, 1.0))
        assert parse_vector_dist("gaussian:0,1,5") == GaussianDist(0.0, 1.0, 5)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_score_dist("zipf:2")
        with pytest.raises(ValueError):
            parse_vector_dist("uniform")
        # A wrong count or an unparsable number names the whole spec.
        score_specs = ["beta:5", "beta:1,2,3", "beta:a,1", "mixture:0.5*beta(1)+0.5*uniform",
                       "mixture:x*uniform", "mixture:1", "mixture:0.5*gamma(1)+0.5*uniform"]
        for spec in score_specs:
            with pytest.raises(ValueError, match=f"score distribution '{re.escape(spec)}'"):
                parse_score_dist(spec)
        for spec in ["gaussian:0,1", "gaussian:0,1,2.5", "dirichlet:", "dirichlet:1,,1"]:
            with pytest.raises(ValueError, match=f"vector distribution '{re.escape(spec)}'"):
                parse_vector_dist(spec)
        # Out-of-range values keep their own messages.
        with pytest.raises(ValueError, match="beta parameters must be > 0"):
            parse_score_dist("beta:0,1")
        with pytest.raises(ValueError, match="dirichlet needs >= 2 positive concentrations"):
            parse_vector_dist("dirichlet:1")
        with pytest.raises(ValueError, match=r"mixture weights must be > 0, got \[1.0, 0.0\]"):
            parse_score_dist("mixture:1*uniform+0*beta(1,1)")
        # A NaN or infinite parameter is named when the spec is parsed.
        non_finite = [
            (parse_score_dist, "beta:inf,1", "beta parameter a must be finite, got inf"),
            (parse_score_dist, "beta:1,nan", "beta parameter b must be finite, got nan"),
            (parse_score_dist, "mixture:nan*uniform", "mixture weights must be finite, got nan"),
            (parse_score_dist, "mixture:0.5*beta(1,inf)+0.5*uniform",
             "beta parameter b must be finite, got inf"),
            (parse_vector_dist, "dirichlet:inf,1",
             "dirichlet concentrations must be finite, got inf, 1.0"),
            (parse_vector_dist, "dirichlet:nan,1",
             "dirichlet concentrations must be finite, got nan, 1.0"),
            (parse_vector_dist, "gaussian:0,nan,2", "gaussian sigma must be finite, got nan"),
            (parse_vector_dist, "gaussian:inf,1,2", "gaussian mu must be finite, got inf"),
        ]
        for parse, spec, message in non_finite:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse(spec)


class TestTrialPlan:
    def test_defaults(self):
        plan = TrialPlan()
        assert plan.window_sizes == (10, 20, 50, 100, 200, 500, 1000)
        assert plan.n_trials == 15
        assert plan.alpha == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialPlan(window_sizes=(1, 10))
        with pytest.raises(ValueError):
            TrialPlan(n_trials=0)

    @pytest.mark.parametrize(
        "field, value",
        [("window_sizes", (10.9, 20)), ("window_sizes", (10, 20.0)), ("window_sizes", (True, 20)),
         ("n_trials", 2.5), ("n_trials", 3.0), ("n_trials", True), ("seed", 1.5), ("seed", False),
         ("seed", "1")],
    )
    def test_non_integers_refused(self, field, value):
        with pytest.raises(ValueError, match="must be an integer"):
            TrialPlan(**{field: value})

    def test_numpy_integers_accepted_as_ints(self):
        plan = TrialPlan(window_sizes=np.array([20, 10]), n_trials=np.int64(3),
                         seed=np.uint64(2**63))
        assert plan.window_sizes == (10, 20) and type(plan.window_sizes[0]) is int
        assert (plan.n_trials, plan.seed) == (3, 2**63)
        assert type(plan.n_trials) is int and type(plan.seed) is int


class TestRunTrials:
    def make_method(self, ref_seed=70):
        ref = ScoreSample(substream(ref_seed, 0).standard_normal(2000))
        return SingleInstanceMethod(ref, SingleInstanceEstimator.ENTROPY)

    def test_row_shape_and_header(self):
        id_pool = ScoreSample(substream(71, 0).standard_normal(500))
        shifted = ScoreSample(substream(72, 0).standard_normal(500) + 2.0)
        plan = TrialPlan(window_sizes=(10, 20, 50), n_trials=4, seed=11)
        outcome = run_trials(id_pool, shifted, self.make_method(), plan)
        assert len(outcome.rows) == 3
        csv = outcome.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert CSV_HEADER == (
            "method,window_size,auroc,aupr_in,aupr_out,detection_error,fpr_at_95tpr,n_trials,seed"
        )
        assert len(lines) == 4
        assert all(len(line.split(",")) == 9 for line in lines[1:])

    def test_reproducible(self):
        id_pool = ScoreSample(substream(73, 0).standard_normal(300))
        shifted = ScoreSample(substream(74, 0).standard_normal(300) + 1.0)
        plan = TrialPlan(window_sizes=(10, 25), n_trials=5, seed=42)
        a = run_trials(id_pool, shifted, self.make_method(), plan).to_csv()
        b = run_trials(id_pool, shifted, self.make_method(), plan).to_csv()
        assert a == b

    def test_null_case_auroc_near_half(self):
        pool = ScoreSample(substream(75, 0).standard_normal(2000))
        plan = TrialPlan(window_sizes=(50,), n_trials=15, seed=3)
        outcome = run_trials(pool, pool, self.make_method(), plan)
        assert abs(outcome.rows[0].auroc - 0.5) <= 0.15

    def test_separated_pools_detected(self):
        id_pool = ScoreSample(substream(76, 0).standard_normal(1000))
        shifted = ScoreSample(substream(77, 0).standard_normal(1000) + 2.0)
        plan = TrialPlan(window_sizes=(100,), n_trials=10, seed=5)
        outcome = run_trials(id_pool, shifted, self.make_method(), plan)
        assert outcome.rows[0].auroc >= 0.95

    def test_undersized_pool_rejected(self):
        small = ScoreSample(substream(78, 0).standard_normal(30))
        plan = TrialPlan(window_sizes=(50,), n_trials=2, seed=1)
        with pytest.raises(ValueError, match="max window size"):
            run_trials(small, small, self.make_method(), plan)

    def test_bare_array_pool_rejected(self):
        pool = ScoreSample(substream(78, 0).standard_normal(30))
        plan = TrialPlan(window_sizes=(10,), n_trials=2, seed=1)
        with pytest.raises(TypeError, match="pool must be a ScoreSample or VectorSample"):
            run_trials(pool.scores, pool, self.make_method(), plan)
        with pytest.raises(TypeError, match="pool must be a ScoreSample or VectorSample"):
            run_trials(pool, pool.scores, self.make_method(), plan)

    def test_csv_pinned(self, monkeypatch):
        # SHA-256 of each method's CSV on small seeded pools, computed when
        # every trial built its own generator; one generator per call,
        # rekeyed per trial, must score the same windows with the same seeds.
        pinned = {
            "ours": "cae73abc694bdc819067efe1d39f81bad11d61089eb96d71974b7563b16fd07e",
            "single-sr": "a7855ba0b105d845f04336ba1579d7da50aca4ab90880f8d74390d62875c9fdb",
            "ks": "c15d955c0a519fc66480de386377a1ada9302cda4a98a6c3ad4d83835e944a2c",
            "mmd": "ea9fce9ca313d1d23ccaa03abe152976ec4a13e16fe597db03edef5a0dd21d7c",
        }
        settings = MethodSettings(n_permutations=30)
        pools = {
            "score": (gen_scores(BetaDist(5, 1), 2000, seed=90),
                      gen_scores(BetaDist(5, 1), 300, seed=91),
                      gen_scores(BetaDist(3, 2), 300, seed=92)),
            "vector": (gen_vectors(DirichletDist((4.0, 1.0, 1.0)), 400, seed=93),
                       gen_vectors(DirichletDist((4.0, 1.0, 1.0)), 300, seed=94),
                       gen_vectors(DirichletDist((2.0, 1.0, 1.0)), 300, seed=95)),
        }
        plan = TrialPlan(window_sizes=(10, 40), n_trials=6, seed=96)
        made = 0

        def counting(*args):
            nonlocal made
            made += 1
            return substream(*args)

        monkeypatch.setattr(eval_module, "substream", counting)
        for name, digest in pinned.items():
            train, id_pool, shifted = pools[METHODS[name].input_kind]
            method = METHODS[name].build(train, settings)
            csv = run_trials(id_pool, shifted, method, plan).to_csv()
            assert hashlib.sha256(csv.encode()).hexdigest() == digest, name
        assert made == len(pinned)


class TestFittedAdaptors:
    def test_ks_method_matches_detect_ks(self):
        rng = np.random.default_rng(80)
        for d in (1, 2, 3):
            ref = VectorSample(rng.integers(0, 8, (500, d)).astype(float), VectorKind.EMBEDDING)
            method = KsMethod(ref)
            for k in (2, 10, 57, 200):
                window = ref.vectors[rng.integers(0, 500, k)] + rng.integers(0, 2, (k, d))
                expected = detect_ks(ref, window).p_value
                assert method.p_value(window, seed=0) == expected

    def test_ks_build_leaves_shared_reference_alone(self):
        ref = gen_vectors(DirichletDist((2.0, 1.0, 1.0)), 300, seed=81)
        before = ref.vectors.copy()
        window = gen_vectors(DirichletDist((1.0, 1.0, 1.0)), 20, seed=82).vectors
        mmd_before = MmdMethod(ref).p_value(window, seed=5)
        KsMethod(ref)
        assert np.array_equal(ref.vectors, before)
        assert MmdMethod(ref).p_value(window, seed=5) == mmd_before

    def test_single_instance_method_matches_detect_single_instance(self):
        rng = np.random.default_rng(83)
        refs = [rng.standard_normal(400), np.full(30, 0.4), rng.integers(0, 3, 50).astype(float)]
        windows = [rng.standard_normal(10) + 0.2, np.full(5, 0.4), np.full(5, 0.5),
                   rng.integers(0, 3, 100).astype(float)]
        for values in refs:
            ref = ScoreSample(values, kappa_name="softmax_response")
            method = SingleInstanceMethod(ref, SingleInstanceEstimator.SR)
            for window in windows:
                expected = detect_single_instance(ref, window, SingleInstanceEstimator.SR)
                assert method.p_value(window, seed=0) == expected.p_value

    def test_single_instance_label_mismatch_rejected_when_built(self):
        sr = ScoreSample([0.1, 0.2], kappa_name="softmax_response")
        ent = ScoreSample([0.1, 0.2], kappa_name="one_minus_entropy")
        with pytest.raises(ValueError, match="estimator mismatch"):
            SingleInstanceMethod(sr, SingleInstanceEstimator.ENTROPY)
        with pytest.raises(ValueError, match="estimator mismatch"):
            SingleInstanceMethod(ent, SingleInstanceEstimator.SR)
        SingleInstanceMethod(ScoreSample([0.1, 0.2]), SingleInstanceEstimator.ENTROPY)

    def test_one_shot_matches_fitted_adaptor(self):
        settings = MethodSettings()
        scores = gen_scores(BetaDist(5, 1), 400, seed=84)
        vectors = gen_vectors(DirichletDist((3.0, 1.0, 1.0)), 400, seed=85)
        windows = {"score": gen_scores(BetaDist(2, 2), 20, seed=86).scores,
                   "vector": gen_vectors(DirichletDist((1.0, 1.0, 1.0)), 20, seed=87).vectors}
        for name, spec in METHODS.items():
            if spec.one_shot is None:
                continue
            ref = scores if spec.input_kind == "score" else vectors
            window = windows[spec.input_kind]
            fitted = spec.build(ref, settings).p_value(window, 3)
            assert spec.one_shot(ref, window) == fitted, name
        assert {n for n, spec in METHODS.items() if spec.one_shot is None} == {"ours", "mmd"}

    # The adaptors word no errors of their own, so each case matches the
    # message of the kernel that reads the window: violation_statistic,
    # welch_moments, ks_against_sorted (behind _check_window's shape rule) or
    # permutation_test_mmd. Opposite infinities sum to NaN, which numpy would
    # warn of first; the suite's filter turns such a warning into a failure.
    @pytest.mark.parametrize("name", ["ours", "single-sr", "single-ent"])
    @pytest.mark.parametrize(
        "window, match",
        [([0.5, np.nan, 0.7], "NaN or infinite"), ([0.5, np.inf, 0.6], "NaN or infinite"),
         ([-np.inf, 0.5, 0.6], "NaN or infinite"), ([np.inf, -np.inf, 0.5], "NaN or infinite"),
         ([[0.5, 0.6], [0.7, 0.8]], "1-D")],
        ids=["nan", "inf", "-inf", "mixed-inf", "2-d"],
    )
    def test_score_adaptors_reject_bad_windows(self, name, window, match):
        method = METHODS[name].build(gen_scores(BetaDist(5, 1), 400, seed=88), MethodSettings())
        with pytest.raises(ValueError, match=match):
            method.p_value(np.array(window), seed=0)

    @pytest.mark.parametrize("name", ["ks", "mmd"])
    @pytest.mark.parametrize(
        "window, case",
        [([[0.5, 0.5], [np.nan, 0.5]], "non-finite"),
         ([[0.5, 0.5], [np.inf, 0.0]], "non-finite"),
         ([[-np.inf, 1.0], [0.5, 0.5]], "non-finite"),
         ([[np.inf, 0.5], [0.5, -np.inf]], "non-finite"),
         ([0.5, 0.5], "1-d"),
         ([[0.5, 0.25, 0.25], [0.2, 0.4, 0.4]], "wrong-width")],
        ids=["nan", "inf", "-inf", "mixed-inf", "1-d", "wrong-width"],
    )
    def test_vector_adaptors_reject_bad_windows(self, name, window, case):
        match = {
            ("ks", "non-finite"): "KS test: a sample holds a NaN or infinite value",
            ("mmd", "non-finite"): "requires finite rows",
            ("ks", "1-d"): "dimension mismatch: window shape",
            ("mmd", "1-d"): "y must be a sequence of equal-length vectors",
            ("ks", "wrong-width"): "dimension mismatch: window shape",
            ("mmd", "wrong-width"): "dimension mismatch: x has d=2, y has d=3",
        }[name, case]
        pool = gen_vectors(DirichletDist((3.0, 1.0)), 400, seed=91)
        method = METHODS[name].build(pool, MethodSettings())
        with pytest.raises(ValueError, match=match):
            method.p_value(np.array(window), seed=0)

    def test_score_adaptors_build_no_score_sample(self, monkeypatch):
        # Each window's p-value is read from the raw array: with ScoreSample
        # and detect unusable, the adaptors still score a window, and give
        # the p-values they gave before.
        train = gen_scores(BetaDist(5, 1), 400, seed=89)
        window = gen_scores(BetaDist(2, 2), 20, seed=90).scores.copy()
        methods = [METHODS[name].build(train, MethodSettings()) for name in ("ours", "single-sr")]
        before = [method.p_value(window, seed=0) for method in methods]

        def unusable(*args, **kwargs):
            raise AssertionError("built per window")

        monkeypatch.setattr(ScoreSample, "__post_init__", unusable)
        monkeypatch.setattr(eval_module, "detect", unusable)
        assert [method.p_value(window, seed=0) for method in methods] == before
        with pytest.raises(ValueError, match="k >= 2"):
            methods[0].p_value(window[:1], seed=0)
