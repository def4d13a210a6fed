"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with
the measured quantities (run with `pytest tests/test_acceptance.py -v -s`
to see every line). Monte Carlo criteria use fixed seeds chosen after a
seed sweep; thresholds and tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from covshift.bounds import solve_bound
from covshift.cli import main
from covshift.detector import detect, fit, load_model, save_model
from covshift.eval import LabeledPValues, aupr, auroc, detection_error_and_fpr_at_95tpr
from covshift.scores import ScoreSample
from covshift.sgc import iter_sgc
from covshift.stats import (
    incomplete_beta,
    ks_two_sample,
    permutation_test_mmd,
    student_t_cdf,
    substream,
    t_test_two_sample_welch,
)
from oracles import grid_scan_bound, ks_statistic_enumerated, mmd2_double_loop


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def beta_scores(a: float, b: float, n: int, stream: int, index: int = 0) -> np.ndarray:
    g1 = substream(stream, index).standard_gamma(a, size=n)
    g2 = substream(stream + 1, index).standard_gamma(b, size=n)
    return g1 / (g1 + g2)


@pytest.fixture(scope="module")
def calibration_run():
    # Shared by criteria 4 and 5: model fit on 20000 Beta(5,1) scores and
    # p-values of 500 fresh ID windows at k=100.
    start = time.perf_counter()
    train = ScoreSample(beta_scores(5, 1, 20000, stream=101))
    model = fit(train, delta=0.01, c_target_count=10)
    id_pvalues = np.array(
        [
            detect(model, ScoreSample(beta_scores(5, 1, 100, stream=202, index=i)), 0.05).p_value
            for i in range(500)
        ]
    )
    elapsed = time.perf_counter() - start
    return model, id_pvalues, elapsed


def test_criterion_1_bound_solver_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for m in range(1, 51):
        for delta in (0.1, 0.01):
            for successes in range(m):
                oracle = grid_scan_bound(m, successes, delta)
                solved = solve_bound(m, successes, delta)
                worst = max(worst, abs(solved - oracle))
    closed_form_err = max(
        abs(solve_bound(1, 0, d) - d) for d in (0.1, 0.01, 0.05)
    )
    closed_form_err = max(
        closed_form_err,
        max(
            abs(solve_bound(2, 1, d) - math.sqrt(d))
            for d in (0.1, 0.01, 0.05)
        ),
    )
    elapsed = time.perf_counter() - start
    ok = worst < 2e-6 and closed_form_err < 1e-9 and elapsed < 10.0
    report(
        1,
        "bound-solver oracle equivalence",
        ok,
        f"max |bisect-grid| = {worst:.2e} (< 2e-6), closed-form err = "
        f"{closed_form_err:.2e} (< 1e-9), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_2_lemma1_monte_carlo():
    start = time.perf_counter()
    m, p, delta, trials = 500, 0.7, 0.05, 2000
    rng = substream(1234, 0)
    violations = 0
    for _ in range(trials):
        successes = int(rng.binomial(m, p))
        if p < solve_bound(m, successes, delta):
            violations += 1
    freq = violations / trials
    upper = 0.05 + 3 * math.sqrt(0.05 * 0.95 / trials)
    elapsed = time.perf_counter() - start
    ok = freq < upper and freq > 0.005 and elapsed < 30.0
    report(
        2,
        "coverage-bound Monte Carlo",
        ok,
        f"violation freq = {freq:.4f} (in (0.005, {upper:.4f})), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_uniform_convergence_monte_carlo():
    start = time.perf_counter()
    m, delta, c_star, runs = 1000, 0.05, 0.5, 1000
    simultaneous = 0
    for r in range(runs):
        scores = substream(777, r).random(m)
        trace = iter_sgc(np.sort(scores), delta, c_star)
        # under U(0,1), the true coverage at theta is 1 - theta
        if any((1.0 - it.theta) < it.b_star for it in trace):
            simultaneous += 1
    freq = simultaneous / runs
    elapsed = time.perf_counter() - start
    ok = freq <= 0.0646 and elapsed < 60.0
    report(
        3,
        "simultaneous-bound Monte Carlo",
        ok,
        f"any-iteration violation freq = {freq:.4f} (<= 0.0646), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_detector_calibration(calibration_run):
    _, id_pvalues, elapsed = calibration_run
    rate = float((id_pvalues < 0.05).mean())
    upper = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 500)
    ok = rate <= upper and elapsed < 60.0
    report(
        4,
        "detector calibration on ID windows",
        ok,
        f"rejection rate = {rate:.4f} (<= {upper:.4f}), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_5_detector_power(calibration_run):
    model, id_pvalues, _ = calibration_run
    results = {}
    for k, min_auc in ((100, 0.95), (50, 0.85)):
        shifted = np.array(
            [
                detect(model, ScoreSample(beta_scores(2, 2, k, stream=505, index=i)), 0.05).p_value
                for i in range(100)
            ]
        )
        data = LabeledPValues(
            np.concatenate([id_pvalues, shifted]),
            np.concatenate([np.zeros(id_pvalues.size, bool), np.ones(100, bool)]),
        )
        results[k] = (auroc(data), min_auc)
    ok = all(value >= floor for value, floor in results.values())
    detail = ", ".join(
        f"AUROC@k={k} = {value:.4f} (>= {floor})" for k, (value, floor) in results.items()
    )
    report(5, "detector power on shifted windows", ok, detail)


def test_criterion_6_scaling_shape(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench",
            "--sizes", "10000,100000,1000000",
            "--window-size", "10",
            "--methods", "ours,ks",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = {}
    for line in out.read_text().strip().split("\n")[1:]:
        method, m, _, fit_s, detect_s = line.split(",")
        rows[(method, int(m))] = float(detect_s)
    ours_ratio = rows[("ours", 10**6)] / rows[("ours", 10**4)]
    ks_ratio = rows[("ks", 10**6)] / rows[("ks", 10**4)]
    speedup = rows[("ks", 10**6)] / rows[("ours", 10**6)]
    elapsed = time.perf_counter() - start
    ok = ours_ratio <= 2.0 and ks_ratio >= 20.0 and speedup >= 100.0 and elapsed < 600.0
    report(
        6,
        "detection-time scaling shape",
        ok,
        f"ours t(1e6)/t(1e4) = {ours_ratio:.2f} (<= 2), ks ratio = {ks_ratio:.0f} (>= 20), "
        f"ours {speedup:.0f}x faster than ks at m=1e6 (>= 100x), {elapsed:.0f}s (< 600s)",
    )


def test_criterion_7_statistical_kernel_oracles():
    rng = np.random.default_rng(1701)
    worst_mmd = 0.0
    for _ in range(50):
        x = rng.standard_normal((int(rng.integers(2, 7)), int(rng.integers(1, 4))))
        y = rng.standard_normal((int(rng.integers(2, 7)), x.shape[1])) + 0.3
        rng.uniform(0.4, 2.5)  # unused; keeps the KS samples below the same draws
        r = permutation_test_mmd(x, y, n_permutations=1)
        worst_mmd = max(
            worst_mmd, abs(r.statistic - mmd2_double_loop(x, y, r.detail["bandwidth"]))
        )
    ks_fixture_err = max(
        abs(ks_two_sample([1, 2, 3], [2, 3, 4]).statistic - 1.0 / 3.0),
        abs(ks_two_sample([0.1, 0.2], [0.3, 0.4]).statistic - 1.0),
        abs(ks_two_sample([5.0, 6.0], [5.0, 6.0]).statistic - 0.0),
    )
    ks_oracle_err = 0.0
    for _ in range(10):
        a = rng.standard_normal(12)
        b = rng.standard_normal(9) + 0.5
        ks_oracle_err = max(
            ks_oracle_err, abs(ks_two_sample(a, b).statistic - ks_statistic_enumerated(a, b))
        )
    t_err = max(abs(student_t_cdf(0.0, df) - 0.5) for df in (1, 2, 10, 1000, 10**6))
    ib_err = max(
        abs(incomplete_beta(1.0, 1.0, float(x)) - float(x)) for x in np.linspace(0, 1, 21)
    )
    ok = worst_mmd <= 1e-12 and ks_fixture_err <= 1e-12 and ks_oracle_err <= 1e-12 \
        and t_err <= 1e-12 and ib_err <= 1e-12
    report(
        7,
        "statistical-kernel oracles",
        ok,
        f"mmd vs double-loop = {worst_mmd:.2e} (<= 1e-12), ks fixtures err = "
        f"{ks_fixture_err:.1e}, t_cdf(0) err = {t_err:.1e}, I(1,1,x) err = {ib_err:.1e}",
    )


def test_criterion_8_null_calibration_of_tests():
    ks_rejections = 0
    for i in range(2000):
        rng = substream(31337, i)
        a = rng.standard_normal(200)
        b = rng.standard_normal(200)
        ks_rejections += ks_two_sample(a, b).p_value < 0.05
    ks_rate = ks_rejections / 2000

    welch_rejections = 0
    for i in range(500):
        rng = substream(4242, i)
        ref = rng.standard_normal(1000)
        window = rng.standard_normal(100)
        welch_rejections += t_test_two_sample_welch(ref, window).p_value < 0.05
    welch_rate = welch_rejections / 500
    welch_upper = 0.05 + 3 * math.sqrt(0.05 * 0.95 / 500)

    ok = 0.02 <= ks_rate <= 0.09 and welch_rate <= welch_upper
    report(
        8,
        "null calibration of two-sample tests",
        ok,
        f"KS rejection = {ks_rate:.4f} (in [0.02, 0.09]), Welch rejection = "
        f"{welch_rate:.4f} (<= {welch_upper:.4f})",
    )


def test_criterion_9_metric_fixtures():
    def labeled(p_shifted, p_id):
        p = np.concatenate([p_shifted, p_id])
        y = np.concatenate([np.ones(len(p_shifted), bool), np.zeros(len(p_id), bool)])
        return LabeledPValues(p, y)

    four_point = auroc(labeled([0.01, 0.5], [0.2, 0.8]))
    perfect = labeled([0.01] * 20, [0.9] * 20)
    perfect_vals = (
        auroc(perfect),
        aupr(perfect, "in"),
        aupr(perfect, "out"),
        detection_error_and_fpr_at_95tpr(perfect).fpr_at_95tpr,
    )
    worst_symmetry = 0.0
    for i in range(100):
        rng = substream(60, i)
        n = int(rng.integers(4, 40))
        p = rng.random(n)
        y = rng.random(n) < 0.5
        if y.all() or not y.any():
            y[0] = ~y[0]
        worst_symmetry = max(
            worst_symmetry,
            abs(auroc(LabeledPValues(p, y)) + auroc(LabeledPValues(p, ~y)) - 1.0),
        )
    ok = (
        four_point == 0.75
        and perfect_vals == (1.0, 1.0, 1.0, 0.0)
        and worst_symmetry < 1e-12
    )
    report(
        9,
        "metric fixtures and rank symmetry",
        ok,
        f"AUROC(4-point) = {four_point} (= 3/4), perfect fixtures = {perfect_vals}, "
        f"max |auroc(D)+auroc(flip D)-1| = {worst_symmetry:.1e}",
    )


def test_criterion_10_end_to_end_determinism(tmp_path):
    train = tmp_path / "train.txt"
    id_pool = tmp_path / "id.txt"
    shifted = tmp_path / "shifted.txt"
    for path, stream, ab in ((train, 910, (5, 1)), (id_pool, 920, (5, 1)), (shifted, 930, (2, 2))):
        values = beta_scores(*ab, 500, stream=stream)
        path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    csv_bytes = []
    for name in ("run1.csv", "run2.csv"):
        out = tmp_path / name
        rc = main(
            [
                "eval",
                "--method", "ours",
                "--train", str(train),
                "--id", str(id_pool),
                "--shifted", str(shifted),
                "--window-sizes", "10,20,50",
                "--trials", "5",
                "--seed", "2024",
                "--out", str(out),
            ]
        )
        assert rc == 0
        csv_bytes.append(out.read_bytes())
    csv_identical = csv_bytes[0] == csv_bytes[1]

    model = fit(ScoreSample(beta_scores(5, 1, 300, stream=940)), delta=0.05, c_target_count=4)
    model_path = tmp_path / "model.json"
    save_model(model, str(model_path))
    round_trip_exact = load_model(str(model_path)) == model

    ok = csv_identical and round_trip_exact
    report(
        10,
        "end-to-end determinism",
        ok,
        f"eval CSV byte-identical = {csv_identical}, model round-trip field-exact = "
        f"{round_trip_exact}",
    )
