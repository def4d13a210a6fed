"""The covshift benchmark workloads.

Each workload is a closed loop with one caller: the next operation
starts when the previous one has returned. ``prepare`` makes the inputs
from the seed (the benchmark's own work, never timed); ``setup`` is the
program's set-up (timed, repeated from cold caches); ``step`` runs and
checks a batch of operations of the timed phase. Inputs are drawn with
numpy's PCG64, not with covshift's own Philox streams, so the program
only ever sees generated data.

A step reports the latency samples of each part of its operations: a
detect call, a window a method scores, the rest of a run_trials call, a
covshift process. The end-to-end rate is built from the parts; see
``harness.sustained_op_seconds``.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import covshift as api
import covshift.cli
from covshift.baselines import SingleInstanceEstimator, VectorKind
from covshift.eval import CoverageDetectorMethod, KsMethod, MmdMethod, SingleInstanceMethod
from covshift.scores import ConfidenceFunction
from reference import (
    brute_force_auroc,
    coverage_p_value,
    ks_bonferroni_p_value,
    mmd_p_value,
    reference_verdicts,
    trial_windows,
    welch_p_value,
)

ALPHA = 0.05
DELTA = 0.01
C_TARGETS = 10
WINDOW = 10

CLI_CODE = "from covshift.cli import entry; entry()"
EXIT_OK, EXIT_SHIFT = 0, 2


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    # When set, CLI operations run in-process through covshift.cli.main
    # so that the tracer sees inside them.
    in_process: bool = False
    child_peak_kb: int = 0

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, stream])))


@dataclass
class Step:
    """A batch of operations: how many failed their checks, and each part's latency samples."""

    failed: int
    parts: dict[str, list[float]]


def clear_covshift_caches() -> None:
    """Empty every function cache in the package, as a fresh process has them."""
    for name, module in list(sys.modules.items()):
        if name == "covshift" or name.startswith("covshift."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli(ctx: Context, argv: list[str]) -> tuple[int, float]:
    """One covshift command; returns its exit code and wall time."""
    if ctx.in_process:
        clear_covshift_caches()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            rc = covshift.cli.main(argv)
            return rc, time.perf_counter() - t0
    err_path = ctx.work / "cli.stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI_CODE, *argv],
            cwd=ctx.root, env=child_env(ctx.root), stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_peak_kb = max(ctx.child_peak_kb, usage.ru_maxrss)
    if proc.returncode not in (EXIT_OK, EXIT_SHIFT):
        sys.stderr.write(err_path.read_text(errors="replace")[-2000:])
    return proc.returncode, elapsed


def import_probe_ms(root: Path, reps: int = 5) -> float:
    """Median wall time of a fresh interpreter that imports the CLI module."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import covshift.cli"], cwd=root,
                       env=child_env(root), check=True)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


DIGITS = 8


def write_decimal(path: Path, values: np.ndarray) -> np.ndarray:
    """Write values in [0, 1) as fixed-point text; return what a reader parses.

    A 1-D array becomes one value per line, a 2-D array one comma-separated
    row per line, every value as ``0.`` and DIGITS digits. The returned
    floats are q / 10**DIGITS, which is exactly what float() gives for each
    cell, because both round the same decimal to the nearest double. numpy
    lays the text out as bytes, which is much faster than formatting floats.
    """
    scale = 10**DIGITS
    q = np.minimum(np.floor(values * scale), scale - 1).astype(np.int64)
    table = q.reshape(q.shape[0], -1)
    cells = np.empty(table.shape + (DIGITS + 3,), dtype=np.uint8)
    cells[..., 0] = ord("0")
    cells[..., 1] = ord(".")
    rest = table.copy()
    for pos in range(DIGITS + 1, 1, -1):
        cells[..., pos] = rest % 10 + ord("0")
        rest //= 10
    cells[..., -1] = ord(",")
    cells[:, -1, -1] = ord("\n")
    path.write_bytes(cells.tobytes())
    return q / scale


def dirichlet_rows(rng: np.random.Generator, n: int, alpha) -> np.ndarray:
    gam = rng.standard_gamma(np.asarray(alpha, dtype=np.float64), size=(n, len(alpha)))
    return gam / gam.sum(axis=1, keepdims=True)


class Workload:
    name = ""
    # Operations per step of the timed loop.
    ops_per_step = 1
    # covshift processes started per operation. In trace mode they run
    # in-process instead, so that the tracer sees inside them.
    processes_per_op = 0
    # Figures printed under their own names with every untraced run:
    # name -> (figure, scale, unit). A figure is ops_per_s or a part's
    # p50 or tail latency, as "detect.p50" or "detect.tail".
    named_figures: dict[str, tuple[str, float, str]] = {}

    def prepare(self, ctx: Context) -> None:
        pass

    def setup(self, ctx: Context) -> object:
        """Program set-up; returns a value every repetition must reproduce."""
        raise NotImplementedError

    def after_setup(self, ctx: Context) -> None:
        pass

    def step(self, ctx: Context, i: int) -> Step:
        raise NotImplementedError

    def verify(self, ctx: Context) -> int:
        """Checks left until after the timed phase; returns the operations that failed them."""
        return 0

    def peak_rss_mb(self, ctx: Context, own_mb: float) -> float:
        return own_mb

    def summary(self) -> dict:
        return {}


class Monitor(Workload):
    """fit once on 1e6 in-memory scores, then detect a stream of k=10 windows."""

    name = "monitor"
    M = 1_000_000
    N_WINDOWS = 4096
    ops_per_step = 256
    named_figures = {
        "detect_windows_per_s": ("ops_per_s", 1, "1/s"),
        "detect_p50_us": ("detect.p50", 1e6, "us"),
        "detect_tail_us": ("detect.tail", 1e6, "us"),
    }

    def prepare(self, ctx):
        self.train = ctx.rng(1).beta(5.0, 1.0, self.M)
        half = self.N_WINDOWS // 2
        self.windows = np.empty((self.N_WINDOWS, WINDOW))
        self.windows[0::2] = ctx.rng(2).beta(5.0, 1.0, (half, WINDOW))
        self.windows[1::2] = ctx.rng(3).beta(2.0, 2.0, (half, WINDOW))
        self.flagged = [0, 0]

    def setup(self, ctx):
        self.model = api.fit(api.ScoreSample(self.train), delta=DELTA, c_target_count=C_TARGETS)
        return self.model

    def after_setup(self, ctx):
        self.kappa = self.model.kappa_name
        self.expected, self.ambiguous = reference_verdicts(self.model, self.windows)

    def step(self, ctx, i):
        latencies, failed = [], 0
        for j in range(i * self.ops_per_step, (i + 1) * self.ops_per_step):
            j %= self.N_WINDOWS
            t0 = time.perf_counter()
            report = api.detect(self.model, api.ScoreSample(self.windows[j], self.kappa), ALPHA)
            latencies.append(time.perf_counter() - t0)
            self.flagged[j % 2] += report.shift_detected
            failed += bool(report.shift_detected != self.expected[j] and not self.ambiguous[j])
        return Step(failed, {"detect": latencies})

    def summary(self):
        return {"flagged_id_windows": self.flagged[0], "flagged_shifted_windows": self.flagged[1]}


@dataclass
class TimedMethod:
    """A run_trials method that records the latency of every window it scores.

    Samples go to the part ``<method>/k<window size>``.
    """

    inner: object
    parts: dict[str, list[float]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.inner.name

    def p_value(self, window: np.ndarray, seed: int) -> float:
        t0 = time.perf_counter()
        p = self.inner.p_value(window, seed)
        elapsed = time.perf_counter() - t0
        self.parts.setdefault(f"{self.name}/k{len(window)}", []).append(elapsed)
        return p


class Eval(Workload):
    """Comparison rounds: run_trials for ours, single-sr, ks and mmd in turn."""

    name = "eval"
    TRAIN_ROWS = 100_000
    POOL_ROWS = 2000
    SIZES = (10, 100)
    ID_ALPHA = (5.0,) + (1.0,) * 9
    SHIFTED_ALPHA = (2.0,) + (1.0,) * 9
    # Trials per run_trials call. At the seed code on a 2-vCPU Xeon ours,
    # single-sr and ks take about 0.5 s each per round and the single mmd
    # trial (4 windows) 2 to 4 s, so a 30 s timed phase holds about six
    # rounds. Each window is a latency sample, so even mmd has a dozen
    # samples per window size.
    TRIALS = {"ours": 700, "single-sr": 400, "ks": 2, "mmd": 1}
    # Trials per window size whose p-values are re-derived independently.
    CHECKED_TRIALS = {"ours": 50, "single-sr": 50, "ks": 2, "mmd": 1}

    def prepare(self, ctx):
        self.paths, self.rows = {}, {}
        for stream, (role, n, alpha) in enumerate(
            [("train", self.TRAIN_ROWS, self.ID_ALPHA), ("id", self.POOL_ROWS, self.ID_ALPHA),
             ("shifted", self.POOL_ROWS, self.SHIFTED_ALPHA)], start=10):
            path = ctx.work / f"{role}.csv"
            self.rows[role] = write_decimal(path, dirichlet_rows(ctx.rng(stream), n, alpha))
            self.paths[role] = str(path)
        # One seed for every method; the trial counts differ.
        self.plans = {m: api.TrialPlan(window_sizes=self.SIZES, n_trials=n, alpha=ALPHA,
                                       seed=ctx.seed) for m, n in self.TRIALS.items()}
        self.csv: dict[str, str] = {}
        self.first: dict[str, object] = {}
        self.checked = self.skipped = 0
        self.seconds = dict.fromkeys(self.TRIALS, 0.0)
        self.windows = dict.fromkeys(self.TRIALS, 0)

    def setup(self, ctx):
        roles = ("train", "id", "shifted")
        vectors = [api.load_vectors(self.paths[r], VectorKind.SOFTMAX) for r in roles]
        scores = [api.load_scores(self.paths[r], "softmax_csv", ConfidenceFunction.SOFTMAX_RESPONSE)
                  for r in roles]
        self.model = api.fit(scores[0], delta=DELTA, c_target_count=C_TARGETS)
        self.methods = {
            "ours": (CoverageDetectorMethod(self.model), scores),
            "single-sr": (SingleInstanceMethod(scores[0], SingleInstanceEstimator.SR), scores),
            "ks": (KsMethod(vectors[0]), vectors),
            "mmd": (MmdMethod(vectors[0]), vectors),
        }
        return self.model

    def verify(self, ctx):
        """The first round's p-values against a re-derivation from the text's values.

        Runs after the timed phase, so the re-derivation counts in neither
        the timings nor the peak RSS. A mismatch fails the first round.
        """
        sr = {role: rows.max(axis=1) for role, rows in self.rows.items()}
        ref = {
            "ours": (sr, lambda w, seed: coverage_p_value(self.model, w)),
            "single-sr": (sr, lambda w, seed: welch_p_value(sr["train"], w)),
            "ks": (self.rows, lambda w, seed: ks_bonferroni_p_value(self.rows["train"], w)),
            "mmd": (self.rows, lambda w, seed: mmd_p_value(self.rows["train"], w, seed)),
        }
        ok = True
        for name, outcome in self.first.items():
            pools, p_value = ref[name]
            for si, k in enumerate(self.SIZES):
                got = outcome.per_size[k]
                ok &= abs(brute_force_auroc(got.p_values, got.is_shifted)
                          - outcome.rows[si].auroc) <= 1e-12
                for t in range(self.CHECKED_TRIALS[name]):
                    draws = trial_windows(ctx.seed, self.TRIALS[name], si, t, self.POOL_ROWS,
                                          self.POOL_ROWS, k)
                    for pos, (role, (idx, seed)) in enumerate(zip(("id", "shifted"), draws)):
                        expected = p_value(pools[role][idx], seed)
                        if expected is None:
                            self.skipped += 1
                            continue
                        self.checked += 1
                        ok &= abs(got.p_values[2 * t + pos] - expected) <= 1e-9 + 1e-6 * expected
        return int(not ok)

    def step(self, ctx, i):
        timed, ok = TimedMethod(None), True
        for name, (method, (_, id_pool, shifted_pool)) in self.methods.items():
            timed.inner = method
            t0 = time.perf_counter()
            outcome = api.run_trials(id_pool, shifted_pool, timed, self.plans[name])
            elapsed = time.perf_counter() - t0
            in_windows = sum(sum(timed.parts[f"{name}/k{k}"]) for k in self.SIZES)
            # run_trials' own work: drawing windows and seeds, and the metrics.
            timed.parts[f"{name}/rest"] = [elapsed - in_windows]
            self.seconds[name] += elapsed
            self.windows[name] += 2 * len(self.SIZES) * self.TRIALS[name]
            csv = outcome.to_csv()
            if name not in self.csv:
                self.csv[name] = csv
                self.first[name] = outcome
            # Later rounds must reproduce the first one exactly.
            ok &= csv == self.csv[name]
        return Step(int(not ok), timed.parts)

    def summary(self):
        out = {f"eval_{m.split('-')[0]}_windows_per_s": f"{self.windows[m] / self.seconds[m]!r} 1/s"
               for m in self.TRIALS if self.seconds[m]}
        out["re_derived_p_values"] = f"{self.checked} checked, {self.skipped} near-ties skipped"
        out["csv"] = "".join(self.csv.values())
        return out


ENTROPY = ConfidenceFunction.ONE_MINUS_ENTROPY.value


def report_payload(report) -> dict:
    """The fields ``covshift detect --report`` writes for a DetectionReport."""
    return {
        "v_statistic": report.v_statistic,
        "p_value": report.p_value,
        "shift_detected": report.shift_detected,
        "alpha": ALPHA,
        "window_size": report.window_size,
        "per_coverage": [
            {"c_target": c.c_target, "b_star": c.b_star,
             "empirical_coverage": c.empirical_coverage, "violated": c.violated}
            for c in report.per_coverage
        ],
    }


class Cli(Workload):
    """Operator cycles, one process per command: `covshift fit` on a 1e6-line
    raw score file, then `covshift detect --report` on k=10 windows."""

    name = "cli"
    M = 1_000_000
    N_WINDOWS = 16
    DETECTS_PER_CYCLE = 4
    processes_per_op = 1 + DETECTS_PER_CYCLE
    named_figures = {
        "cli_fit_s": ("fit.p50", 1, "s"),
        "cli_detect_p50_ms": ("detect.p50", 1e3, "ms"),
        "cli_detect_tail_ms": ("detect.tail", 1e3, "ms"),
    }

    def prepare(self, ctx):
        path = ctx.work / "train.txt"
        self.values = write_decimal(path, ctx.rng(20).beta(5.0, 1.0, self.M))
        self.scores = str(path)
        self.model_path = str(ctx.work / "model.json")
        self.report_path = str(ctx.work / "report.json")
        self.windows = []
        for j in range(self.N_WINDOWS):
            a, b = (5.0, 1.0) if j % 2 == 0 else (2.0, 2.0)
            path = ctx.work / f"window{j}.txt"
            write_decimal(path, ctx.rng(30 + j).beta(a, b, WINDOW))
            self.windows.append(str(path))
        self.exits = [0, 0]

    def setup(self, ctx):
        # The library fit of the file's scores, which the CLI's defaults
        # (--kappa entropy, delta 0.01, 10 coverages) must reproduce.
        sample = api.ScoreSample(self.values, kappa_name=ENTROPY)
        self.model = api.fit(sample, delta=DELTA, c_target_count=C_TARGETS)
        return self.model

    def after_setup(self, ctx):
        cf = ConfidenceFunction(ENTROPY)
        self.expected = []
        for path in self.windows:
            report = api.detect(self.model, api.load_scores(path, "raw_scores", cf=cf), ALPHA)
            self.expected.append((EXIT_SHIFT if report.shift_detected else EXIT_OK,
                                  report_payload(report)))

    def step(self, ctx, i):
        rc, fit_s = run_cli(ctx, ["fit", "--scores", self.scores, "--out", self.model_path])
        ok = rc == EXIT_OK and api.load_model(self.model_path) == self.model
        detects = []
        for d in range(self.DETECTS_PER_CYCLE):
            j = (i * self.DETECTS_PER_CYCLE + d) % self.N_WINDOWS
            rc, elapsed = run_cli(ctx, ["detect", "--model", self.model_path, "--window",
                                        self.windows[j], "--report", self.report_path])
            detects.append(elapsed)
            with open(self.report_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            os.unlink(self.report_path)
            self.exits[rc == EXIT_SHIFT] += 1
            ok &= (rc, payload) == self.expected[j]
        return Step(int(not ok), {"fit": [fit_s], "detect": detects})

    def peak_rss_mb(self, ctx, own_mb):
        return ctx.child_peak_kb / 1024.0

    def summary(self):
        return {"exit_0": self.exits[0], "exit_2": self.exits[1]}


WORKLOADS = {w.name: w for w in (Monitor, Eval, Cli)}


@dataclass
class Loop:
    steps: int = 0
    ops: int = 0
    failed: int = 0
    parts: dict[str, list[float]] = field(default_factory=dict)
    seconds: float = 0.0


def timed_loop(workload: Workload, ctx: Context, seconds: float, loop: Loop | None = None) -> Loop:
    """Closed loop: run steps back to back until ``seconds`` have passed.

    Given ``loop``, continues it: steps keep their numbering and samples
    are added to it.
    """
    loop = loop or Loop()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        try:
            step = workload.step(ctx, loop.steps)
        except Exception:
            # One failed step must not end the run; count its operations and go on.
            traceback.print_exc(file=sys.stderr)
            step = Step(workload.ops_per_step, {})
        loop.steps += 1
        loop.ops += workload.ops_per_step
        loop.failed += step.failed
        for part, samples in step.parts.items():
            loop.parts.setdefault(part, []).extend(samples)
        if time.perf_counter() >= deadline:
            break
    loop.seconds += time.perf_counter() - start
    return loop
