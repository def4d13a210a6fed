"""Command-line surface: fit, detect, eval, bench, simulate.

Exit codes: 0 = success (or no shift for detect), 2 = shift detected,
1 = any error. All output files are written atomically (temp file +
rename) and every command that touches randomness takes --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

import numpy as np

from . import detector as detector_mod
from .detector import detect, fit, load_model, save_model, write_atomic
from .scores import ConfidenceFunction, ScoreSample, load_scores

# covshift.eval and covshift.baselines are imported inside the commands
# that use them (eval, bench, simulate), so fit and detect do not pay
# for their import.

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SHIFT = 2

BENCH_CSV_HEADER = "method,m,k,fit_seconds,detect_seconds"


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # shift verdicts here, so route usage failures through exit code 1.
    def error(self, message: str):
        raise _UsageError(message)


def _load_score_file(path: str, fmt: str, kappa: str, header: bool) -> ScoreSample:
    fmt = "raw_scores" if fmt == "raw" else "softmax_csv"
    return load_scores(path, fmt, cf=ConfidenceFunction.from_name(kappa), header=header)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def cmd_fit(args) -> int:
    if not 0.0 < args.delta < 1.0:
        raise ValueError(f"--delta must lie in (0, 1), got {args.delta}")
    sample = _load_score_file(args.scores, args.format, args.kappa, args.header)
    if len(sample) < 2:
        raise ValueError(f"m must be >= 2 to fit, got m={len(sample)}")
    model = fit(sample, delta=args.delta, c_target_count=args.coverages)
    save_model(model, args.out)
    print(f"fitted {len(model.pairs)} coverage bounds on m={model.m} scores "
          f"(kappa={model.kappa_name}, delta={model.delta})")
    print(f"{'c_target':>10} {'b_star':>12} {'theta':>18}")
    for pair in model.pairs:
        print(f"{pair.c_target:>10.4f} {pair.b_star:>12.8f} {pair.theta:>18.10g}")
    print(f"model written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def cmd_detect(args) -> int:
    if not 0.0 <= args.alpha < 1.0:
        raise ValueError(f"--alpha must lie in [0, 1), got {args.alpha}")
    model = load_model(args.model)
    window = _load_score_file(args.window, args.format, model.kappa_name, args.header)
    report = detect(model, window, args.alpha)
    print(f"window size k = {report.window_size}")
    print(f"V statistic   = {report.v_statistic:.8f}")
    print(f"p-value       = {report.p_value:.8g}")
    print(f"{'c_target':>10} {'b_star':>12} {'empirical':>12} {'violated':>9}")
    for check in report.per_coverage:
        flag = "yes" if check.violated else "no"
        print(f"{check.c_target:>10.4f} {check.b_star:>12.8f} "
              f"{check.empirical_coverage:>12.6f} {flag:>9}")
    verdict = "SHIFT DETECTED" if report.shift_detected else "no shift"
    print(f"verdict: {verdict} (alpha={args.alpha})")
    if args.report:
        payload = {
            "v_statistic": report.v_statistic,
            "p_value": report.p_value,
            "shift_detected": report.shift_detected,
            "alpha": args.alpha,
            "window_size": report.window_size,
            "per_coverage": [c._asdict() for c in report.per_coverage],
        }
        write_atomic(args.report, json.dumps(payload, indent=2) + "\n")
    return EXIT_SHIFT if report.shift_detected else EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _load_score_pools(args):
    if args.format == "embedding":
        raise ValueError(f"method {args.method!r} requires score input "
                         "(--format raw or softmax with --kappa)")
    kappa = args.kappa
    if args.format == "softmax" and kappa == "raw":
        raise ValueError("softmax pools need --kappa sr or --kappa entropy")
    loader = lambda path: _load_score_file(path, args.format, kappa, args.header)
    return loader(args.train), loader(args.id), loader(args.shifted)


def _as_vectors(sample: ScoreSample):
    # Scores act as 1-D embedding vectors so the two-sample baselines run
    # directly on score-space pools.
    from .baselines import VectorKind, VectorSample

    return VectorSample(sample.scores[:, None], kind=VectorKind.EMBEDDING)


def _load_vector_pools(args):
    from .baselines import VectorKind, load_vectors

    if args.format == "raw":
        loader = lambda path: _as_vectors(load_scores(path, "raw_scores", header=args.header))
    else:
        kind = VectorKind(args.format)
        loader = lambda path: load_vectors(path, kind, header=args.header)
    return loader(args.train), loader(args.id), loader(args.shifted)


def _given(**values) -> dict:
    return {name: value for name, value in values.items() if value is not None}


def cmd_eval(args) -> int:
    from .eval import METHODS, MethodSettings, TrialPlan, run_trials

    spec = METHODS[args.method]
    load_pools = _load_score_pools if spec.input_kind == "score" else _load_vector_pools
    train, id_pool, shifted_pool = load_pools(args)
    settings = MethodSettings(**_given(
        delta=args.delta, c_target_count=args.coverages, n_permutations=args.permutations
    ))
    method = spec.build(train, settings)
    plan = TrialPlan(**_given(
        window_sizes=args.window_sizes, n_trials=args.trials, seed=args.seed
    ))
    outcome = run_trials(id_pool, shifted_pool, method, plan)
    write_atomic(args.out, outcome.to_csv())
    print(f"wrote {len(outcome.rows)} metric rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_method(name: str, m: int, k: int, seed: int) -> tuple[float, float]:
    import timeit

    from .eval import METHODS, MethodSettings, UniformDist, gen_scores

    spec = METHODS[name]
    ref = gen_scores(UniformDist(), m, seed)
    window = gen_scores(UniformDist(), k, seed + 1).scores
    if spec.input_kind == "vector":
        ref, window = _as_vectors(ref), window[:, None]
    start = time.perf_counter()
    method = spec.build(ref, MethodSettings())
    fit_seconds = time.perf_counter() - start
    if spec.one_shot is None:
        one_window = partial(method.p_value, window, seed)
    else:
        # Baselines are timed as the source paper runs them: the two-sample
        # test on the raw reference for every window.
        one_window = partial(spec.one_shot, ref, window)
    one_window()  # warm-up
    return fit_seconds, float(np.median(timeit.repeat(one_window, number=1, repeat=5)))


def cmd_bench(args) -> int:
    sizes = args.sizes
    if min(sizes) < 2:
        raise ValueError(f"--sizes must all be >= 2, got {sizes}")
    if sizes != sorted(sizes):
        raise ValueError(f"--sizes must be ascending, got {sizes}")
    if args.window_size < 2:
        raise ValueError(f"--window-size must be >= 2, got {args.window_size}")
    lines = [BENCH_CSV_HEADER]
    for method in args.methods:
        for m in sizes:
            fit_s, detect_s = _bench_method(method, m, args.window_size, args.seed)
            lines.append(f"{method},{m},{args.window_size},{fit_s:.9f},{detect_s:.9f}")
            print(lines[-1])
    write_atomic(args.out, "\n".join(lines) + "\n")
    print(f"bench results written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    from .eval import gen_scores, gen_vectors, parse_score_dist, parse_vector_dist

    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    if args.dist.startswith(("dirichlet:", "gaussian:")):
        vdist = parse_vector_dist(args.dist)
        vectors = gen_vectors(vdist, args.n, args.seed)
        text = "\n".join(
            ",".join(repr(v) for v in row) for row in vectors.vectors.tolist()
        ) + "\n"
    else:
        dist = parse_score_dist(args.dist)
        sample = gen_scores(dist, args.n, args.seed)
        text = "\n".join(repr(v) for v in sample.scores.tolist()) + "\n"
    write_atomic(args.out, text)
    print(f"wrote {args.n} draws from {args.dist} to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _known_methods(names: list[str]) -> list[str]:
    # Checked when the flag is parsed, so the parser itself needs no eval import.
    from .eval import METHODS

    unknown = [n for n in names if n not in METHODS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown method(s) {','.join(unknown)}; choose from {','.join(METHODS)}"
        )
    return names


def _method_list(text: str) -> list[str]:
    return _known_methods(text.split(","))


def _method(text: str) -> str:
    return _known_methods([text])[0]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="covshift", description="Coverage-bound distribution shift detection")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a coverage-bound detector model")
    p_fit.add_argument("--scores", required=True, help="detection-training score file")
    p_fit.add_argument("--format", choices=["raw", "softmax"], default="raw")
    p_fit.add_argument("--header", action="store_true", help="skip the first CSV line")
    p_fit.add_argument("--kappa", choices=["sr", "entropy"], default="entropy")
    p_fit.add_argument("--delta", type=float, default=detector_mod.DEFAULT_DELTA)
    p_fit.add_argument("--coverages", type=int, default=detector_mod.DEFAULT_C_TARGET_COUNT)
    p_fit.add_argument("--out", required=True, help="model output path")
    p_fit.set_defaults(func=cmd_fit)

    p_detect = sub.add_parser("detect", help="test a window against a fitted model")
    p_detect.add_argument("--model", required=True)
    p_detect.add_argument("--window", required=True)
    p_detect.add_argument("--format", choices=["raw", "softmax"], default="raw")
    p_detect.add_argument("--header", action="store_true")
    p_detect.add_argument("--alpha", type=float, default=detector_mod.DEFAULT_ALPHA)
    p_detect.add_argument("--report", help="optional JSON report path")
    p_detect.set_defaults(func=cmd_detect)

    p_eval = sub.add_parser("eval", help="run the trial harness on labeled pools")
    p_eval.add_argument("--method", required=True, type=_method,
                        help="detection method; an unknown name lists the choices")
    p_eval.add_argument("--train", required=True, help="detection-training / reference pool")
    p_eval.add_argument("--id", required=True, help="in-distribution window pool")
    p_eval.add_argument("--shifted", required=True, help="shifted window pool")
    p_eval.add_argument("--format", choices=["raw", "softmax", "embedding"], default="raw")
    p_eval.add_argument("--header", action="store_true")
    p_eval.add_argument("--kappa", choices=["sr", "entropy", "raw"], default="raw")
    # Unset flags take covshift.eval's defaults, filled in by cmd_eval.
    p_eval.add_argument("--window-sizes", type=_int_list)
    p_eval.add_argument("--trials", type=int)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--delta", type=float)
    p_eval.add_argument("--coverages", type=int)
    p_eval.add_argument("--permutations", type=int)
    p_eval.add_argument("--out", required=True, help="metrics CSV path")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="wall-clock scaling benchmark")
    p_bench.add_argument("--sizes", type=_int_list, default=[10_000, 100_000, 1_000_000])
    p_bench.add_argument("--window-size", type=int, default=10)
    p_bench.add_argument(
        "--methods",
        type=_method_list,
        default=["ours", "ks"],
        help="comma-separated method names, as for eval --method",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)

    p_sim = sub.add_parser("simulate", help="write a synthetic score or vector pool")
    p_sim.add_argument("--dist", required=True,
                       help="e.g. uniform | beta:5,1 | mixture:0.5*beta(5,1)+0.5*uniform "
                            "| dirichlet:1,1,1 | gaussian:0,1,5")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    raise SystemExit(main())
