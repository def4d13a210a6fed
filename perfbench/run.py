"""Benchmark for covshift.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py in this interpreter, from the root of
a source checkout, against the package under ``src/``; design.json
records why each workload and metric is there. Inputs are drawn
from ``--seed``; the timed phase lasts ``--seconds``. With ``--trace 0``
the last stdout line is a JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run, whose
first half runs untraced so that the tracing overhead can be reported.
``--workload all`` runs every workload, each in a fresh interpreter, one
at a time. Results and traces are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Every workload in a fresh interpreter, so no cache outlives its workload."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure(workload, ctx, seconds: float):
    """Untraced run: SETUP_REPS cold set-ups, each followed by a share of the timed phase.

    Spreading the set-ups over the run lets their median see the host at
    several moments instead of one.
    """
    from harness import peak_rss_mb, percentile, sustained_op_seconds, tail_percentile
    from workloads import clear_covshift_caches, timed_loop

    setup_times, values, loop = [], [], None
    for rep in range(SETUP_REPS):
        clear_covshift_caches()
        t0 = time.perf_counter()
        values.append(workload.setup(ctx))
        setup_times.append(time.perf_counter() - t0)
        if rep == 0:
            workload.after_setup(ctx)
        # A share ends where the timed phase should be by then, so a step
        # that overran one share shortens the next.
        share = seconds * (rep + 1) / SETUP_REPS - (loop.seconds if loop else 0.0)
        if share > 0:
            loop = timed_loop(workload, ctx, share, loop)
    setup_ok = all(v == values[0] for v in values)
    rss_mb = workload.peak_rss_mb(ctx, peak_rss_mb())
    loop.failed += workload.verify(ctx)
    metrics = {
        "ops_per_s": (1.0 / sustained_op_seconds(loop.parts, loop.ops), "1/s"),
        "setup_s": (percentile(setup_times, 50), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    figures = {"ops_per_s": metrics["ops_per_s"][0]}
    parts = {}
    for part, samples in loop.parts.items():
        tail = tail_percentile(len(samples))
        figures[f"{part}.p50"] = percentile(samples, 50)
        figures[f"{part}.tail"] = percentile(samples, tail) if tail else float("nan")
        parts[part] = f"n {len(samples)}, p50 {figures[f'{part}.p50']:.6g} s" + (
            f", p{tail:g} {figures[f'{part}.tail']:.6g} s" if tail else "")
    info = {
        "setup_times_s": setup_times,
        "setup_reproducible": setup_ok,
        "mean_ops_per_s": loop.ops / loop.seconds,
        "parts": parts,
        "timed_seconds": loop.seconds,
        "failed_ops_ratio": loop.failed / loop.ops,
    }
    for alias, (key, scale, unit) in workload.named_figures.items():
        info[alias] = f"{figures[key] * scale!r} {unit}"
    correct = setup_ok and loop.failed == 0
    return correct, loop, metrics, info


def measure_traced(workload, ctx, seconds: float, spans_path: Path):
    """Traced run: traced set-up, an untraced half, then a traced half."""
    from tracer import Tracer, install_covshift, layer_metrics, layer_shares
    from workloads import clear_covshift_caches, import_probe_ms, timed_loop

    tracer = Tracer()
    install_covshift(tracer)
    with tracer.span("harness.setup"):
        clear_covshift_caches()
        workload.setup(ctx)
    tracer.restore()
    workload.after_setup(ctx)
    plain = timed_loop(workload, ctx, seconds / 2)
    ctx.in_process = workload.processes_per_op > 0
    install_covshift(tracer)
    try:
        with tracer.span("harness.timed") as root:
            traced = timed_loop(workload, ctx, seconds / 2)
    finally:
        tracer.restore()
        ctx.in_process = False
    import_ms = import_probe_ms(ROOT)
    metrics = layer_metrics(tracer, root.id, traced.ops)
    metrics["startup.import_ms"] = (import_ms, "ms")
    plain_rate = plain.ops / plain.seconds
    # In-process CLI calls skip interpreter start-up; add the probe back.
    traced_op_s = traced.seconds / traced.ops + workload.processes_per_op * import_ms / 1e3
    metrics["trace.ops_per_s"] = (1.0 / traced_op_s, "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_pct"] = ((traced_op_s * plain_rate - 1.0) * 100.0, "%")
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump([[s.id, s.parent, s.name, s.start, s.end, s.raised, s.size]
                   for s in tracer.spans], fh)
    info = {"layer_shares": layer_shares(tracer, root.id), "unwrapped": tracer.missing}
    failed = plain.failed + traced.failed + workload.verify(ctx)
    correct = failed == 0 and traced.ops > 0
    return correct, plain.ops + traced.ops, failed, metrics, info


def run_one(args) -> int:
    from harness import machine_info, result_line
    from workloads import WORKLOADS, Context

    import covshift

    if not Path(covshift.__file__).resolve().is_relative_to(SRC):
        print(f"error: covshift imported from {covshift.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = Context(ROOT, work, args.seed)
        workload.prepare(ctx)
        if args.trace:
            correct, attempted, failed, metrics, info = measure_traced(
                workload, ctx, args.seconds, OUT / f"{tag}-spans.json")
        else:
            correct, loop, metrics, info = measure(workload, ctx, args.seconds)
            attempted, failed = loop.ops, loop.failed
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info.update(workload.summary())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info(), "info": info,
              "metrics": {k: [v, u] for k, (v, u) in metrics.items()}}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"machine {json.dumps(record['machine'])}")
    for key, value in info.items():
        if key == "layer_shares":
            print("layer shares of the traced timed phase:")
            for layer, share in value.items():
                print(f"  {layer:40s} {share:8.2%}")
        elif key == "parts":
            print("latency samples by part of an operation:")
            for part, text in value.items():
                print(f"  {part:16s} {text}")
        elif key != "csv":
            print(f"{key} {value}")
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "covshift" / "__init__.py").is_file():
        print(f"error: no covshift package under {SRC}", file=sys.stderr)
        return 2
    # Set before numpy loads: OpenBLAS reads it once. Child processes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
