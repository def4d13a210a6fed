"""Measurement helpers for the covshift benchmark: percentiles, memory,
machine description, and the result line the benchmark prints last."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys

# A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
TAIL_GRID = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)


def beyond_count(n: int, p: float) -> int:
    """Samples beyond the p-th percentile of n: those ranked above ceil(p * n / 100)."""
    return n - max(1, math.ceil(p * n / 100.0))


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_GRID with at least TAIL_MIN_BEYOND samples beyond it."""
    for p in TAIL_GRID:
        if beyond_count(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Linearly interpolated percentile; percentile(values, 50) is the median."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# An operation's cost is read at this percentile of its parts' samples.
SUSTAINED_PERCENTILE = 90.0


def sustained_op_seconds(parts: dict[str, list[float]], ops: int) -> float:
    """Seconds per operation that the run sustains in nine samples out of ten.

    ``parts`` maps each part of an operation (a detect call, a window one
    method scores at one window size, the rest of a run_trials call, a
    covshift process) to its latency samples in the timed phase. A part's
    cost is the 90th percentile of its samples, weighted by samples per
    operation; the operation's cost is the sum over its parts. On a
    shared 2-vCPU Xeon VM the host switches between speeds up to 1.6
    times apart for seconds to minutes, so a mean or median lands on
    whichever speed dominated the run, while the slower speed is present
    in most runs.
    """
    return sum(percentile(samples, SUSTAINED_PERCENTILE) * len(samples) / ops
               for samples in parts.values())


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": blas_version,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The benchmark's last stdout line: metrics maps name -> (value, unit)."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
    )
