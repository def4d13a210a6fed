"""In-memory span tracer for the covshift benchmark.

The tracer replaces a module or class attribute with a wrapper that
records one span per call: a name, a start, an end, the span that was
open when the call began (its parent), whether the call raised, and an
optional size (rows or lines handled). Spans stay in memory until the
run ends. Every replaced attribute is put back by ``restore`` (and on
leaving the ``with`` block), so a traced run cannot leak wrappers into
an untraced one.

Attributes are wrapped at the name the caller looks up: ``detect`` as
called by ``covshift.eval`` is ``covshift.eval.detect``, because
``from .detector import detect`` bound its own reference there.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

NO_PARENT = -1


@dataclass(slots=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    raised: bool = False
    size: int = 0


_MISSING = object()


class Tracer:
    """Records spans around wrapped callables and restores them on exit."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._clock = clock
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else NO_PARENT
        span = Span(len(self.spans), parent, name, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = self._clock()
        return span

    def _close(self, span: Span, raised: bool) -> None:
        span.end = self._clock()
        span.raised = raised
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        except BaseException:
            self._close(span, True)
            raise
        self._close(span, False)

    def wrap(self, owner, attr: str, name: str, label=None, size=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``label(args, kwargs)`` appends a suffix to the span name;
        ``size(result)`` records how many items the call handled. A
        missing attribute is noted in ``missing`` and left alone, so the
        benchmark keeps running when the package drops a function.
        """
        own = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name if label is None else f"{name}.{label(args, kwargs)}")
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            if size is not None:
                span.size = size(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, own))

    def restore(self) -> None:
        """Put back every wrapped attribute, most recent first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent != NO_PARENT:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = (s.end - s.start) - covered
    return out


def descendants(spans: list[Span], root_id: int) -> list[Span]:
    """The root span and every span opened inside it."""
    inside = {root_id}
    out = []
    # A parent is always recorded before its children.
    for s in spans:
        if s.id == root_id or s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size: int = 0


def totals_by_name(spans: list[Span], selfs: dict[int, float]) -> dict[str, LayerTotals]:
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s in spans:
        t = out[s.name]
        t.calls += 1
        t.raised += s.raised
        t.total_s += s.end - s.start
        t.self_s += selfs[s.id]
        t.size += s.size
    return out


def solve_cache_hit_ratio(spans: list[Span]) -> float:
    """Bound solves answered without a binomial_cdf call, over all solves."""
    solves = {s.id for s in spans if s.name == "bounds.solve_bound"}
    if not solves:
        return 0.0
    missed = {s.parent for s in spans if s.name == "bounds.binomial_cdf" and s.parent in solves}
    return (len(solves) - len(missed)) / len(solves)


# (module, class or None, attribute, span name). Several call sites map to
# one layer name where the same function is imported into several modules.
COVSHIFT_WRAPS = (
    ("covshift", None, "fit", "detector.fit"),
    ("covshift", None, "detect", "detector.detect"),
    ("covshift", None, "run_trials", "eval.run_trials"),
    ("covshift", None, "load_scores", "scores.load_scores"),
    ("covshift", None, "load_vectors", "baselines.load_vectors"),
    ("covshift.scores", "ScoreSample", "__post_init__", "scores.ScoreSample"),
    ("covshift.cli", None, "main", "cli.main"),
    ("covshift.cli", None, "write_atomic", "cli.write_atomic"),
    ("covshift.cli", None, "load_model", "detector.load_model"),
    ("covshift.cli", None, "save_model", "detector.save_model"),
    ("covshift.cli", None, "load_scores", "scores.load_scores"),
    ("covshift.cli", None, "fit", "detector.fit"),
    ("covshift.cli", None, "detect", "detector.detect"),
    ("covshift.detector", None, "run_sgc", "sgc.run_sgc"),
    ("covshift.detector", None, "student_t_cdf", "stats.student_t_cdf"),
    ("covshift.sgc", None, "solve_bound", "bounds.solve_bound"),
    ("covshift.bounds", None, "binomial_cdf", "bounds.binomial_cdf"),
    ("covshift.bounds", None, "incomplete_beta", "stats.incomplete_beta"),
    ("covshift.eval", None, "detect", "detector.detect"),
    ("covshift.eval", None, "detect_ks", "baselines.detect_ks"),
    ("covshift.eval", None, "detect_mmd", "baselines.detect_mmd"),
    ("covshift.eval", None, "detect_single_instance", "baselines.detect_single_instance"),
    ("covshift.eval", None, "substream", "stats.substream"),
    ("covshift.eval", None, "auroc", "eval.metrics"),
    ("covshift.eval", None, "aupr", "eval.metrics"),
    ("covshift.eval", None, "detection_error_and_fpr_at_95tpr", "eval.metrics"),
    ("covshift.baselines", None, "ks_two_sample", "stats.ks_two_sample"),
    ("covshift.baselines", None, "permutation_test_mmd", "stats.permutation_test_mmd"),
    ("covshift.baselines", None, "t_test_two_sample_welch", "stats.t_test_two_sample_welch"),
    ("covshift.baselines", None, "substream", "stats.substream"),
    ("covshift.stats", None, "student_t_cdf", "stats.student_t_cdf"),
    ("covshift.stats", None, "median_heuristic_bandwidth", "stats.median_heuristic_bandwidth"),
    ("covshift.stats", None, "substream", "stats.substream"),
)


def _score_format(args, kwargs) -> str:
    fmt = kwargs.get("format", args[1] if len(args) > 1 else "")
    return "raw" if fmt == "raw_scores" else "softmax"


def install_covshift(tracer: Tracer) -> None:
    """Wrap every layer boundary of the covshift package listed above."""
    for module_name, cls, attr, name in COVSHIFT_WRAPS:
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = getattr(owner, cls)
        if name == "scores.load_scores":
            tracer.wrap(owner, attr, name, label=_score_format, size=len)
        elif name == "baselines.load_vectors":
            tracer.wrap(owner, attr, name, size=len)
        else:
            tracer.wrap(owner, attr, name)


def _mean(total: float, calls: int) -> float:
    return total / calls if calls else 0.0


# (metric, unit, layer, statistic, scale). Statistics: "calls" is calls
# per operation of the workload, "mean" the mean duration per call,
# "self" the mean self time per call, "per_item" the duration per row or
# line handled, "per_trials" the duration per run_trials call.
LAYER_METRICS = (
    ("cli.main.self_ms", "ms", "cli.main", "self", 1e3),
    ("cli.write_atomic.ms", "ms", "cli.write_atomic", "mean", 1e3),
    ("detector.load_model.ms", "ms", "detector.load_model", "mean", 1e3),
    ("detector.save_model.ms", "ms", "detector.save_model", "mean", 1e3),
    ("scores.load_scores.raw_ns_per_line", "ns/line", "scores.load_scores.raw", "per_item", 1e9),
    ("scores.load_scores.softmax_ns_per_row", "ns/row", "scores.load_scores.softmax", "per_item", 1e9),
    ("baselines.load_vectors.ns_per_row", "ns/row", "baselines.load_vectors", "per_item", 1e9),
    ("detector.fit.self_ms", "ms", "detector.fit", "self", 1e3),
    ("sgc.run_sgc.calls", "calls/op", "sgc.run_sgc", "calls", 1),
    ("sgc.run_sgc.self_ms", "ms", "sgc.run_sgc", "self", 1e3),
    ("bounds.solve_bound.calls", "calls/op", "bounds.solve_bound", "calls", 1),
    ("bounds.solve_bound.self_ms", "ms", "bounds.solve_bound", "self", 1e3),
    ("bounds.binomial_cdf.calls", "calls/op", "bounds.binomial_cdf", "calls", 1),
    ("stats.incomplete_beta.calls", "calls/op", "stats.incomplete_beta", "calls", 1),
    ("stats.incomplete_beta.self_ms", "ms", "stats.incomplete_beta", "self", 1e3),
    ("detector.detect.calls", "calls/op", "detector.detect", "calls", 1),
    ("detector.detect.self_us", "us", "detector.detect", "self", 1e6),
    ("scores.ScoreSample.us", "us", "scores.ScoreSample", "mean", 1e6),
    ("stats.student_t_cdf.calls", "calls/op", "stats.student_t_cdf", "calls", 1),
    ("stats.student_t_cdf.us", "us", "stats.student_t_cdf", "mean", 1e6),
    ("stats.ks_two_sample.calls", "calls/op", "stats.ks_two_sample", "calls", 1),
    ("stats.ks_two_sample.ms", "ms", "stats.ks_two_sample", "mean", 1e3),
    ("baselines.detect_ks.self_ms", "ms", "baselines.detect_ks", "self", 1e3),
    ("stats.permutation_test_mmd.calls", "calls/op", "stats.permutation_test_mmd", "calls", 1),
    ("stats.permutation_test_mmd.self_ms", "ms", "stats.permutation_test_mmd", "self", 1e3),
    ("stats.median_heuristic_bandwidth.ms", "ms", "stats.median_heuristic_bandwidth", "mean", 1e3),
    ("stats.substream.calls", "calls/op", "stats.substream", "calls", 1),
    ("baselines.detect_mmd.self_ms", "ms", "baselines.detect_mmd", "self", 1e3),
    ("stats.t_test_two_sample_welch.us", "us", "stats.t_test_two_sample_welch", "mean", 1e6),
    ("baselines.detect_single_instance.self_us", "us", "baselines.detect_single_instance", "self", 1e6),
    ("eval.run_trials.self_ms", "ms", "eval.run_trials", "self", 1e3),
    ("eval.metrics.ms", "ms", "eval.metrics", "per_trials", 1e3),
)

# Ingestion happens in set-up for most workloads, so these layers are
# measured over the whole traced run; every other layer over the timed
# phase only.
WHOLE_RUN_LAYERS = frozenset(
    {"scores.load_scores.raw", "scores.load_scores.softmax", "baselines.load_vectors"}
)


def layer_metrics(tracer: Tracer, timed_root: int, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced run.

    ``timed_root`` is the harness span around the timed phase; its self
    time is the harness's own share, so the shares of all layers inside
    it add up to the timed phase. ``ops`` is the number of workload
    operations completed in that phase.
    """
    selfs = self_times(tracer.spans)
    timed_spans = descendants(tracer.spans, timed_root)
    timed = totals_by_name(timed_spans, selfs)
    whole = totals_by_name(tracer.spans, selfs)
    trials_calls = timed["eval.run_trials"].calls if "eval.run_trials" in timed else 0
    out = {}
    for metric, unit, layer, stat, scale in LAYER_METRICS:
        t = (whole if layer in WHOLE_RUN_LAYERS else timed).get(layer, LayerTotals())
        if stat == "calls":
            value = _mean(t.calls, ops)
        elif stat == "mean":
            value = _mean(t.total_s, t.calls)
        elif stat == "self":
            value = _mean(t.self_s, t.calls)
        elif stat == "per_item":
            value = _mean(t.total_s, t.size)
        else:
            value = _mean(t.total_s, trials_calls)
        out[metric] = (value * scale, unit)
    root = tracer.spans[timed_root]
    out["bounds.solve_bound.cache_hit_ratio"] = (solve_cache_hit_ratio(timed_spans), "ratio")
    out["harness.self_share"] = (_mean(selfs[timed_root], root.end - root.start), "ratio")
    out["trace.raised_calls"] = (float(sum(t.raised for t in whole.values())), "count")
    return out


def layer_shares(tracer: Tracer, timed_root: int) -> dict[str, float]:
    """Each layer's self time as a share of the timed phase (sums to 1)."""
    selfs = self_times(tracer.spans)
    root = tracer.spans[timed_root]
    duration = root.end - root.start
    shares: dict[str, float] = defaultdict(float)
    for s in descendants(tracer.spans, timed_root):
        shares[s.name] += selfs[s.id] / duration
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
