"""Threshold-curve metrics, the trial harness, and synthetic generators.

Detectors are compared through the p-values they assign to labeled
windows: the detection score of a window is 1 - p, and shifted windows
are the positive class (except for AUPR-In, which scores in-distribution
windows as positives). Synthetic score/vector generators stand in for
image-space shifts at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Protocol, Union

import numpy as np

from .baselines import (
    SingleInstanceEstimator,
    VectorKind,
    VectorSample,
    detect_ks,
    detect_ks_sorted,
    detect_mmd,
    detect_single_instance,
    sort_columns,
)
# detect itself is not called here: the "ours" adaptor reads
# violation_statistic directly. The name stays importable as
# covshift.eval.detect, where perfbench's tracer wraps it.
from .detector import (
    DEFAULT_ALPHA,
    DEFAULT_C_TARGET_COUNT,
    DEFAULT_DELTA,
    DetectorModel,
    detect,
    fit,
    violation_statistic,
)
from .scores import ScoreSample
from .stats import (
    WelchMoments,
    make_rng,
    rekey,
    substream,
    t_test_welch_against,
    welch_moments,
)

__all__ = [
    "LabeledPValues",
    "TrialPlan",
    "MetricsRow",
    "TrialOutcome",
    "auroc",
    "aupr",
    "detection_error_and_fpr_at_95tpr",
    "run_trials",
    "BetaDist",
    "UniformDist",
    "MixtureDist",
    "DirichletDist",
    "GaussianDist",
    "gen_scores",
    "gen_vectors",
    "parse_score_dist",
    "parse_vector_dist",
    "CoverageDetectorMethod",
    "KsMethod",
    "MmdMethod",
    "SingleInstanceMethod",
    "MethodSettings",
    "MethodSpec",
    "METHODS",
]

DEFAULT_WINDOW_SIZES = (10, 20, 50, 100, 200, 500, 1000)
DEFAULT_PERMUTATIONS = 100


@dataclass(frozen=True)
class LabeledPValues:
    """p-values with ground-truth shift labels for threshold-curve metrics."""

    p_values: np.ndarray
    is_shifted: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p_values, dtype=np.float64)
        y = np.asarray(self.is_shifted, dtype=bool)
        if p.ndim != 1 or p.size < 1 or p.shape != y.shape:
            raise ValueError("need matching nonempty p-value and label arrays")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("p-values must lie in [0, 1]")
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "is_shifted", y)

    def require_both_classes(self) -> None:
        if not (self.is_shifted.any() and (~self.is_shifted).any()):
            raise ValueError("metric requires both shifted and unshifted entries")


@dataclass(frozen=True)
class TrialPlan:
    """Window sizes, trial count, base seed, and an alpha no metric reads."""

    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES
    n_trials: int = 15
    alpha: float = DEFAULT_ALPHA
    seed: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(sorted(set(int(s) for s in self.window_sizes)))
        if not sizes or any(s < 2 for s in sizes):
            raise ValueError("window sizes must all be >= 2")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        object.__setattr__(self, "window_sizes", sizes)


def _grouped_counts(scores: np.ndarray, positives: np.ndarray):
    # Cumulative true/false positive counts at each distinct score
    # threshold, descending; tied scores form one threshold step.
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_pos = positives[order]
    tp = np.cumsum(sorted_pos)
    fp = np.cumsum(~sorted_pos)
    last_of_group = np.nonzero(np.diff(sorted_scores) != 0.0)[0]
    idx = np.concatenate([last_of_group, [scores.size - 1]])
    return tp[idx], fp[idx]


def auroc(data: LabeledPValues) -> float:
    """Mann-Whitney AUROC of the detection score 1 - p; ties count half.

    Walking the thresholds downwards, each negative loses to every
    positive above its threshold and ties with the positives at it. Every
    term is a multiple of 1/2, so the pair count U is exact.
    """
    data.require_both_classes()
    tp, fp = _grouped_counts(1.0 - data.p_values, data.is_shifted)
    step_tp = np.diff(tp, prepend=0)
    step_fp = np.diff(fp, prepend=0)
    u = float((step_fp * (tp - step_tp / 2.0)).sum())
    return u / (int(tp[-1]) * int(fp[-1]))


def aupr(data: LabeledPValues, positive: str) -> float:
    """Area under precision-recall via step interpolation.

    positive='in' treats in-distribution windows as positives with score
    p; positive='out' treats shifted windows as positives with score 1-p.
    """
    data.require_both_classes()
    if positive == "in":
        labels = ~data.is_shifted
        scores = data.p_values
    elif positive == "out":
        labels = data.is_shifted
        scores = 1.0 - data.p_values
    else:
        raise ValueError(f"positive must be 'in' or 'out', got {positive!r}")
    tp, fp = _grouped_counts(scores, labels)
    n_pos = int(labels.sum())
    recall = tp / n_pos
    precision = tp / (tp + fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


class ErrorAtTpr(NamedTuple):
    detection_error: float
    fpr_at_95tpr: float


def detection_error_and_fpr_at_95tpr(data: LabeledPValues) -> ErrorAtTpr:
    """FPR and detection error at the largest threshold with TPR >= 0.95.

    Thresholds step through distinct values of the detection score 1 - p
    (shifted windows positive); P_e uses the TPR actually achieved there.
    """
    data.require_both_classes()
    scores = 1.0 - data.p_values
    tp, fp = _grouped_counts(scores, data.is_shifted)
    n_pos = int(data.is_shifted.sum())
    n_neg = data.is_shifted.size - n_pos
    tpr = tp / n_pos
    fpr = fp / n_neg
    qualifying = np.nonzero(tpr >= 0.95)[0]
    i = int(qualifying[0])
    p_e = 0.5 * (1.0 - float(tpr[i])) + 0.5 * float(fpr[i])
    return ErrorAtTpr(detection_error=p_e, fpr_at_95tpr=float(fpr[i]))


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------

def _require_finite(name: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite, got {', '.join(map(str, values))}")


@dataclass(frozen=True)
class BetaDist:
    a: float
    b: float

    def __post_init__(self) -> None:
        _require_finite("beta parameter a", self.a)
        _require_finite("beta parameter b", self.b)
        if not (self.a > 0 and self.b > 0):
            raise ValueError(f"beta parameters must be > 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class UniformDist:
    pass


@dataclass(frozen=True)
class MixtureDist:
    components: tuple[tuple[float, Union[BetaDist, UniformDist]], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        weights = [w for w, _ in self.components]
        _require_finite("mixture weights", *weights)
        if any(w <= 0 for w in weights):
            raise ValueError(f"mixture weights must be > 0, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {sum(weights)}")


ScoreDist = Union[BetaDist, UniformDist, MixtureDist]


@dataclass(frozen=True)
class DirichletDist:
    alpha: tuple[float, ...]

    def __post_init__(self) -> None:
        _require_finite("dirichlet concentrations", *self.alpha)
        if len(self.alpha) < 2 or any(a <= 0 for a in self.alpha):
            raise ValueError(f"dirichlet needs >= 2 positive concentrations, got {self.alpha}")


@dataclass(frozen=True)
class GaussianDist:
    mu: float
    sigma: float
    dim: int

    def __post_init__(self) -> None:
        _require_finite("gaussian mu", self.mu)
        _require_finite("gaussian sigma", self.sigma)
        if self.sigma <= 0 or self.dim < 1:
            raise ValueError(
                f"gaussian needs sigma > 0 and dim >= 1, got sigma={self.sigma}, dim={self.dim}"
            )


VectorDist = Union[DirichletDist, GaussianDist]


def _draw_scores(dist: ScoreDist, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(dist, UniformDist):
        return rng.random(n)
    if isinstance(dist, BetaDist):
        # Gamma-ratio construction: X/(X+Y) with X~Gamma(a), Y~Gamma(b).
        ga = rng.standard_gamma(dist.a, size=n)
        total = ga + rng.standard_gamma(dist.b, size=n)
        if not total.all():
            raise ValueError(
                f"beta a={dist.a}, b={dist.b}: both gamma draws of a score underflowed to 0"
            )
        return ga / total
    if isinstance(dist, MixtureDist):
        weights = np.array([w for w, _ in dist.components])
        choice = rng.choice(len(dist.components), size=n, p=weights)
        out = np.empty(n)
        for ci, (_, comp) in enumerate(dist.components):
            mask = choice == ci
            out[mask] = _draw_scores(comp, int(mask.sum()), rng)
        return out
    raise ValueError(f"unsupported score distribution {dist!r}")


def gen_scores(dist: ScoreDist, n: int, seed: int) -> ScoreSample:
    """Seeded reproducible score sample from a synthetic distribution."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    values = _draw_scores(dist, n, make_rng(seed))
    return ScoreSample(values)


def gen_vectors(dist: VectorDist, n: int, seed: int) -> VectorSample:
    """Seeded reproducible vector sample (dirichlet softmax or gaussian embedding)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    if isinstance(dist, DirichletDist):
        gam = rng.standard_gamma(np.asarray(dist.alpha), size=(n, len(dist.alpha)))
        sums = gam.sum(axis=1, keepdims=True)
        if not sums.all():
            raise ValueError(
                f"dirichlet concentrations {', '.join(map(str, dist.alpha))}: "
                "every gamma draw of a row underflowed to 0"
            )
        rows = gam / sums
        return VectorSample(vectors=rows, kind=VectorKind.SOFTMAX)
    if isinstance(dist, GaussianDist):
        rows = dist.mu + dist.sigma * rng.standard_normal((n, dist.dim))
        return VectorSample(vectors=rows, kind=VectorKind.EMBEDDING)
    raise ValueError(f"unsupported vector distribution {dist!r}")


def _parse_values(text: str, types: tuple, kind: str, spec: str) -> list:
    # One value per entry of types from comma-separated text; a wrong count
    # or an unparsable value is a parse error that names the whole spec.
    fields = text.split(",")
    if len(fields) == len(types):
        try:
            return [t(f) for t, f in zip(types, fields)]
        except ValueError:
            pass
    raise ValueError(f"cannot parse {kind} distribution {spec!r}")


def _parse_component(text: str, spec: str) -> Union[BetaDist, UniformDist]:
    text = text.strip()
    if text == "uniform":
        return UniformDist()
    if text.startswith("beta(") and text.endswith(")"):
        return BetaDist(*_parse_values(text[len("beta("):-1], (float, float), "score", spec))
    raise ValueError(f"cannot parse score distribution {spec!r}")


def parse_score_dist(spec: str) -> ScoreDist:
    """Parse 'uniform', 'beta:A,B', or 'mixture:W*beta(A,B)+W*uniform'."""
    spec = spec.strip()
    if spec == "uniform":
        return UniformDist()
    if spec.startswith("beta:"):
        return BetaDist(*_parse_values(spec[len("beta:"):], (float, float), "score", spec))
    if spec.startswith("mixture:"):
        parts = spec[len("mixture:"):].split("+")
        components = []
        for part in parts:
            weight_text, _, comp_text = part.partition("*")
            (weight,) = _parse_values(weight_text, (float,), "score", spec)
            components.append((weight, _parse_component(comp_text, spec)))
        return MixtureDist(tuple(components))
    raise ValueError(f"cannot parse score distribution {spec!r}")


def parse_vector_dist(spec: str) -> VectorDist:
    """Parse 'dirichlet:A1,A2,...' or 'gaussian:MU,SIGMA,DIM'."""
    spec = spec.strip()
    if spec.startswith("dirichlet:"):
        text = spec[len("dirichlet:"):]
        alpha = _parse_values(text, (float,) * (text.count(",") + 1), "vector", spec)
        return DirichletDist(tuple(alpha))
    if spec.startswith("gaussian:"):
        text = spec[len("gaussian:"):]
        return GaussianDist(*_parse_values(text, (float, float, int), "vector", spec))
    raise ValueError(f"cannot parse vector distribution {spec!r}")


# ---------------------------------------------------------------------------
# Window-level method adaptors and the trial harness
# ---------------------------------------------------------------------------

class WindowMethod(Protocol):
    name: str

    def p_value(self, window: np.ndarray, seed: int) -> float: ...


@dataclass
class CoverageDetectorMethod:
    """The fitted coverage detector as a window-level p-value source.

    Each window's p-value is violation_statistic's, the p-value of
    detect's report on the same scores, with no report built. The windows
    are the model's own kind of score, so there is no kappa label to check.
    """

    name: ClassVar[str] = "ours"
    model: DetectorModel

    def p_value(self, window: np.ndarray, seed: int) -> float:
        return violation_statistic(self.model, window)[3]


@dataclass
class KsMethod:
    """Bonferroni KS against the reference columns, sorted once when built.

    Each window then costs O(k log m) per dimension; p-values are
    bit-identical to the one-shot detect_ks.
    """

    name: ClassVar[str] = "ks"
    ref: VectorSample
    columns: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.columns = sort_columns(self.ref)

    def p_value(self, window: np.ndarray, seed: int) -> float:
        sample = VectorSample(window, kind=self.ref.kind)
        return detect_ks_sorted(self.columns, sample).p_value


@dataclass
class MmdMethod:
    name: ClassVar[str] = "mmd"
    ref: VectorSample
    n_permutations: int = DEFAULT_PERMUTATIONS

    def p_value(self, window: np.ndarray, seed: int) -> float:
        sample = VectorSample(window, kind=self.ref.kind)
        return detect_mmd(self.ref, sample, self.n_permutations, seed).p_value


@dataclass
class SingleInstanceMethod:
    """Welch t-test against the reference moments, computed once when built.

    Each window then costs O(k); p-values are bit-identical to the
    one-shot detect_single_instance. A reference whose kappa label
    names another confidence function than the estimator's is rejected
    here, when built.
    """

    ref: ScoreSample
    estimator: SingleInstanceEstimator
    moments: WelchMoments = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.estimator.check_kappa(self.ref.kappa_name)
        self.moments = welch_moments(self.ref.scores)

    @property
    def name(self) -> str:
        label = "sr" if self.estimator is SingleInstanceEstimator.SR else "ent"
        return f"single-{label}"

    def p_value(self, window: np.ndarray, seed: int) -> float:
        if window.ndim != 1 or not np.isfinite(window).all():
            raise ValueError("window must be a 1-D array of finite scores")
        return t_test_welch_against(self.moments, window).p_value


class MethodSettings(NamedTuple):
    """Settings a method's adaptor is built with; `covshift bench` uses the defaults."""

    delta: float = DEFAULT_DELTA
    c_target_count: int = DEFAULT_C_TARGET_COUNT
    n_permutations: int = DEFAULT_PERMUTATIONS


Pool = Union[ScoreSample, VectorSample]


class MethodSpec(NamedTuple):
    """What a method reads ("score" or "vector" pools) and how its adaptor is built.

    build takes the reference pool of that kind; for "ours" building is
    the fit, for ks and single-instance the reference-only work.
    one_shot(ref, window) is the per-window p-value
    of the source paper's two-sample baseline on the raw reference, which
    `covshift bench` times; None where the adaptor's p_value already is
    that (ours, and mmd, which has no reference-only work).
    """

    input_kind: str
    build: Callable[[Pool, MethodSettings], WindowMethod]
    one_shot: Callable[[Pool, np.ndarray], float] | None = None


def _ks_one_shot(ref: VectorSample, window: np.ndarray) -> float:
    return detect_ks(ref, VectorSample(window, kind=ref.kind)).p_value


def _single_one_shot(estimator: SingleInstanceEstimator):
    def p_value(ref: ScoreSample, window: np.ndarray) -> float:
        sample = ScoreSample(scores=window, kappa_name=ref.kappa_name)
        return detect_single_instance(ref, sample, estimator).p_value

    return p_value


METHODS: dict[str, MethodSpec] = {
    "ours": MethodSpec(
        "score",
        lambda ref, s: CoverageDetectorMethod(
            fit(ref, delta=s.delta, c_target_count=s.c_target_count)
        ),
    ),
    "ks": MethodSpec("vector", lambda ref, s: KsMethod(ref), _ks_one_shot),
    "mmd": MethodSpec("vector", lambda ref, s: MmdMethod(ref, n_permutations=s.n_permutations)),
    "single-sr": MethodSpec(
        "score",
        lambda ref, s: SingleInstanceMethod(ref, SingleInstanceEstimator.SR),
        _single_one_shot(SingleInstanceEstimator.SR),
    ),
    "single-ent": MethodSpec(
        "score",
        lambda ref, s: SingleInstanceMethod(ref, SingleInstanceEstimator.ENTROPY),
        _single_one_shot(SingleInstanceEstimator.ENTROPY),
    ),
}


class MetricsRow(NamedTuple):
    method: str
    window_size: int
    auroc: float
    aupr_in: float
    aupr_out: float
    detection_error: float
    fpr_at_95tpr: float
    n_trials: int
    seed: int


CSV_HEADER = ",".join(MetricsRow._fields)


@dataclass
class TrialOutcome:
    method: str
    per_size: dict[int, LabeledPValues] = field(default_factory=dict)
    rows: list[MetricsRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in r))
        return "\n".join(lines) + "\n"


def _pool_rows(pool) -> np.ndarray:
    if isinstance(pool, ScoreSample):
        return pool.scores
    if isinstance(pool, VectorSample):
        return pool.vectors
    raise TypeError(f"pool must be a ScoreSample or VectorSample, got {type(pool)!r}")


def run_trials(id_pool, shifted_pool, method: WindowMethod, plan: TrialPlan) -> TrialOutcome:
    """Repeated seeded window draws from both pools, scored by one method.

    For every window size and trial, one ID window and one shifted window
    are sampled without replacement and handed to the method; the
    resulting labeled p-values aggregate into one metrics row per window
    size. Trial t at the si-th window size draws the stream of
    substream(plan.seed, si * n_trials + t), from one generator rekeyed
    per trial.
    """
    id_rows = _pool_rows(id_pool)
    shifted_rows = _pool_rows(shifted_pool)
    max_size = max(plan.window_sizes)
    if id_rows.shape[0] < max_size or shifted_rows.shape[0] < max_size:
        raise ValueError(
            f"pools must hold at least max window size ({max_size}) entries; "
            f"got {id_rows.shape[0]} ID and {shifted_rows.shape[0]} shifted"
        )
    outcome = TrialOutcome(method=method.name)
    rng = substream(plan.seed, 0)
    for si, k in enumerate(plan.window_sizes):
        p_values = np.empty(2 * plan.n_trials)
        labels = np.zeros(2 * plan.n_trials, dtype=bool)
        for t in range(plan.n_trials):
            rekey(rng, plan.seed, si * plan.n_trials + t)
            id_idx = rng.choice(id_rows.shape[0], size=k, replace=False)
            sh_idx = rng.choice(shifted_rows.shape[0], size=k, replace=False)
            id_seed = int(rng.integers(0, 2**63))
            sh_seed = int(rng.integers(0, 2**63))
            p_values[2 * t] = method.p_value(id_rows[id_idx], id_seed)
            labels[2 * t] = False
            p_values[2 * t + 1] = method.p_value(shifted_rows[sh_idx], sh_seed)
            labels[2 * t + 1] = True
        data = LabeledPValues(p_values=p_values, is_shifted=labels)
        outcome.per_size[k] = data
        err = detection_error_and_fpr_at_95tpr(data)
        outcome.rows.append(
            MetricsRow(
                method=method.name,
                window_size=k,
                auroc=auroc(data),
                aupr_in=aupr(data, "in"),
                aupr_out=aupr(data, "out"),
                detection_error=err.detection_error,
                fpr_at_95tpr=err.fpr_at_95tpr,
                n_trials=plan.n_trials,
                seed=plan.seed,
            )
        )
    return outcome
