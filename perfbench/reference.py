"""Independent re-derivations of covshift's outputs, used to check them.

Nothing here calls covshift: verdicts and p-values are recomputed with
numpy and scipy from the documented definitions, on the inputs the
library sees. scipy is imported only where a p-value is re-derived,
after the timed phase, so that it does not count in the peak RSS. The random draws the library makes (window indices, the
MMD reference subsample, permutations) are reproduced from the Philox
keys ``covshift.stats.substream`` documents, ``(index + 1) << 64 | seed``.
"""

from __future__ import annotations

import math

import numpy as np

# One-sided critical values of Student's t at alpha = 0.05 by degrees of
# freedom (scipy.stats.t.isf(0.05, df)), for verdicts on k = 10 windows.
T_CRIT_05 = {9: 1.8331129326562376}
MASK64 = (1 << 64) - 1
MMD_PERMUTATIONS = 100
MMD_REF_CAP = 1000
# Permuted MMD statistics this close to the observed one could compare
# either way under rounding; their p-values are not checked.
MMD_TIE = 1e-10


def substream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((index + 1) << 64) | (seed & MASK64)))


def violation_t(theta: np.ndarray, b_star: np.ndarray, windows: np.ndarray):
    """Mean, sd and one-sample t of the per-instance violation terms of (n, k) windows."""
    k = windows.shape[1]
    selected = (windows[:, None, :] >= theta[None, :, None]).astype(np.float64)
    violated = selected.mean(axis=2) <= b_star[None, :]
    terms = np.where(violated[:, :, None], b_star[None, :, None] - selected, 0.0)
    per_instance = terms.mean(axis=1)
    mean = per_instance.mean(axis=1)
    sd = per_instance.std(axis=1, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = mean / (sd / np.sqrt(k))
    return mean, sd, t


def model_arrays(model) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([p.theta for p in model.pairs]), np.array([p.b_star for p in model.pairs]))


def reference_verdicts(model, windows: np.ndarray):
    """Shift verdicts and ambiguity flags at alpha = 0.05 for (n, k) windows.

    Compares the one-sample t statistic of the violation terms with the
    Student-t critical value. Windows whose t lies within 1e-9 of it are
    ambiguous.
    """
    mean, sd, t = violation_t(*model_arrays(model), windows)
    t_crit = T_CRIT_05[windows.shape[1] - 1]
    flagged = np.where(sd == 0.0, mean > 0.0, t > t_crit)
    ambiguous = (sd != 0.0) & (np.abs(t - t_crit) < 1e-9)
    return flagged, ambiguous


def coverage_p_value(model, window: np.ndarray) -> float:
    from scipy import stats as sps

    mean, sd, t = violation_t(*model_arrays(model), window[None, :])
    if sd[0] == 0.0:
        return 1.0 if mean[0] <= 0.0 else 0.0
    return float(sps.t.sf(t[0], window.size - 1))


def welch_p_value(ref: np.ndarray, window: np.ndarray) -> float:
    from scipy import stats as sps

    return float(sps.ttest_ind(ref, window, equal_var=False).pvalue)


def kolmogorov_q(lam: float) -> float:
    """Asymptotic Kolmogorov tail sum 2 * sum (-1)^(j-1) exp(-2 j^2 lam^2), j <= 100.

    Reads 1 where the series has not converged, as for lam near 0.
    """
    j = np.arange(1, 101)
    terms = 2.0 * np.exp(-2.0 * j * j * lam * lam)
    if terms[-1] >= 1e-12:
        return 1.0
    return float(min(1.0, max(0.0, np.sum(np.where(j % 2 == 1, terms, -terms)))))


def ks_bonferroni_p_value(ref: np.ndarray, window: np.ndarray) -> float:
    """min(1, d * min_j p_j) over per-dimension two-sample KS tests.

    p_j is the asymptotic tail at the effective size n_a n_b / (n_a + n_b)
    with the small-sample factor sqrt(n_e) + 0.12 + 0.11 / sqrt(n_e).
    """
    from scipy import stats as sps

    n_e = ref.shape[0] * window.shape[0] / (ref.shape[0] + window.shape[0])
    factor = math.sqrt(n_e) + 0.12 + 0.11 / math.sqrt(n_e)
    p = [kolmogorov_q(factor * sps.ks_2samp(ref[:, j], window[:, j]).statistic)
         for j in range(ref.shape[1])]
    return min(1.0, ref.shape[1] * min(p))


def mmd_p_value(ref: np.ndarray, window: np.ndarray, seed: int) -> float | None:
    """Permutation p-value of the unbiased squared MMD, or None on a near-tie.

    The reference is capped at MMD_REF_CAP rows by a seeded draw; the RBF
    bandwidth satisfies 2 sigma^2 = the median pairwise distance of the
    pooled sample. All permutations are scored at once through indicator
    vectors instead of by indexing the kernel matrix.
    """
    from scipy.spatial.distance import pdist, squareform

    if ref.shape[0] > MMD_REF_CAP:
        ref = ref[np.sort(substream(seed, 0).choice(ref.shape[0], size=MMD_REF_CAP,
                                                    replace=False))]
    pooled = np.vstack([ref, window])
    total, m = pooled.shape[0], ref.shape[0]
    n = total - m
    dists = pdist(pooled)
    med = float(np.median(dists))
    if med == 0.0:
        med = float(dists[dists > 0].min())
    kernel = np.exp(-squareform(dists) ** 2 / med)
    indicators = np.zeros((total, MMD_PERMUTATIONS + 1))
    indicators[:m, 0] = 1.0
    for i in range(MMD_PERMUTATIONS):
        indicators[substream(seed, i).permutation(total)[:m], i + 1] = 1.0
    row_sums = indicators.T @ kernel.sum(axis=1)
    sum_xx = np.einsum("ij,ij->j", indicators, kernel @ indicators)
    sum_xy = row_sums - sum_xx
    sum_yy = kernel.sum() - 2.0 * row_sums + sum_xx
    trace_x = indicators.T @ np.diag(kernel)
    trace_y = np.trace(kernel) - trace_x
    stat = ((sum_xx - trace_x) / (m * (m - 1)) + (sum_yy - trace_y) / (n * (n - 1))
            - 2.0 * sum_xy / (m * n))
    observed, permuted = stat[0], stat[1:]
    if np.any(np.abs(permuted - observed) <= MMD_TIE):
        return None
    return (1 + int(np.sum(permuted >= observed))) / (1 + MMD_PERMUTATIONS)


def trial_windows(plan_seed: int, n_trials: int, size_index: int, trial: int,
                  n_id: int, n_shifted: int, k: int):
    """The (indices, seed) pairs run_trials draws for one ID and one shifted window."""
    rng = substream(plan_seed, size_index * n_trials + trial)
    id_idx = rng.choice(n_id, size=k, replace=False)
    sh_idx = rng.choice(n_shifted, size=k, replace=False)
    id_seed = int(rng.integers(0, 2**63))
    sh_seed = int(rng.integers(0, 2**63))
    return (id_idx, id_seed), (sh_idx, sh_seed)


def brute_force_auroc(p_values: np.ndarray, is_shifted: np.ndarray) -> float:
    score = 1.0 - p_values
    pos = score[is_shifted][:, None]
    neg = score[~is_shifted][None, :]
    return float(((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size))
