"""Statistical validation: gap metrics, noise-scaling laws, estimator checks.

Three groups of tools:

* exact error metrics for solver output (`subopt_gap`, `err_vi`) and
  log-log rate fitting with bootstrap CIs;
* Monte-Carlo measurement of how the averaged noise deviation decays
  with the batch length (`deviation_scaling`), whose slope should sit
  near -1 and whose constant tracks the mixing time;
* estimator diagnostics: exact conditional bias of the batch mean via
  transition-matrix powers (`batch_bias_profile`) and a paired
  unbiasedness check that couples the multilevel draw with its target
  on a shared trajectory (`unbiasedness_check`).

The window constants at the top are the pass bands of the command-line
checks.  The acceptance suite hard-codes its own frozen windows.

The Monte-Carlo calls read the chain in blocks of at most `_ROW_BUDGET`
states or transitions: `unbiasedness_check` advances its cursor once per
block of whole trials, and `deviation_scaling` draws the uniforms of
several steps in one rng call.  Either way they read the same uniforms
in the same order as per-trial or per-step reads, so their outputs are
bit-identical to those loops'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainCursor, stationary
from .errors import InputError, StatisticsError, _check_scale, _count, _integral
from .estimators import _draw_level, _eval_rows, _prefix_mean, combine_levels
from .problems import _oracle

__all__ = [
    "DEVIATION_SLOPE_WINDOW",
    "BIAS_SLOPE_WINDOW",
    "PAIRING_RATIO_BOUND",
    "subopt_gap",
    "err_vi",
    "ScalingReport",
    "deviation_scaling",
    "BiasReport",
    "batch_bias_profile",
    "PairingReport",
    "unbiasedness_check",
    "RateFit",
    "rate_fit",
    "bootstrap_rate_ci",
]

# pass bands: slope of log E||avg deviation||^2 vs log N; slope of
# log bias^2 vs log M; the largest pairing t-ratio unbiasedness_check may report
DEVIATION_SLOPE_WINDOW = (-1.2, -0.8)
BIAS_SLOPE_WINDOW = (-1.3, -0.7)
PAIRING_RATIO_BOUND = 4.0

# chain states the statistical calls read at once: unbiasedness_check advances
# the cursor over whole trials of at most this many states (0.2 MB of oracle
# rows at d = 6), and deviation_scaling draws at most this many transitions'
# uniforms per rng call; 1 << 14 ran no faster and held about 3 MB more
_ROW_BUDGET = 1 << 12
# rate fits leave out cells whose gap is at or below this floor
_GAP_FLOOR = 1e-13
# seed resamples behind bootstrap_rate_ci's interval
_N_BOOT = 200


# ---------------------------------------------------------------------------
# gap metrics


def subopt_gap(problem, x):
    """f(x) - f* with a certified optimum; tiny negatives clamp to zero.

    x must be a finite point of the problem's dimension with f(x) >= f* (InputError).
    """
    if getattr(problem, "f_star", None) is None:
        raise InputError("problem carries no certified optimal value")
    x = problem.geometry._check_point(x)
    gap = float(problem.f(x) - problem.f_star)
    tol = 1e-12 * max(1.0, abs(problem.f_star))
    if gap < -tol:
        raise InputError(f"gap {gap:.3e} is negative beyond tolerance; bad reference?")
    return max(gap, 0.0)


def err_vi(problem, x):
    """Exact dual VI error max_u <F(u), x - u> for affine skew operators.

    Skewness kills the quadratic term, so the maximand is linear in u
    and the maximum sits at a per-block vertex.  u = x gives 0, so a
    negative vertex value is rounding and reads as 0.  x must be a
    finite point of the problem's dimension (InputError).
    """
    Q = getattr(problem, "Q", None)
    if Q is None:
        raise InputError("err_vi needs an affine VI problem")
    if not problem.is_skew():
        raise InputError("exact VI error requires a skew operator")
    x = problem.geometry._check_point(x)
    lin = Q.T @ x - problem.c
    u = problem.geometry.linear_argmax(lin)
    return max(float(lin @ u + problem.c @ x), 0.0)


# ---------------------------------------------------------------------------
# deviation scaling (averaged-noise law)


@dataclass
class ScalingReport:
    """Per-cell mean/SE of ||avg deviation||_*^2 plus the fitted law."""

    N: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    slope: float
    constant: float  # exp(mean log(E * N)): the fitted level of E * N


def _check_centered(kernel, deviations):
    """(pi, deviations minus their pi-mean) after checking one finite row per state and mean ~0.

    The pi-mean may be 1e-10 of the deviations' largest entry in size: that
    absorbs the error of a power-iterated pi, the drift a lazy variant's pi
    shows on deviations centred under its base chain's.
    """
    if deviations.ndim != 2 or len(deviations) != kernel.n_states:
        raise InputError(f"deviations of shape {deviations.shape} need one row per state "
                         f"of the kernel, whose P has shape {kernel.P.shape}")
    if not np.isfinite(deviations).all():  # NaN passes the drift test below
        raise InputError("deviations contain NaN/Inf")
    pi = stationary(kernel)
    drift = pi @ deviations
    worst = float(np.max(np.abs(drift))) if drift.size else 0.0
    if worst > 1e-10 * float(np.max(np.abs(deviations), initial=0.0)):
        raise InputError(
            f"deviations are not centered under the stationary law (max {worst:.3e})"
        )
    return pi, deviations - drift


def _check_sizes(Ns, least):
    """Ns sorted as int64, if there are >= `least` of them, integral, distinct and >= 1."""
    Ns = list(Ns)
    if len(Ns) < least or not all(_integral(n) and n >= 1 for n in Ns) or len(set(Ns)) != len(Ns):
        raise InputError(f"Ns must be >= {least} distinct positive lengths, got {Ns}")
    return np.asarray(sorted(int(n) for n in Ns), dtype=np.int64)


def _trials(n_trials):
    """n_trials as an int; InputError unless it is integral, StatisticsError below 2."""
    if _integral(n_trials) and n_trials < 2:
        raise StatisticsError(f"need at least 2 trials, got {n_trials}")
    return _count(n_trials, "n_trials", 2)


def deviation_scaling(kernel, deviations, norm_pair, Ns, n_trials, rng):
    """Measure E ||(1/N) sum_i Delta(z_i)||_*^2 over stationary-start runs.

    One vectorized pass drives `n_trials` chains to max(Ns), reading off
    each cell on the way; the slope of log mean vs log N should be close
    to -1 and the constant (mean * N) tracks sigma^2 tau.  The uniforms
    of several steps come from one rng call, at most `_ROW_BUDGET` of
    them, in the order one `rng.random(n_trials)` call per step would draw them.
    """
    deviations = np.asarray(deviations, dtype=float)
    Ns = _check_sizes(Ns, 2)
    n_trials = _trials(n_trials)
    _, centered = _check_centered(kernel, deviations)
    states = kernel.sample_stationary(rng, n_trials)
    sums = np.zeros((n_trials, deviations.shape[1]))
    targets = set(Ns.tolist())
    mean = np.empty(Ns.size)
    se = np.empty(Ns.size)
    last, chunk, k = int(Ns[-1]), max(1, _ROW_BUDGET // n_trials), 0
    for first in range(1, last + 1, chunk):
        uniforms = rng.random((min(chunk, last + 1 - first), n_trials))
        for step, u in enumerate(uniforms, start=first):
            states = kernel._move(states, u)
            sums += centered.take(states, axis=0)
            if step in targets:
                vals = norm_pair.dual_norm(sums / step) ** 2
                mean[k] = vals.mean()
                se[k] = vals.std(ddof=1) / np.sqrt(n_trials)
                k += 1
    logN = np.log(Ns.astype(float))
    if np.any(mean <= 0):
        raise StatisticsError("degenerate (zero) deviation cells; nothing to fit")
    logE = np.log(mean)
    slope, _ = np.polyfit(logN, logE, 1)
    constant = float(np.exp(np.mean(logE + logN)))
    return ScalingReport(N=Ns, mean=mean, se=se, slope=float(slope), constant=constant)


# ---------------------------------------------------------------------------
# exact conditional bias of the batch mean


@dataclass
class BiasReport:
    """pi-weighted squared dual norm of the conditional batch-mean bias."""

    N: np.ndarray
    bias_sq: np.ndarray
    slope: float


def batch_bias_profile(kernel, deviations, norm_pair, Ns):
    """Exact E_z0 ||(1/N) sum_{i<=N} (P^i(z0,:) - pi) Delta||_*^2 for each N.

    Computed by iterating matrix-vector products, no sampling involved;
    z0 is weighted by the stationary law.  This is the bias of a batch
    mean whose first sample sits one step past the start state.
    """
    deviations = np.asarray(deviations, dtype=float)
    Ns = _check_sizes(Ns, 1)
    pi, centered = _check_centered(kernel, deviations)
    cur = centered.copy()
    acc = np.zeros_like(centered)
    targets = set(Ns.tolist())
    out = np.empty(Ns.size)
    k = 0
    for step in range(1, int(Ns[-1]) + 1):
        cur = kernel.P @ cur
        acc += cur
        if step in targets:
            norms = norm_pair.dual_norm(acc / step) ** 2
            out[k] = float(pi @ norms)
            k += 1
    logN = np.log(Ns.astype(float))
    slope = float(np.polyfit(logN, np.log(np.maximum(out, 1e-300)), 1)[0]) if Ns.size >= 2 else np.nan
    return BiasReport(N=Ns, bias_sq=out, slope=slope)


# ---------------------------------------------------------------------------
# multilevel estimator diagnostics


def _trial_streams(problem, n_trials, rng):
    """Checked trial count, a cursor and a level generator on independent
    streams spawned from `rng`, and the problem's oracle."""
    n_trials = _trials(n_trials)
    rng_chain, rng_level = (np.random.default_rng(int(s)) for s in rng.integers(0, 2**63, size=2))
    cursor = ChainCursor(problem.kernel, rng_chain)
    return n_trials, cursor, rng_level, _oracle(problem)


@dataclass
class PairingReport:
    mean_diff: np.ndarray
    se_diff: np.ndarray
    max_abs_ratio: float  # max_j |mean_j| / se_j
    n_trials: int


def unbiasedness_check(problem, x, config, n_trials, rng):
    """Couple each multilevel draw with its target mean on one trajectory.

    Every trial advances a shared cursor by 2^max_level * B states,
    forms the multilevel combination for an independently drawn level
    and the full-prefix mean; their difference has exactly zero mean
    conditional on the trajectory, so the per-coordinate t-ratio is a
    calibrated unbiasedness statistic.

    Trials run in blocks of at most `_ROW_BUDGET` chain states: one
    level draw, one `advance` and one oracle call per block, and one
    combination per level drawn in it.  The level generator and the
    cursor read the same numbers in the same order as per-trial draws,
    so every output is bit-equal to the per-trial loop's.
    """
    n_trials, cursor, rng_level, oracle = _trial_streams(problem, n_trials, rng)
    x = problem.geometry._check_point(x)
    n_pref = (1 << config.max_level) * config.B
    per_block = max(1, _ROW_BUDGET // n_pref)
    diffs = np.empty((n_trials, x.size))
    for start in range(0, n_trials, per_block):
        block = diffs[start:start + per_block]
        drawn = _draw_level(rng_level, len(block))
        states = cursor.advance(len(block) * n_pref)
        vals = _eval_rows(oracle, x, states).reshape(len(block), n_pref, x.size)
        target = _prefix_mean(vals, n_pref)
        for level in set(drawn.tolist()):
            drew = drawn == level
            g = combine_levels(vals[drew], level, config.B, config.M)
            block[drew] = g - target[drew]
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(n_trials)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(se > 0, np.abs(mean) / se, np.where(mean == 0, 0.0, np.inf))
    return PairingReport(
        mean_diff=mean, se_diff=se, max_abs_ratio=float(np.max(ratio)), n_trials=n_trials
    )


# ---------------------------------------------------------------------------
# rate fitting


@dataclass
class RateFit:
    slope: float
    intercept: float
    ci: tuple | None
    n_used: int
    n_excluded: int
    floored: bool


def rate_fit(budgets, gaps):
    """Least-squares slope of log gap vs log budget, excluding floored cells.

    Budgets must be positive and finite and gaps nonnegative and finite
    (InputError); fewer than 2 distinct budgets among the cells above the
    gap floor raise StatisticsError.
    """
    budgets = np.asarray(budgets, dtype=float)
    gaps = np.asarray(gaps, dtype=float)
    if budgets.shape != gaps.shape or budgets.ndim != 1:
        raise InputError("budgets and gaps must be matching 1-d arrays")
    for budget in budgets:
        _check_scale(budget, "budget")
    for gap in gaps:
        _check_scale(gap, "gap", zero_ok=True)
    mask = gaps > _GAP_FLOOR
    if np.unique(budgets[mask]).size < 2:
        raise StatisticsError("fewer than 2 distinct budgets above the gap floor; "
                              "cannot fit a rate")
    slope, intercept = np.polyfit(np.log(budgets[mask]), np.log(gaps[mask]), 1)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        ci=None,
        n_used=int(mask.sum()),
        n_excluded=int((~mask).sum()),
        floored=bool((~mask).any()),
    )


def bootstrap_rate_ci(budgets, gap_matrix):
    """Rate fit on per-budget medians with a bootstrap CI over seeds.

    `gap_matrix` has one row per seed and one column per budget.  The
    point estimate fits the column medians; the CI resamples seeds with
    replacement `_N_BOOT` times from `default_rng(0)` (2.5/97.5
    percentiles of the refit slopes).
    """
    gap_matrix = np.atleast_2d(np.asarray(gap_matrix, dtype=float))
    budgets = np.asarray(budgets, dtype=float)
    if gap_matrix.shape[1] != budgets.size:
        raise InputError("gap_matrix columns must match budgets")
    rng = np.random.default_rng(0)
    point = rate_fit(budgets, np.median(gap_matrix, axis=0))
    n_seeds = gap_matrix.shape[0]
    slopes = []
    for _ in range(_N_BOOT):
        idx = rng.integers(0, n_seeds, size=n_seeds)
        try:
            slopes.append(rate_fit(budgets, np.median(gap_matrix[idx], axis=0)).slope)
        except StatisticsError:  # a resample with fewer than 2 budgets above the floor
            continue
    if slopes:
        lo, hi = np.percentile(slopes, [2.5, 97.5])
        point.ci = (float(lo), float(hi))
    return point
