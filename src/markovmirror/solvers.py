"""Mirror-descent and mirror-prox solvers driven by a Markov chain cursor.

Two families, each one loop that takes its estimators as arguments:

* accelerated stochastic mirror descent for smooth minimization
  (`mamd_unbatched` / `mamd_batched`), with the momentum/stepsize
  schedule `MamdSchedule(c, tau)` built by the factory functions below;
* stochastic mirror prox for monotone VIs and matrix games
  (`mmp_unbatched` / `mmp_batched`) with a constant stepsize.

Each run draws its plan before its loop (`estimators._unbatched_plan`,
`estimators._level_plan`): the chain states every iteration reads and
the running oracle-call and chain-step totals, so the loop body only
computes the estimate, checks it and takes the prox step.  The
unbatched variants read one correlated chain state per iteration,
drawn from the cursor in chunks; the batched variants draw all T
truncated-geometric levels first and read each iteration's batch mean
and multilevel states from blocks of the cursor's walk, which restores
clean stepsize constants at the price of more oracle calls per
iteration.  With B = M = 1 the batched loops produce the unbatched
iterates only when the oracle is noiseless: M = 1 truncates every level
J >= 1 to a single sample yet still advances the cursor by 2^J states,
so on a noisy problem the two read different states of the stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .chain import mixing_time
from .errors import InputError, SolverError, _check_scale, _count
from .estimators import MlmcConfig, _batch_g, _level_g, _level_plan, _unbatched_plan
from .problems import _oracle

__all__ = [
    "MamdSchedule",
    "RunRecord",
    "mamd_unbatched",
    "mamd_batched",
    "mmp_unbatched",
    "mmp_batched",
    "mamd_unbatched_schedule",
    "mamd_batched_schedule",
    "mmp_unbatched_stepsize",
    "mmp_batched_params",
]


@dataclass(frozen=True)
class MamdSchedule:
    """Momentum/stepsize schedule for accelerated mirror descent.

    beta(t) = max((t - tau)/2 + 1, 1) is the momentum parameter and
    gamma(t) = c * beta(t) the mirror stepsize at iteration t; tau is the
    warmup during which beta stays at 1 (0 for the batched variant).
    """

    c: float
    tau: int = 0

    def __post_init__(self):
        object.__setattr__(self, "tau", _count(self.tau, "tau", 0))

    def beta(self, t):
        """Momentum parameter at iteration t; t may be an integer array."""
        return np.maximum((t - self.tau) / 2.0 + 1.0, 1.0)

    def gamma(self, t):
        return self.c * self.beta(t)

    def arrays(self, T):
        """(betas, gammas) for t = 0, ..., T."""
        ts = np.arange(_count(T, "T", 0) + 1)
        return self.beta(ts), self.gamma(ts)

    def validate(self, L):
        """Check the invariants the convergence analysis rests on.

        beta(tau) = 1, beta >= 1 and the telescoping condition
        (beta_{t+1} - 1) gamma_{t+1} <= beta_t gamma_t hold for every
        (c, tau), so what is left is 0 < c <= 1/(2L), i.e.
        beta_t >= 2 gamma_t L at every t.  Raises InputError
        otherwise.
        """
        _check_step(self.c, L, "stepsize constant c")


@dataclass
class RunRecord:
    """Everything a solver run produced.

    Row arrays are aligned: rows[i] describes the state after `t[i]`
    completed iterations.  `x_out` is the point the method reports
    (averaged/accelerated iterate), `x_last` the raw final iterate.
    """

    t: np.ndarray
    oracle_calls: np.ndarray
    chain_steps: np.ndarray
    gap: np.ndarray
    wall_ms: np.ndarray
    x_out: np.ndarray
    x_last: np.ndarray
    iterates: list | None = None


# RunRecord's row columns, filled from the recorded rows in one conversion
_ROW = np.dtype([("t", np.int64), ("oracle_calls", np.int64), ("chain_steps", np.int64),
                 ("gap", float), ("wall_ms", float)])


class _Recorder:
    """Rows, kept iterate pairs and the RunRecord of one run of T iterations.

    `calls` and `steps`, set from the run's plan once the inputs are
    checked, are its oracle calls and chain steps after t iterations,
    indexed by t.
    """

    def __init__(self, T, gap_fn, stride, keep_iterates):
        self.T = T
        self.stride = T if stride is None else _count(stride, "stride", 1)
        self.gap_fn = gap_fn
        self.kept = [] if keep_iterates else None
        self.calls = self.steps = None
        self.t0 = time.perf_counter()
        self.rows = []

    def maybe(self, t, point, pair):
        """After iteration t: keep `pair` if asked, record a row at the stride."""
        if self.kept is not None:
            self.kept.append((pair[0].copy(), pair[1].copy()))
        if t != self.T and t % self.stride != 0:
            return
        if self.gap_fn is None or point is None:
            gap = np.nan
        else:
            gap = float(self.gap_fn(point))
        wall = (time.perf_counter() - self.t0) * 1e3
        self.rows.append((t, self.calls[t], self.steps[t], gap, wall))

    def finish(self, geo, x_out, x_last):
        """The RunRecord, once the final iterate is checked to lie in `geo`'s set."""
        if not geo.contains(x_last):
            raise SolverError("final iterate left the feasible set")
        rows = np.array(self.rows, dtype=_ROW)
        return RunRecord(
            **{name: rows[name].copy() for name in _ROW.names},
            x_out=np.array(x_out, dtype=float),
            x_last=np.array(x_last, dtype=float),
            iterates=self.kept,
        )


def _check_step(value, L, name):
    """`value` as a float if it lies in (0, 1/(2L)]; InputError otherwise."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise InputError(f"{name} must be positive and finite, got {value}")
    if value > 0.5 / L * (1 + 1e-9):
        raise InputError(f"{name} = {value} exceeds 1/(2 L) = {0.5 / L}")
    return value


def _check_chain(problem, cursor, level_rng=None):
    """InputError unless `cursor` walks the problem's chain and `level_rng` is not its stream."""
    walked, own = cursor.kernel, problem.kernel
    if walked is not own and not np.array_equal(walked.P, own.P):
        raise InputError(f"the cursor walks a {walked.n_states}-state chain that is not the "
                         f"problem's {own.n_states}-state chain")
    if level_rng is cursor.rng:
        raise InputError("level_rng must be a stream of its own, not the cursor's")


# The loops below start at the prox-center `geometry.center()`, the point
# every stepsize's D is measured from, and take unchecked prox steps
# (`Geometry._step`): every stepped estimate gamma * g is checked to be
# finite, and a step from a feasible point with a finite argument lands in
# the feasible set, which the final check confirms.


def _stepped(gamma, g, t):
    """gamma times the estimate g, the argument of one prox step; SolverError if not finite."""
    xi = gamma * g
    if not np.logical_and.reduce(np.isfinite(xi)):
        raise SolverError(f"non-finite estimate at iteration {t}")
    return xi


def _descent(problem, schedule, estimate, reads, rec):
    """Accelerated mirror descent over the reads of a run's plan.

    `estimate(x, read)` is the gradient estimate at x from one iteration's read.
    """
    betas, gammas = (a.tolist() for a in schedule.arrays(rec.T))
    geo = problem.geometry
    x = geo.center()
    x_f = x.copy()
    for t, read in enumerate(reads):
        inv = 1.0 / betas[t]
        x_g = inv * x + (1.0 - inv) * x_f
        x = geo._step(x, _stepped(gammas[t], estimate(x_g, read), t))
        x_f = inv * x + (1.0 - inv) * x_f
        rec.maybe(t + 1, x_f, (x, x_f))
    return rec.finish(geo, x_f, x)


def mamd_unbatched(problem, schedule, cursor, T, *, gap_fn=None, stride=None,
                   keep_iterates=False):
    """Accelerated mirror descent, one chain state per iteration.

    Requires T to reach past the schedule's warmup offset; reports the
    accelerated average x_f after T iterations.
    """
    T = _count(T, "T", 1)
    _check_chain(problem, cursor)
    schedule.validate(problem.L)
    if T < schedule.tau:
        raise InputError(f"T = {T} is shorter than the warmup tau = {schedule.tau}")
    rec = _Recorder(T, gap_fn, stride, keep_iterates)
    reads, rec.calls, rec.steps = _unbatched_plan(cursor, T, 1)
    return _descent(problem, schedule, problem.grad_oracle, reads, rec)


def mamd_batched(problem, schedule, cursor, T, mlmc, level_rng, *, gap_fn=None,
                 stride=None, keep_iterates=False):
    """Accelerated mirror descent with multilevel gradient estimates.

    `mlmc` is an MlmcConfig; `level_rng` draws the geometric levels and
    must be independent of the cursor's stream.
    """
    T = _count(T, "T", 1)
    _check_chain(problem, cursor, level_rng)
    schedule.validate(problem.L)
    oracle = problem.grad_oracle
    rec = _Recorder(T, gap_fn, stride, keep_iterates)
    reads, rec.calls, rec.steps = _level_plan(cursor, level_rng, T, mlmc, 0)
    return _descent(problem, schedule, lambda x, read: _level_g(oracle, x, read, mlmc),
                    reads, rec)


def _mirror_prox(problem, gamma, half, full, reads, avg_start, rec):
    """Mirror prox over the reads of a run's plan.

    `half(x, read)` and `full(x_half, read)` are the two operator estimates
    from one iteration's read.  Averages the half-step iterates from
    iteration `avg_start` on.
    """
    geo = problem.geometry
    x = geo.center()
    x_hat = None
    for t, read in enumerate(reads):
        x_half = geo._step(x, _stepped(gamma, half(x, read), t))
        x = geo._step(x, _stepped(gamma, full(x_half, read), t))
        if t >= avg_start:
            if x_hat is None:
                x_hat = x_half.copy()
            else:
                x_hat += (x_half - x_hat) / (t - avg_start + 1)
        rec.maybe(t + 1, x_hat, (x_half, x))
    return rec.finish(geo, x_hat, x)


def mmp_unbatched(problem, gamma, cursor, T, *, gap_fn=None, stride=None,
                  keep_iterates=False, avg_start=None):
    """Mirror prox, one chain state reused for both half and full step.

    Averages the half-step iterates from `avg_start` (default: the
    kernel's mixing time) to T-1; each iteration costs two oracle
    evaluations but a single chain step.
    """
    T = _count(T, "T", 1)
    _check_chain(problem, cursor)
    gamma = _check_step(gamma, float(problem.L), "gamma")
    if avg_start is None:
        avg_start = mixing_time(cursor.kernel)
    avg_start = _count(avg_start, "avg_start", 0)
    if T <= avg_start:
        raise InputError(f"T = {T} leaves an empty averaging window starting at {avg_start}")
    oracle = _oracle(problem)
    # the full step re-reads the state the half step read: an oracle call but no chain step
    rec = _Recorder(T, gap_fn, stride, keep_iterates)
    reads, rec.calls, rec.steps = _unbatched_plan(cursor, T, 2)
    return _mirror_prox(problem, gamma, oracle, oracle, reads, avg_start, rec)


def mmp_batched(problem, gamma, cursor, T, mlmc, level_rng, *, gap_fn=None,
                stride=None, keep_iterates=False):
    """Mirror prox with a batch-mean extrapolation and multilevel update.

    Fresh chain states for each half: the extrapolation step averages B
    draws at x, the update applies the multilevel estimate at the
    half-step point.  Averages all half-step iterates from t = 0.
    """
    T = _count(T, "T", 1)
    _check_chain(problem, cursor, level_rng)
    gamma = _check_step(gamma, float(problem.L), "gamma")
    oracle = _oracle(problem)
    rec = _Recorder(T, gap_fn, stride, keep_iterates)
    reads, rec.calls, rec.steps = _level_plan(cursor, level_rng, T, mlmc, mlmc.B)
    return _mirror_prox(problem, gamma, lambda x, read: _batch_g(oracle, x, read[0]),
                        lambda x, read: _level_g(oracle, x, read, mlmc), reads, 0, rec)


# ---------------------------------------------------------------------------
# schedule / stepsize factories


def _check_params(L, D, sigma, tau_mix, T, warmup=False):
    L, D = _check_scale(L, "L"), _check_scale(D, "D")
    sigma = _check_scale(sigma, "sigma", zero_ok=True)
    tau_mix = _count(tau_mix, "tau_mix", 1 if sigma > 0 else 0)
    T = _count(T, "T", 1)
    if warmup and T <= tau_mix:
        raise InputError(f"T = {T} must exceed tau_mix = {tau_mix}")
    return L, D, sigma, tau_mix, T


def _capped(L, D, sigma, tau, horizon, a):
    """min(1/(2L), D / (horizon * sigma * tau^a)), the stepsize every factory caps by."""
    cap = 0.5 / L
    return min(cap, D / (horizon * sigma * tau**a)) if sigma > 0 else cap


def mamd_unbatched_schedule(L, D, sigma, tau_mix, T):
    """Warmup schedule for single-sample accelerated mirror descent.

    Momentum stays flat (beta = 1) for the first tau_mix iterations,
    then grows linearly; the stepsize scales beta by a constant that
    balances the smoothness term against the noise accumulated over
    the effective horizon T - tau_mix.
    """
    L, D, sigma, tau, T = _check_params(L, D, sigma, tau_mix, T, warmup=True)
    return MamdSchedule(_capped(L, D, sigma, tau, (T - tau) ** 1.5, 1.5), tau)


def mamd_batched_schedule(L, D, sigma, tau_mix, T):
    """Schedule plus estimator config for batched accelerated mirror descent.

    No warmup: beta_t = t/2 + 1 from the start, with the noise constant
    paying only a sqrt(tau_mix) factor.  Returns (schedule, MlmcConfig)
    with B = 1 and truncation cap M = T.
    """
    L, D, sigma, tau, T = _check_params(L, D, sigma, tau_mix, T)
    return MamdSchedule(_capped(L, D, sigma, tau, T**1.5, 0.5), 0), MlmcConfig(B=1, M=T)


def mmp_unbatched_stepsize(L_tilde, D, sigma, tau_mix, T):
    """Constant stepsize for single-sample mirror prox."""
    L_tilde, D, sigma, tau, T = _check_params(L_tilde, D, sigma, tau_mix, T, warmup=True)
    return _capped(L_tilde, D, sigma, tau, (T - tau) ** 0.5, 1)


def mmp_batched_params(L, D, sigma, tau_mix, T):
    """Constant stepsize plus estimator config for batched mirror prox."""
    L, D, sigma, tau, T = _check_params(L, D, sigma, tau_mix, T)
    return _capped(L, D, sigma, tau, T**0.5, 0.5), MlmcConfig(B=1, M=T)
