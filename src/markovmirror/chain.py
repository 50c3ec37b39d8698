"""Finite-state Markov kernels, mixing diagnostics, and sample cursors.

Kernels are row-stochastic matrices over states {0, ..., n-1}.  A
cursor wraps a kernel with a seeded generator and hands out successive
states; estimators consume exactly the states they account for, so the
cursor's sample counter is the ground truth for chain-step bookkeeping.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ErgodicityError, InputError, _count

__all__ = ["TransitionKernel", "ChainCursor", "ChainDiagnostics", "stationary", "mixing_time",
           "diagnose", "make_lazy", "lazy_for_mixing_time", "random_ergodic"]

_STATIONARY_TOL = 1e-12
_STATIONARY_RESIDUAL = 1e-10
# power iteration's product budget; a chain that has not settled by then gets GTH's pi.
# The chains behind the frozen reference numbers settle within 2,743 products, under a
# quarter of 2^14.  2^15 also keeps check 7's base chain made 0.999-lazy (21,374
# products) on power iteration, so its pi is unchanged; the cost is about 0.015 s
# (2-core Xeon) more power iteration on each chain that goes on to GTH.
_MAX_POWER_STEPS = 2**15
_MAX_TV_STEPS = 10**6
_MAX_ALPHA = 0.9999
# the mixing time is tau(1/4): the first t with worst-start TV <= 1/4
_TV_THRESHOLD = 0.25
# products per power-iteration block, the last one cut at the budget.  On the 51 chains of
# check 7's bisection (median 1,125 products to settle) it computes 54,144 for 52,722
# needed; 128 computes about as many, but costs a fast chain (15 products) twice as much
_BLOCK = 64


class TransitionKernel:
    """Validated row-stochastic transition matrix.

    Construction checks stochasticity only; ergodicity (irreducible +
    aperiodic) is checked by the procedures that require it, so that
    defective kernels can still be constructed and diagnosed.
    """

    def __init__(self, matrix):
        P = np.array(matrix, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 1:
            raise InputError(f"kernel must be a square matrix, got shape {P.shape}")
        if not (np.isfinite(P).all() and np.min(P) >= 0.0):
            raise InputError("kernel entries must be finite and nonnegative")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise InputError("kernel rows must sum to 1 within 1e-12")
        P.flags.writeable = False
        self.P = P
        self.n_states = P.shape[0]
        # from state s the chain moves to the count of row s's thresholds (`_thresholds`
        # below) at or below its uniform.  `_move` reads them transposed, one column per
        # state; `advance` bisects them as lists
        thresholds = _thresholds(P)
        self._thresholds = np.ascontiguousarray(thresholds.T)
        self._threshold_lists = thresholds.tolist()
        self._pi = None

    def is_primitive(self):
        """True iff some power P^k (k <= n^2) has all entries positive."""
        B = self.P > 0.0
        k = 1
        # positivity is monotone in k for stochastic P, so doubling suffices;
        # a boolean product is reachability in twice the steps and cannot overflow
        while k < self.n_states**2:
            if B.all():
                return True
            B = B @ B
            k *= 2
        return bool(B.all())

    def ensure_ergodic(self):
        if not self.is_primitive():
            raise ErgodicityError(
                "kernel is not irreducible and aperiodic (no power <= n^2 is positive)"
            )

    def _move(self, states, u):
        """The states one transition on from `states` given one uniform each.

        State i moves to the count of its row's thresholds at or below u[i],
        the rule `ChainCursor.advance` bisects for; the states are not checked.
        """
        return (self._thresholds.take(states, axis=1) <= u).sum(axis=0)

    def power_row(self, state, steps):
        """Row of P^steps for the given start state, by binary exponentiation."""
        steps = _count(steps, "steps", 0)
        row = np.zeros(self.n_states)
        row[_count(state, "state", 0, self.n_states - 1)] = 1.0
        square = self.P  # P^(2^bit) for the bit being read
        while steps:
            if steps & 1:
                row = row @ square
            steps >>= 1
            if steps:
                square = square @ square
        return row

    def sample_stationary(self, rng, n=None):
        return _inverse_cdf(stationary(self), rng.random() if n is None else rng.random(n))

    def __repr__(self):
        return f"TransitionKernel(n_states={self.n_states})"


def _thresholds(p):
    """Sampling thresholds of the law(s) on `p`'s last axis: the cumulative masses
    less the last, +inf from each law's last positive entry on, so that no uniform
    counts up to a zero-mass state past it, also where rounding ends the sum below 1."""
    cum = np.cumsum(p, axis=-1)[..., :-1]
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0.0, axis=-1)
    return np.where(np.arange(cum.shape[-1]) >= np.expand_dims(last, -1), np.inf, cum)


def _inverse_cdf(p, u):
    """The state(s) law `p` gives uniform(s) `u`: the count of p's thresholds
    that are <= u, the rule `_move` and `advance` follow."""
    return np.searchsorted(_thresholds(p), u, side="right")


def stationary(kernel):
    """Stationary law, cached on the kernel, with l1 residual ||pi P - pi|| <= 1e-10.

    Power iteration to a step change <= 1e-12 in l1, within a budget of
    `_MAX_POWER_STEPS` products; a slower chain gets its law from GTH
    elimination (`_gth`).  The iterates mu_{k+1} = mu_k @ P are formed a
    block at a time into one preallocated buffer and tested for
    convergence once per block (`_settled`), which returns the iterate a
    test after every product would stop at.
    """
    if kernel._pi is not None:
        return kernel._pi
    kernel.ensure_ergodic()
    P = kernel.P
    # row 0 holds a block's start and row i the iterate i products on
    buf = np.empty((_BLOCK + 1, kernel.n_states))
    buf[0] = 1.0 / kernel.n_states
    rows = list(buf)
    for done in range(0, _MAX_POWER_STEPS, _BLOCK):
        size = min(_BLOCK, _MAX_POWER_STEPS - done)
        for prev, row in zip(rows[:size], rows[1:size + 1]):
            prev.dot(P, out=row)
        k = _settled(buf[:size + 1])
        if k is not None:
            mu = buf[k] / buf[k].sum()
            break
        buf[0] = buf[size]
    else:
        mu = _gth(P)
    # written so that a NaN law fails it too
    if not np.abs(mu @ P - mu).sum() <= _STATIONARY_RESIDUAL:
        raise ErgodicityError("stationary residual above 1e-10 or not finite")
    kernel._pi = mu
    return mu


def _settled(rows):
    """Index of the first iterate in `rows` within 1e-12 (l1) of the one before it, or None.

    Row sums over the stacked block only pick candidates, with a factor-2
    margin for their summation order; each candidate is decided by the
    1-D expression a per-product test evaluates, so the stopping index
    does not depend on how numpy reduces the rows.
    """
    near = np.abs(rows[1:] - rows[:-1]).sum(axis=1) <= 2 * _STATIONARY_TOL
    for k in np.flatnonzero(near).tolist():
        if np.abs(rows[k + 1] - rows[k]).sum() <= _STATIONARY_TOL:
            return k + 1
    return None


def _gth(P):
    """Stationary law by Grassmann-Taksar-Heyman elimination (Oper. Res. 33(5), 1985).

    Folds out states n-1, ..., 1 in turn; each pivot is the off-diagonal
    mass leaving the state, so no step subtracts and nearly reducible
    chains stay accurate.  A pivot too small to divide by gives inf or
    NaN entries, which `stationary`'s residual check rejects.
    """
    A = np.array(P)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k in range(A.shape[0] - 1, 0, -1):
            A[:k, k] /= A[k, :k].sum()
            A[:k, :k] += np.outer(A[:k, k], A[k, :k])
        pi = np.ones(A.shape[0])
        for k in range(1, A.shape[0]):
            pi[k] = pi[:k] @ A[:k, k]
        return pi / pi.sum()


def _worst_tv(P, pi):
    """Worst-start TV 0.5 * max_z ||P^t(z, .) - pi||_1 at t = 1, 2, ..., one product each."""
    Pt = P
    for _ in range(_MAX_TV_STEPS):
        yield 0.5 * np.max(np.abs(Pt - pi).sum(axis=1))
        Pt = Pt @ P
    raise ErgodicityError(f"TV scan did not settle in {_MAX_TV_STEPS} steps")


def _scan_to(kernel):
    """The kernel's TV scan and its values up to the first one <= 1/4."""
    tvs = _worst_tv(kernel.P, stationary(kernel))
    curve = [next(tvs)]
    while curve[-1] > _TV_THRESHOLD:
        curve.append(next(tvs))
    return tvs, curve


def mixing_time(kernel):
    """Smallest t with max-over-starts TV(P^t(z, .), pi) <= 1/4."""
    return len(_scan_to(kernel)[1])


@dataclass
class ChainDiagnostics:
    pi: np.ndarray
    tau_mix: int
    tv_curve: np.ndarray  # worst-case TV at t = 1, 2, ..., len(curve)


def diagnose(kernel):
    """Stationary distribution, mixing time, and the worst-start TV decay curve.

    The scan that finds tau_mix goes on to t = 2 * tau_mix, so callers
    can check submultiplicative decay past the threshold crossing.
    """
    tvs, curve = _scan_to(kernel)
    tau = len(curve)
    curve += [next(tvs) for _ in range(tau)]
    return ChainDiagnostics(stationary(kernel), tau, np.array(curve))


def make_lazy(kernel, alpha):
    """Lazy variant alpha * I + (1 - alpha) * P; slows mixing, keeps pi."""
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise InputError(f"laziness alpha must lie in [0, 1), got {alpha}")
    n = kernel.n_states
    return TransitionKernel(alpha * np.eye(n) + (1.0 - alpha) * kernel.P)


def lazy_for_mixing_time(kernel, target_tau):
    """Smallest-laziness variant whose mixing time reaches target_tau.

    Bisects on alpha in [0, 0.9999]; returns (lazy_kernel, alpha, achieved_tau).
    """
    target_tau = _count(target_tau, "target_tau", 1)
    base_tau = mixing_time(kernel)
    if base_tau >= target_tau:
        return kernel, 0.0, base_tau
    lo, hi = 0.0, _MAX_ALPHA
    # unreachable if even the slowest chain mixes sooner; it keeps pi, so scan with the base pi
    slowest = _worst_tv(make_lazy(kernel, hi).P, stationary(kernel))
    if any(next(slowest) <= _TV_THRESHOLD for _ in range(target_tau - 1)):
        raise InputError(f"target mixing time {target_tau} unreachable below alpha={hi}")
    lazy = None
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        candidate = make_lazy(kernel, mid)
        tau = mixing_time(candidate)
        if tau >= target_tau:
            hi, lazy, hi_tau = mid, candidate, tau
        else:
            lo = mid
    if lazy is None:  # hi never moved off the slowest chain
        lazy = make_lazy(kernel, hi)
        hi_tau = mixing_time(lazy)
    return lazy, hi, hi_tau


def random_ergodic(n_states, seed):
    """Random dense kernel with every entry >= 0.01 (hence ergodic)."""
    n_states = _count(n_states, "n_states", 2, 100)  # the entry floor needs n <= 100
    rng = np.random.default_rng(seed)
    raw = rng.uniform(size=(n_states, n_states))
    raw /= raw.sum(axis=1, keepdims=True)
    c = 0.01 * n_states
    return TransitionKernel((1.0 - c) * raw + c / n_states)


class ChainCursor:
    """Sequential state sampler with exact consumed-sample accounting.

    Same seed and same advance schedule reproduce the same state
    sequence bit for bit.  Start state is drawn from the stationary
    distribution unless an explicit state is given.
    """

    def __init__(self, kernel, rng, start="stationary"):
        self.kernel = kernel
        self.rng = np.random.default_rng(rng)
        if start == "stationary":
            self.state = int(kernel.sample_stationary(self.rng))
        else:
            self.state = _count(start, "start state", 0, kernel.n_states - 1)
        self.n_consumed = 0

    def advance(self, steps):
        """Sample the next `steps` states; returns them and moves the cursor."""
        steps = _count(steps, "advance steps", 1)
        thresholds = self.kernel._threshold_lists
        s = self.state
        out = [s := bisect_right(thresholds[s], ui) for ui in self.rng.random(steps).tolist()]
        self.state = s
        self.n_consumed += steps
        return np.array(out, dtype=np.int64)

    def skip(self, steps):
        """Advance the counter by `steps` without materializing the states.

        The end state is drawn from the exact `steps`-step transition law
        (binary matrix powers), so the joint distribution of everything a
        caller ever observes is unchanged; only the intermediate states,
        which the caller is discarding anyway, are never instantiated.
        """
        steps = _count(steps, "skip steps", 0)
        if steps == 0:
            return
        row = self.kernel.power_row(self.state, steps)
        self.state = int(_inverse_cdf(row, self.rng.random()))
        self.n_consumed += steps
