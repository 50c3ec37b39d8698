"""Finite-state Markov kernels, mixing diagnostics, and sample cursors.

Kernels are row-stochastic matrices over states {0, ..., n-1}.  A
cursor wraps a kernel with a seeded generator and hands out successive
states; estimators consume exactly the states they account for, so the
cursor's sample counter is the ground truth for chain-step bookkeeping.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .errors import ErgodicityError, InputError, _count

__all__ = ["TransitionKernel", "ChainCursor", "ChainDiagnostics", "stationary", "mixing_time",
           "diagnose", "make_lazy", "lazy_for_mixing_time", "random_ergodic", "sample_paths"]

_STATIONARY_TOL = 1e-12
_STATIONARY_RESIDUAL = 1e-10
_MAX_POWER_STEPS = 10**6
_MAX_ALPHA = 0.9999
# the mixing time is tau(1/4): the first t with worst-start TV <= 1/4
_TV_THRESHOLD = 0.25
# power-iteration blocks: the first holds 16 products, each next one twice
# as many up to 1024, so a fast chain does at most twice the products it
# needs and a slow one at most 1024 more
_FIRST_BLOCK = 16
_MAX_BLOCK = 1024


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
        self._cum_lists = None
        self._cum = None
        self._pow2 = {0: P}
        self._pi = None

    def is_primitive(self):
        """True iff some power P^k (k <= n^2) has all entries positive."""
        B = self.P > 0.0
        k = 1
        # positivity is monotone in k for stochastic P, so doubling suffices
        while k < self.n_states**2:
            if B.all():
                return True
            B = (B.astype(np.uint8) @ B.astype(np.uint8)) > 0
            k *= 2
        return bool(B.all())

    def ensure_ergodic(self):
        if not self.is_primitive():
            raise ErgodicityError(
                "kernel is not irreducible and aperiodic (no power <= n^2 is positive)"
            )

    # -- sampling support ----------------------------------------------
    def _cum_rows(self):
        if self._cum is None:
            self._cum = np.cumsum(self.P, axis=1)
            self._cum_lists = [row.tolist() for row in self._cum]
        return self._cum

    def step(self, states, rng):
        """Advance a vector of states by one transition (vectorized)."""
        cum = self._cum_rows()
        states = np.asarray(states)
        u = rng.random(states.shape[0])
        nxt = np.sum(cum[states] <= u[:, None], axis=1)
        return np.minimum(nxt, self.n_states - 1)

    def power_row(self, state, steps):
        """Row of P^steps for the given start state, by binary exponentiation."""
        steps = _count(steps, "steps", 0)
        row = np.zeros(self.n_states)
        row[_count(state, "state", 0, self.n_states - 1)] = 1.0
        bit = 0
        while steps:
            if bit not in self._pow2:
                prev = self._pow2[bit - 1]
                self._pow2[bit] = prev @ prev
            if steps & 1:
                row = row @ self._pow2[bit]
            steps >>= 1
            bit += 1
        return row

    def sample_stationary(self, rng, n=None):
        pi = stationary(self)
        cum = np.cumsum(pi)
        u = rng.random() if n is None else rng.random(n)
        idx = np.searchsorted(cum, u, side="right")
        return np.minimum(idx, self.n_states - 1)

    def __repr__(self):
        return f"TransitionKernel(n_states={self.n_states})"


def stationary(kernel):
    """Stationary law by power iteration to a step change <= 1e-12 in l1, cached on the kernel.

    The iterates mu_{k+1} = mu_k @ P are formed a block at a time and
    tested for convergence once per block (`_settled`), which returns
    the iterate a test after every product would stop at.
    """
    if kernel._pi is not None:
        return kernel._pi
    kernel.ensure_ergodic()
    mu = np.full(kernel.n_states, 1.0 / kernel.n_states)
    done, size = 0, _FIRST_BLOCK
    while done < _MAX_POWER_STEPS:
        size = min(size, _MAX_POWER_STEPS - done)
        block = list(accumulate(repeat(kernel.P, size), np.matmul, initial=mu))
        k = _settled(block)
        if k is not None:
            mu = block[k]
            break
        mu = block[-1]
        done += size
        size = min(2 * size, _MAX_BLOCK)
    else:
        raise ErgodicityError(f"power iteration did not converge in {_MAX_POWER_STEPS} steps")
    mu = mu / mu.sum()
    if np.abs(mu @ kernel.P - mu).sum() > _STATIONARY_RESIDUAL:
        raise ErgodicityError("stationary residual above 1e-10 after power iteration")
    kernel._pi = mu
    return mu


def _settled(block):
    """Index of the first iterate in `block` within 1e-12 (l1) of the one before it, or None.

    Row sums over the stacked block only pick candidates, with a factor-2
    margin for their summation order; each candidate is decided by the
    1-D expression a per-product test evaluates, so the stopping index
    does not depend on how numpy reduces the rows.
    """
    rows = np.array(block)
    near = np.abs(rows[1:] - rows[:-1]).sum(axis=1) <= 2 * _STATIONARY_TOL
    for k in np.flatnonzero(near).tolist():
        if np.abs(block[k + 1] - block[k]).sum() <= _STATIONARY_TOL:
            return k + 1
    return None


def _worst_tv(P, pi):
    """Worst-start TV 0.5 * max_z ||P^t(z, .) - pi||_1 at t = 1, 2, ..., one product each."""
    Pt = P
    for _ in range(_MAX_POWER_STEPS):
        yield 0.5 * np.max(np.abs(Pt - pi).sum(axis=1))
        Pt = Pt @ P
    raise ErgodicityError(f"TV scan did not settle in {_MAX_POWER_STEPS} steps")


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
        kernel = self.kernel
        kernel._cum_rows()
        cum = kernel._cum_lists
        last = kernel.n_states - 1
        u = self.rng.random(steps).tolist()
        out = np.empty(steps, dtype=np.int64)
        s = self.state
        for i, ui in enumerate(u):
            s = bisect_right(cum[s], ui)
            if s > last:
                s = last
            out[i] = s
        self.state = s
        self.n_consumed += steps
        return out

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
        cum = np.cumsum(row)
        idx = int(np.searchsorted(cum, self.rng.random(), side="right"))
        self.state = min(idx, self.kernel.n_states - 1)
        self.n_consumed += steps


def sample_paths(kernel, n_steps, n_paths, rng, start="stationary"):
    """Simulate n_paths independent trajectories of length n_steps (vectorized).

    Returns an (n_paths, n_steps) int matrix.  Memory-heavy for very long
    paths; reduction-style consumers should iterate kernel.step directly.
    """
    n_steps = _count(n_steps, "n_steps", 1)
    n_paths = _count(n_paths, "n_paths", 1)
    rng = np.random.default_rng(rng)
    if start == "stationary":
        states = kernel.sample_stationary(rng, n_paths)
    else:
        states = np.full(n_paths, _count(start, "start state", 0, kernel.n_states - 1))
    out = np.empty((n_paths, n_steps), dtype=np.int16 if kernel.n_states < 2**15 else np.int64)
    for t in range(n_steps):
        states = kernel.step(states, rng)
        out[:, t] = states
    return out
