"""Stochastic gradient/operator estimates drawn from a chain cursor.

Oracles are callables oracle(x, z) that broadcast over a vector of
states z, returning one row per state.  A multilevel estimate reports
the oracle evaluations it performed and the chain samples it consumed;
the two differ when its level is truncated, because the cursor always
moves 2^J * B states.

The solvers draw a run's states and levels before its loop: a plan
(`_unbatched_plan`, `_level_plan`) is each iteration's read of the
chain plus the running oracle-call and chain-step totals, and
`mlmc_geometric` is a batched plan's read for one estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InputError, _count

__all__ = ["Estimate", "MlmcConfig", "combine_levels", "mlmc_geometric"]

# levels above this are astronomically rare (P ~ 2^-62) and would
# overflow the span arithmetic, so the geometric draw is clipped
_MAX_LEVEL = 62

# truncated draws longer than this advance the cursor by an exact
# matrix-power jump instead of materializing unused states
_SKIP_THRESHOLD = 4096

# states a plan draws from the cursor per advance call (a batched plan reads
# one iteration's states at once when they are more); advance holds a
# chunk's uniforms as Python floats, and 4096 of them raised a 2^15-step
# run's peak RSS by 1 MB with no speed gain over 1024
_CHUNK = 1024


@dataclass
class Estimate:
    """One stochastic estimate plus its exact resource accounting."""

    g: np.ndarray
    oracle_calls: int
    chain_steps: int
    level: int  # drawn multilevel index J


@dataclass(frozen=True)
class MlmcConfig:
    """Base batch B and truncation cap M for the geometric multilevel estimator."""

    B: int = 1
    M: int = 1

    def __post_init__(self):
        for name in ("B", "M"):
            object.__setattr__(self, name, _count(getattr(self, name), f"MlmcConfig {name}", 1))

    @property
    def max_level(self):
        """floor(log2 M), exact for every M."""
        return self.M.bit_length() - 1

    def expected_oracle_calls(self):
        """E[oracle_calls]: B * (floor(log2 M) + truncation mass)."""
        jmax = self.max_level
        return self.B * (jmax + 2.0**-jmax)


def _eval_rows(oracle, x, states):
    """The oracle's rows at `states`; InputError unless it returns one row of x's size per state."""
    vals = np.asarray(oracle(x, states), dtype=float)
    if vals.shape != (len(states), np.size(x)):
        raise InputError(f"oracle returned shape {vals.shape}, expected one row per state: "
                         f"({len(states)}, {np.size(x)})")
    return vals


def _prefix_mean(values, n):
    """Mean of the first n rows (axis -2); np.mean's add-reduce and divide without its wrapper.

    A stack of (rows, d) blocks gives one mean per block, each bit-equal
    to the mean of that block alone.
    """
    return values[..., :n, :].sum(axis=-2) / n


def _batch_g(oracle, x, states):
    """The mean of the oracle's rows at `states`."""
    return _prefix_mean(_eval_rows(oracle, x, states), len(states))


def _level_cost(level, B, M):
    """(oracle calls, chain steps) of a multilevel estimate at `level`.

    The cursor moves the level's whole span of 2^level * B states; the
    oracle reads all of them, or only the first B when 2^level > M.
    """
    span = (1 << level) * B
    return (span if (1 << level) <= M else B), span


def _level_g(oracle, x, read, config):
    """The multilevel estimate at x from a plan's read (head states, level states, level)."""
    _, states, level = read
    return combine_levels(_eval_rows(oracle, x, states), level, config.B, config.M)


def _states(cursor, T):
    """The cursor's next T states as ints, drawn _CHUNK at a time.

    advance(k) reads k uniforms in order, so these are the states T
    calls of advance(1) would return.  Nothing is drawn before the
    first state is asked for; a reader that stops early leaves the
    cursor up to one chunk ahead of the states it used.
    """
    while T > 0:
        n = min(T, _CHUNK)
        yield from cursor.advance(n).tolist()
        T -= n


def _unbatched_plan(cursor, T, calls):
    """An unbatched run's plan: one chain state per iteration, read by `calls` oracle calls.

    Returns (reads, calls, steps): the states as `_states` yields them,
    and the oracle calls and chain steps after t = 0, ..., T iterations.
    """
    return _states(cursor, T), range(0, calls * (T + 1), calls), range(T + 1)


def _level_plan(cursor, level_rng, T, config, head):
    """A batched run's plan, its T levels drawn from `level_rng` in one call.

    Iteration t reads `head` states for a batch mean (0 for none), then
    its level's span.  Returns (reads, calls, steps): reads yields each
    iteration's (head states, level states, level), and calls and steps
    are the running totals after t = 0, ..., T iterations.
    """
    levels = _draw_level(level_rng, size=T).tolist()
    costs = [_level_cost(level, config.B, config.M) for level in levels]
    calls = list(accumulate((head + c for c, _ in costs), initial=0))
    steps = list(accumulate((head + s for _, s in costs), initial=0))
    return _level_reads(cursor, levels, costs, head), calls, steps


def _level_reads(cursor, levels, costs, head):
    """Each iteration's (head states, level states, level), read from the cursor in blocks.

    Iteration t moves the cursor `head` states, then its level's span:
    the oracle reads the first `calls` states of it, and the rest is
    advanced too when it is at most _SKIP_THRESHOLD states long, or
    crossed by one `skip` otherwise.  The iterations up to a skip are
    read by one `advance` of at most _CHUNK states (one iteration's, if
    it alone needs more), which reads the uniforms a per-iteration walk
    reads, in the same order.  A block's advance and skip both happen
    before its first iteration is yielded.
    """
    moved, skipped = [], []
    for calls, span in costs:
        rest = span - calls
        jump = rest if rest > _SKIP_THRESHOLD else 0
        moved.append(head + span - jump)
        skipped.append(jump)
    t, T = 0, len(costs)
    while t < T:
        first, size, skip = t, 0, 0
        while t < T and not skip and (t == first or size + moved[t] <= _CHUNK):
            size += moved[t]
            skip = skipped[t]
            t += 1
        states = cursor.advance(size)
        if skip:
            cursor.skip(skip)
        at = 0
        for u in range(first, t):
            mid = at + head
            yield states[at:mid], states[mid:mid + costs[u][0]], levels[u]
            at += moved[u]


def combine_levels(values, level, B, M):
    """Multilevel combination g_0 + 2^J (g_J - g_{J-1}) over prefix means.

    `values` holds the oracle rows of 2^level * B or more consecutive
    samples on its last two axes (rows, d), so a stack of trials that drew
    the same level is combined in one call; a level with 2^level > M falls
    back to g_0, which needs B rows.  Shared by the production estimator
    and the paired validation trials.  InputError if level < 1 or too few rows.
    """
    level = _count(level, "level", 1)
    values = np.asarray(values, dtype=float)
    rows, span = _level_cost(level, B, M)
    if values.ndim < 2 or values.shape[-2] < rows:
        raise InputError(f"level {level} with B = {B}, M = {M} reads {rows} rows, "
                         f"got values of shape {values.shape}")
    g0 = _prefix_mean(values, B)
    if rows < span:  # truncated
        return g0
    return g0 + float(1 << level) * (_prefix_mean(values, rows) - _prefix_mean(values, span // 2))


def _draw_level(rng, size=None):
    """Multilevel index J with P{J = j} = 2^-j (j >= 1), clipped at _MAX_LEVEL.

    One rng.geometric(0.5) call per draw, an int; with `size`, one call for
    an array of `size` draws, equal to that many single draws and leaving
    the generator where they leave it.
    """
    if size is None:
        return min(int(rng.geometric(0.5)), _MAX_LEVEL)
    return np.minimum(rng.geometric(0.5, size=size), _MAX_LEVEL)


def mlmc_geometric(oracle, x, cursor, config, rng):
    """Truncated-geometric multilevel estimate.

    Draws J with P{J = j} = 2^-j from `rng` (a stream independent of the
    cursor's), always advances the cursor by 2^J * B states, and
    evaluates the oracle on all of them when 2^J <= M or on just the
    first B when the level is truncated.  It is a batched plan's read
    for one iteration.
    """
    level = _draw_level(rng)
    calls, span = _level_cost(level, config.B, config.M)
    read, = _level_reads(cursor, [level], [(calls, span)], 0)
    return Estimate(g=_level_g(oracle, x, read, config), oracle_calls=calls,
                    chain_steps=span, level=level)
