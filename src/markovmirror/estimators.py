"""Stochastic gradient/operator estimates drawn from a chain cursor.

Oracles are callables oracle(x, z) that broadcast over a vector of
states z, returning one row per state.  Every estimate reports the
oracle evaluations it actually performed and the chain samples it
consumed; the two differ for the truncated multilevel estimator, whose
cursor always moves 2^J * B states even when the level is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, _count, _integral

__all__ = ["Estimate", "MlmcConfig", "single_sample", "batch_mean", "combine_levels",
           "mlmc_geometric"]

# levels above this are astronomically rare (P ~ 2^-62) and would
# overflow the span arithmetic, so the geometric draw is clipped
_MAX_LEVEL = 62

# truncated draws longer than this advance the cursor by an exact
# matrix-power jump instead of materializing unused states
_SKIP_THRESHOLD = 4096

# states one-at-a-time readers draw from the cursor per advance call; advance
# holds a chunk's uniforms as Python floats, and 4096 of them raised a
# 2^15-step run's peak RSS by 1 MB with no speed gain over 1024
_CHUNK = 1024


@dataclass
class Estimate:
    """One stochastic estimate plus its exact resource accounting."""

    g: np.ndarray
    oracle_calls: int
    chain_steps: int
    level: int  # drawn multilevel index J; 0 for plain estimators


@dataclass(frozen=True)
class MlmcConfig:
    """Base batch B and truncation cap M for the geometric multilevel estimator."""

    B: int = 1
    M: int = 1

    def __post_init__(self):
        for name in ("B", "M"):
            value = getattr(self, name)
            if not (_integral(value) and value >= 1):
                raise InputError(
                    f"MlmcConfig needs integers B >= 1 and M >= 1, got B={self.B} M={self.M}"
                )
            object.__setattr__(self, name, int(value))

    @property
    def max_level(self):
        """floor(log2 M), exact for every M."""
        return self.M.bit_length() - 1

    def expected_oracle_calls(self):
        """E[oracle_calls]: B * (floor(log2 M) + truncation mass)."""
        jmax = self.max_level
        return self.B * (jmax + 2.0**-jmax)


def _eval_rows(oracle, x, states):
    vals = np.asarray(oracle(x, states), dtype=float)
    if vals.ndim == 1:
        vals = vals[None, :]
    return vals


def _prefix_mean(values, n):
    """Mean of the first n rows; np.mean's add-reduce and divide without its wrapper."""
    return values[:n].sum(axis=0) / n


def single_sample(oracle, x, cursor):
    """One oracle evaluation at the next chain state."""
    state = cursor.advance(1)
    vals = _eval_rows(oracle, x, state)
    return Estimate(g=vals[0], oracle_calls=1, chain_steps=1, level=0)


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


def batch_mean(oracle, x, cursor, batch):
    """Plain mean over the next `batch` chain states."""
    batch = _count(batch, "batch", 1)
    states = cursor.advance(batch)
    vals = _eval_rows(oracle, x, states)
    return Estimate(g=_prefix_mean(vals, batch), oracle_calls=batch, chain_steps=batch, level=0)


def combine_levels(values, level, B, M):
    """Multilevel combination g_0 + 2^J (g_J - g_{J-1}) over prefix means.

    `values` holds the oracle rows for at least min(2^level, needed) * B
    consecutive samples; levels with 2^level > M fall back to g_0.
    Shared by the production estimator and the paired validation trials.
    """
    values = np.asarray(values, dtype=float)
    g0 = _prefix_mean(values, B)
    if (1 << level) > M:
        return g0
    g_hi = _prefix_mean(values, (1 << level) * B)
    g_lo = _prefix_mean(values, (1 << (level - 1)) * B)
    return g0 + float(1 << level) * (g_hi - g_lo)


def _draw_level(rng):
    """Multilevel index J with P{J = j} = 2^-j (j >= 1), clipped at _MAX_LEVEL.

    Exactly one rng.geometric(0.5) call per draw, so level streams stay
    aligned wherever the draw is made.
    """
    return min(int(rng.geometric(0.5)), _MAX_LEVEL)


def mlmc_geometric(oracle, x, cursor, config, rng):
    """Truncated-geometric multilevel estimate.

    Draws J with P{J = j} = 2^-j from `rng` (a stream independent of the
    cursor's), always advances the cursor by 2^J * B states, and
    evaluates the oracle on all of them when 2^J <= M or on just the
    first B when the level is truncated.
    """
    level = _draw_level(rng)
    span = (1 << level) * config.B
    if (1 << level) <= config.M:
        states = cursor.advance(span)
        vals = _eval_rows(oracle, x, states)
        g = combine_levels(vals, level, config.B, config.M)
        calls = span
    else:
        states = cursor.advance(config.B)
        vals = _eval_rows(oracle, x, states)
        g = _prefix_mean(vals, config.B)
        rest = span - config.B
        if rest > _SKIP_THRESHOLD:
            cursor.skip(rest)
        elif rest > 0:
            cursor.advance(rest)
        calls = config.B
    return Estimate(g=g, oracle_calls=calls, chain_steps=span, level=level)
