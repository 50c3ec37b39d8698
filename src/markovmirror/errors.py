"""Exception types shared across the library, and its input rules.

The CLI maps these onto stable exit codes, so new failure modes should
reuse one of the classes below rather than raising bare ValueErrors:
InputError (ConfigError among them) exits 2, SolverError and any other
library error 3, ErgodicityError 4 and StatisticsError 5.
Every public count and scale is checked by `_count` or `_check_scale`.
"""

import math
from numbers import Integral, Real

__all__ = ["MarkovMirrorError", "InputError", "ErgodicityError", "SolverError",
           "StatisticsError", "ConfigError"]


class MarkovMirrorError(Exception):
    """Base class for all library errors."""


class InputError(MarkovMirrorError, ValueError):
    """Bad input: a shape, a point off its set, or a broken run condition (c > 1/(2L), T < tau)."""


class ErgodicityError(MarkovMirrorError):
    """Kernel is not irreducible and aperiodic, or chain diagnostics failed to converge."""


class SolverError(MarkovMirrorError):
    """A failed solve: a non-finite estimate, an infeasible iterate, or a stopped --jobs worker."""


class StatisticsError(MarkovMirrorError):
    """Too few trials or degenerate data for the requested statistical procedure."""


class ConfigError(InputError):
    """Bad experiment config; carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"config line {line}: {message}"
        super().__init__(message)


def _integral(value):
    """True for an int or a whole float; False for a bool, a fraction, NaN or inf."""
    return not isinstance(value, bool) and (
        isinstance(value, Integral) or (isinstance(value, Real) and float(value).is_integer()))


def _count(value, name, least, most=None):
    """`value` as an int if integral, >= least and <= most (unless None); else InputError."""
    if type(value) is not int and _integral(value):  # a plain int skips the slow ABC test
        value = int(value)
    if type(value) is int and least <= value and (most is None or value <= most):
        return value
    bound = f">= {least}" if most is None else f"in [{least}, {most}]"
    raise InputError(f"{name} must be an integer {bound}, got {value}")


def _check_scale(value, name, zero_ok=False):
    """`value` as a float if it is finite and > 0 (>= 0 with `zero_ok`); InputError otherwise."""
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        raise InputError(f"{name} must be {'nonnegative' if zero_ok else 'positive'} and finite, "
                         f"got {value}")
    return float(value)
