"""Exception types shared across the library, and its input rules.

The CLI maps these onto stable exit codes, so new failure modes should
reuse one of the classes below rather than raising bare ValueErrors.
Every public count and scale is checked by `_count` or `_check_scale`.
"""

import math
from numbers import Integral, Real

__all__ = ["MarkovMirrorError", "InputError", "GeometryError", "ErgodicityError",
           "ScheduleError", "SolverError", "StatisticsError", "ConfigError"]


class MarkovMirrorError(Exception):
    """Base class for all library errors."""


class InputError(MarkovMirrorError, ValueError):
    """Malformed user input: bad shapes, out-of-range parameters, dimension mismatch."""


class GeometryError(InputError):
    """Infeasible point, unsupported norm exponent, or a prox subproblem that failed."""


class ErgodicityError(MarkovMirrorError):
    """Kernel is not irreducible and aperiodic, or chain diagnostics failed to converge."""


class ScheduleError(InputError):
    """Stepsize/momentum schedule violates the run conditions it is checked against."""


class SolverError(MarkovMirrorError):
    """A solve did not reach its tolerance within its iteration cap, or met a non-finite estimate."""


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
    """True for an int or a whole float; False for a fraction, NaN or inf."""
    return isinstance(value, Integral) or (isinstance(value, Real) and float(value).is_integer())


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
