"""Exception types shared across the library.

The CLI maps these onto stable exit codes, so new failure modes should
reuse one of the classes below rather than raising bare ValueErrors.
"""

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
