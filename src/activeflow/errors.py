"""Exception types shared across the package, and the one check of a number
read from outside it (config, checkpoint header, ladder state, CSV cell)."""

import sys


class ActiveFlowError(Exception):
    """Base class for all package errors."""


class AdmissibilityViolation(ActiveFlowError):
    """Initial data fails the non-negativity / density-range requirements."""


class NumericalBlowup(ActiveFlowError):
    """A time step produced non-finite values or runaway amplitude growth,
    or a report holds a non-finite number where none may be (cli._json_safe).

    Carries the failing step index when raised from a run loop.
    """

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class RadiusTooLarge(ActiveFlowError):
    """Cylinder radius violates 0 < r < min(1, sqrt(t0/2))."""


class WindowTooShort(ActiveFlowError):
    """Not enough snapshots inside the requested analysis window."""


class NegativeField(ActiveFlowError):
    """Field has entries below the negativity tolerance."""


class NonpositiveValue(ActiveFlowError):
    """Log-linear rate fitting needs strictly positive values."""


class TooFewPoints(ActiveFlowError):
    """Rate fitting needs at least 10 samples in the window."""


class NotConverged(ActiveFlowError):
    """Stationary time-marching hit t_max before reaching tolerance.

    Informative at large Peclet number: no convergence claim exists there.
    """

    def __init__(self, t_max, residual):
        super().__init__(
            f"residual {residual:.3e} above tolerance at t_max={t_max:g}"
        )
        self.t_max = t_max
        self.residual = residual


class ParseError(ActiveFlowError):
    """An input file is not valid, or a field has the wrong type or, outside
    the config, a value no run writes."""


class ValidationError(ActiveFlowError):
    """Config parsed but a field value violates its constraints."""


class CheckpointMismatch(ActiveFlowError):
    """Checkpoint was produced by a different configuration."""


def number(value, name: str, bad=ParseError) -> float:
    """value as a float if it is a finite JSON number. A bool or any other
    type is a ParseError; NaN, +-Infinity or an int too large for a float is
    a `bad` one."""
    if type(value) not in (int, float):  # a JSON bool loads as bool, not int
        raise ParseError(f"{name}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # False for NaN too
        raise bad(f"{name}: must be finite, got {value!r}")
    return float(value)


def integer(value, name: str, bad=ParseError, nonnegative=False) -> int:
    """value if it is a JSON integer, >= 0 with nonnegative. A bool or any
    other type is a ParseError; a negative one, with nonnegative, a `bad` one."""
    if type(value) is not int:
        raise ParseError(f"{name}: expected an integer, got {value!r}")
    if nonnegative and value < 0:
        raise bad(f"{name}: must be >= 0, got {value}")
    return value
