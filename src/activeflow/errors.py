"""Exception types shared across the package."""


class ActiveFlowError(Exception):
    """Base class for all package errors."""


class AdmissibilityViolation(ActiveFlowError):
    """Initial data fails the non-negativity / density-range requirements."""


class NumericalBlowup(ActiveFlowError):
    """A time step produced non-finite values or runaway amplitude growth.

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


class IterationStall(ActiveFlowError):
    """Power iteration failed to converge within the iteration budget."""


class ParseError(ActiveFlowError):
    """Config file is not valid JSON or a field has the wrong type."""


class ValidationError(ActiveFlowError):
    """Config parsed but a field value violates its constraints."""


class CheckpointMismatch(ActiveFlowError):
    """Checkpoint was produced by a different configuration."""
