"""Exception hierarchy shared across the package."""


class MapflowError(Exception):
    """Base class for every error raised by this package."""


class SingularPointError(MapflowError):
    """Evaluation hit a pole: a declared denominator vanished, at ``point``
    or somewhere on a path between the two times ``between``."""

    NON_FINITE = "non-finite result"  # the label when a map's output is not finite

    def __init__(self, where, label, point=None, between=None):
        self.where = where
        self.label = label
        self.point = point
        self.between = between
        msg = f"singular point in {where}: {label}"
        if label != self.NON_FINITE:
            msg += " vanishes"
        if point is not None:
            msg += f" at {tuple(point)}"
        if between is not None:
            msg += f" between t={between[0]!r} and t={between[1]!r}"
        super().__init__(msg)


class LevelSetError(MapflowError):
    """Newton found no source point on the level set H(F(x)) = H(F(x_start))
    at the sample time ``time``; ``point`` is its last iterate."""

    def __init__(self, where, time, point):
        self.where = where
        self.time = time
        self.point = point
        super().__init__(
            f"level set of {where} not reached at t={time!r}: "
            f"Newton stopped at {tuple(point)}"
        )


class NonFiniteStateError(MapflowError, ValueError):
    """A phase-space point has a NaN or infinite coordinate."""


class LogDomainError(MapflowError):
    """Logarithm requested for a non-positive argument."""


class ArityError(MapflowError):
    """Wrong number of scalar fields for a bracket of the given dimension."""


class IterateDomainError(MapflowError):
    """An intermediate iterate of a composed map left the valid domain."""

    def __init__(self, where, step, cause=None):
        self.where = where
        self.step = step
        self.cause = cause
        super().__init__(f"iterate {step} of {where} left the domain: {cause}")


class DetConditionError(MapflowError):
    """Determinant condition failed, so the flow construction was refused."""

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"det condition fails for {report.map_name} with time index "
            f"{report.time_index}: max normalized partial {report.max_ratio:.3e}"
        )


class QuadratureError(MapflowError):
    """Adaptive quadrature did not reach the requested tolerance."""


class IntegrationError(MapflowError):
    """Base class for integrator failures; carries the last good sample."""

    def __init__(self, message, last_time, last_state, trajectory=None):
        self.last_time = last_time
        self.last_state = last_state
        self.trajectory = trajectory
        super().__init__(f"{message} (last good state at t={last_time!r})")


class MaxStepsError(IntegrationError):
    """Step budget exhausted before reaching the end time."""


class StepUnderflowError(IntegrationError):
    """Step size collapsed, typically while approaching a singularity."""


class UnknownMapError(MapflowError):
    """Requested catalog identifier does not exist."""


class ConfigError(MapflowError):
    """Invalid experiment or command-line configuration."""
