"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Arguments violate a stated precondition (bad shapes, non-finite
    entries, malformed configuration, parameters outside their range)."""


class GeometryError(RuntimeError):
    """A geometric assumption failed at runtime: a window intersects the
    curve in more than one sheet, a projection is ambiguous, a patch
    center drifted past its audit budget."""


class ConvergenceError(RuntimeError):
    """A deviation budget was not met: the support radius proven for it
    would resolve its grid into more points than a read may take, or
    the witness read at that radius exceeds it."""
