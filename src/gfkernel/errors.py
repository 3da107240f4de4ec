"""Exception types shared by every layer of the package."""

import math


class GfkError(Exception):
    """Base class for all package errors."""


class DomainError(GfkError, ValueError):
    """Input violates a documented precondition (invalid parameters or arguments)."""


class PoleError(DomainError):
    """A gamma-function argument sits on a pole (nonpositive integer)."""


class DegenerateParameterError(DomainError):
    """Hypergeometric connection formula is degenerate: c-a-b is within
    1e-8 of an integer on the z > 1/2 evaluation path."""


class BoundaryTripleError(DomainError):
    """A Macdonald triple lies on (or within DEFAULT_BOUNDARY_EPS*(x+y) of) a
    region boundary z = |x-y| or z = x+y, where the kernel may diverge."""


class RangeOverflowError(DomainError):
    """A prefactor overflowed the double range; carries a diagnostic."""


class ConvergenceError(GfkError, ArithmeticError):
    """A series, quadrature rule, or acceleration failed to converge.

    ``partial`` holds the best value obtained before giving up, when one
    exists; it is never silently returned as the result.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def require_finite(**args: float) -> None:
    """DomainError naming the first non-finite argument."""
    for name, v in args.items():
        if not math.isfinite(v):
            raise DomainError(f"{name}={v!r} must be finite")
