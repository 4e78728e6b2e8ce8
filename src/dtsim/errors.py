"""Exception types shared across the package."""

__all__ = ["DtsimError", "DomainError", "GridError", "ConvergenceError", "PoleError"]


class DtsimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DtsimError, ValueError):
    """A parameter or argument lies outside the mathematically valid domain."""


class GridError(DtsimError, ValueError):
    """A value that must sit on the geometric sampling grid does not."""


class ConvergenceError(DtsimError, ArithmeticError):
    """A series or spectral quantity does not converge for these parameters."""


class PoleError(DtsimError, ArithmeticError):
    """Evaluation too close to a pole of a closed-form expression."""
