"""Exception types shared across the package."""

__all__ = ["DomainError", "InternalError"]


class DomainError(ValueError):
    """Raised when an input violates a documented precondition."""


class InternalError(RuntimeError):
    """Raised when an internal consistency check fails (signals a bug)."""
