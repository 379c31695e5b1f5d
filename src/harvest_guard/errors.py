"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""
