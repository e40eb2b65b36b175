"""Exception types shared across the toolkit.

Domain/validation problems derive from ValueError so callers can treat them
uniformly; runtime numerical trouble derives from RuntimeError.
"""


class InvalidDimensionError(ValueError):
    """A dimension argument is out of range (e.g. n = 0)."""


class InvalidArgumentError(ValueError):
    """An argument combination violates an operation's precondition."""


class DomainError(ValueError):
    """A scalar argument lies outside a formula's domain."""


class PreconditionError(ValueError):
    """A structured precondition failed; message names the violated constraint."""


class SizeLimitError(ValueError):
    """A problem size exceeds the configured cap for exact computation."""


class EnumerationLimitError(RuntimeError):
    """Subset enumeration would exceed cones.DEFAULT_ENUMERATION_CAP.

    Use the randomized refutation mode for problems of this size.
    """


class NumericalFailureError(RuntimeError):
    """An iterative numerical routine failed to converge."""

    def __init__(self, message: str, fingerprint: str | None = None):
        if fingerprint is not None:
            message = f"{message} [fingerprint {fingerprint}]"
        super().__init__(message)
        self.fingerprint = fingerprint


class OracleFailureError(RuntimeError):
    """A support oracle returned a non-finite value; carries the direction."""

    def __init__(self, message: str, direction=None):
        super().__init__(message)
        self.direction = direction
