"""Exception types shared across the package, and the input checks its layers share."""

import math

__all__ = ["ConfigurationError", "DegenerateInputError", "DomainError",
           "InsufficientTruncationError", "TruncationError", "UnsupportedOrderError"]


class DomainError(ValueError):
    """An argument lies outside its physically meaningful domain."""


def require_finite_nonneg(name: str, value: float) -> None:
    """Raise ``DomainError`` unless ``value`` is finite and non-negative."""
    if not math.isfinite(value) or value < 0.0:
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


def require_unit_interval(name: str, value: float) -> None:
    """Raise ``DomainError`` unless ``value`` lies in [0, 1] (NaN does not)."""
    if not 0.0 <= value <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")


class UnsupportedOrderError(DomainError):
    """A tabulated closed-form coefficient was requested beyond the available orders."""


class TruncationError(RuntimeError):
    """The photon-number expansion hit its hard cap before the tail converged.

    ``partial_mass`` is the probability mass accumulated up to the cap and
    ``partial`` the truncated distribution itself, so callers that can tolerate
    a bounded remainder may still proceed.
    """

    def __init__(self, message: str, partial_mass: float, partial=None):
        super().__init__(message)
        self.partial_mass = partial_mass
        self.partial = partial


class InsufficientTruncationError(TruncationError):
    """A Fock-sum oracle cannot reach its accuracy target at the requested order."""


class DegenerateInputError(ValueError):
    """Inputs collapse a formula to an undefined expression (e.g. zero detection probability)."""


class ConfigurationError(ValueError):
    """A run-configuration entry is missing, malformed, or inconsistent."""
