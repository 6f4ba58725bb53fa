"""Exception types shared across the workbench."""

from math import isfinite


class GanStressError(Exception):
    """Base class for all workbench errors."""


class InvalidParameterError(GanStressError, ValueError):
    """An argument violates a documented precondition."""


class DomainDivisionError(GanStressError, ZeroDivisionError):
    """A formula was evaluated at a pole (division by zero)."""


class NumericInstabilityError(GanStressError, ArithmeticError):
    """Integration produced a non-finite state; carries the failing step."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite state at integration step {step}")


class InsufficientDataError(GanStressError, ValueError):
    """Not enough samples to evaluate the requested quantity."""


class DegenerateRegressionError(GanStressError, ValueError):
    """Regression input has no usable spread on the time axis."""


class ConfigurationError(GanStressError, ValueError):
    """Config document is malformed, has unknown keys, or violates bounds."""


def require_finite(**values) -> None:
    """Raise InvalidParameterError naming the first NaN or infinite value; skip ``None``.
    Pass dataclass fields by name: ``**vars(self)`` slows attribute reads on CPython 3.11."""
    for name, x in values.items():
        if x is not None and not isfinite(x):
            raise InvalidParameterError(f"{name} must be finite, got {x}")
