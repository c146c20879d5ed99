"""Exception types shared across the package, and the checks of scalar arguments that
raise them (here, so that every module can import them without a cycle)."""

import math
import numbers
import operator


class DomainError(ValueError):
    """An input violates a mathematical precondition (pole, bad parameter, ...)."""


class NumericalError(ArithmeticError):
    """A numerical procedure could not reach the requested accuracy."""


class QuadratureError(NumericalError):
    """Adaptive quadrature exhausted its budget; carries and states the best value found."""

    def __init__(self, message, value, error_estimate):
        super().__init__(f"{message} (best value {value!r}, error estimate {error_estimate!r})")
        self.value = value
        self.error_estimate = error_estimate


class ExperimentError(NumericalError):
    """A Monte Carlo experiment aborted (too many failed replications)."""


def _validate_size(value, what, minimum=0):
    """The int ``operator.index(value)`` if at least ``minimum``, the one check of sizes,
    counts and seeds (2.5 and nan fail); else DomainError naming ``what`` and the value."""
    try:
        size = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if size < minimum:
        raise DomainError(f"{what} must be at least {minimum}, got {size!r}")
    return size


def _validate_number(value, what, kind=float):
    """``kind(value)``, a float or a complex, if ``value`` is a number of that kind: the one
    check of a scalar argument's type, so that a string, None or a complex where a real is
    asked raises DomainError naming ``what`` and the value, not TypeError or ValueError."""
    if not isinstance(value, numbers.Real if kind is float else numbers.Complex):
        words = "a real" if kind is float else "a complex"
        raise DomainError(f"{what} must be {words} number, got {value!r}")
    return kind(value)


def _validate_finite(value, what):
    """``float(value)`` if ``value`` is a real number other than nan and inf, else DomainError
    naming ``what`` and ``value``: the one check of locations."""
    value = _validate_number(value, what)
    if not math.isfinite(value):
        raise DomainError(f"{what} must be finite, got {value!r}")
    return value


def _validate_positive(value, what):
    """DomainError naming ``what`` and ``value`` unless 0 < value < inf (nan fails): the one
    check of scales, tolerances and thresholds."""
    if not 0 < _validate_number(value, what) < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {value!r}")
