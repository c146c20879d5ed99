"""Exception types shared across the package."""


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
