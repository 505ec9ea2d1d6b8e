"""Exception types shared across the package."""


class LogcapError(Exception):
    """Base class for all errors raised by logcap."""


class ValidationError(LogcapError, ValueError):
    """Malformed input data (reversed pair, non-finite endpoint, ...)."""


class DomainError(LogcapError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ParseError(LogcapError, ValueError):
    """Unparseable textual description of a set or grid."""


class SingularMatrixError(LogcapError, ArithmeticError):
    """Matrix (numerically) singular: sigma_min <= 1e-13 sigma_max, or a zero LAPACK pivot."""


class ConvergenceError(LogcapError, RuntimeError):
    """Quadrature did not converge within its node budget.

    Carries the partial result so callers can inspect how far it got.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
