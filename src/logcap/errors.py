"""Exception types shared across the package.

``_brief`` builds their messages; ``_real`` and ``_reals`` read real arguments.
"""

import math
import numbers


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


def _brief(value) -> str:
    """``repr(value)`` for an error message, never raising while it is built.

    Python refuses to print an integer of more than 4300 digits (a
    ValueError); such an integer is shown by its sign, type and digit
    count, and a container holding one by its type.
    """
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, numbers.Integral):
            return f"<{type(value).__name__} holding an integer too long to print>"
        m = abs(int(value))
        digits = int(m.bit_length() * math.log10(2.0))  # the count, or one short of it
        digits += m >= 10 ** digits
        sign = "negative " if value < 0 else ""
        return f"<{sign}{type(value).__name__} of {digits} digits>"


def _real(value, name: str) -> float:
    """``float(value)``, which keeps a float's bits: the one reading of every public real argument.

    Raises DomainError, naming ``name`` and the value given, where it is no
    number or an integer beyond the float range, which float() refuses.
    """
    try:
        return float(value)
    except (OverflowError, TypeError, ValueError):
        raise DomainError(f"{name} must be a number within the float range, got {_brief(value)}") from None


def _reals(values, name: str) -> tuple[float, ...]:
    """Each entry of the iterable ``values`` read by ``_real``.

    Raises DomainError, naming ``name``, where ``values`` is no iterable,
    as where an entry is no number.
    """
    try:
        values = iter(values)
    except TypeError:
        raise DomainError(f"{name}s must be an iterable of numbers, got {_brief(values)}") from None
    return tuple(_real(v, name) for v in values)
