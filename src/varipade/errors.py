"""Exception hierarchy shared by all modules, and the number checks of their configs."""

import math
import numbers


class VaripadeError(Exception):
    """Base class for all library errors."""


class ExpressionSyntaxError(VaripadeError):
    """Malformed integrand text. `offset` is the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(VaripadeError):
    """Identifier that names no variable (x, y, dy), constant (pi) or integrand function."""

    def __init__(self, name, offset):
        super().__init__(f"unknown identifier {name!r} (at offset {offset})")
        self.name = name
        self.offset = offset


class DomainError(VaripadeError):
    """Evaluation left the natural domain (sqrt of negative, near-zero divisor, ...) at `x`."""

    def __init__(self, message, x):
        super().__init__(message)
        self.x = x


class StructureSyntaxError(VaripadeError):
    """Structure string does not match any of the five family grammars."""


class InvalidStructureError(VaripadeError):
    """Structure string parsed but describes a degenerate family (zero width, ...)."""


class PoleError(VaripadeError):
    """Rational denominator magnitude fell below 1e-8 at some x."""

    def __init__(self, x):
        super().__init__(f"rational denominator vanishes near x = {x}")
        self.x = x


class EvaluationOverflowError(VaripadeError):
    """A non-finite intermediate appeared during jet evaluation."""


class DegenerateReferenceError(VaripadeError):
    """Reference functional value too small to define a relative error."""


def check_integer(name, value, minimum):
    """Raise ValueError unless `value` is an integer (not a bool) >= minimum."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_finite(name, value):
    """Raise ValueError unless `value` is a finite real number (not a bool)."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
