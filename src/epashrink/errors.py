"""Exception hierarchy shared across the package, and the checks of
config fields that raise it.

The CLI maps each category to a distinct exit code, so library code should
raise the most specific class that applies.
"""

import math
import numbers
import operator
from contextlib import contextmanager

import numpy as np

__all__ = ["EpashrinkError", "InputError", "ConfigError", "DomainError", "NumericError"]


class EpashrinkError(Exception):
    """Base class for all package errors."""


class InputError(EpashrinkError, ValueError):
    """Malformed or unusable input data (bad file, non-dyadic length, ...)."""


class ConfigError(EpashrinkError, ValueError):
    """Invalid configuration (unknown keys, unparseable values, ...)."""


class DomainError(EpashrinkError, ValueError):
    """Parameter outside its mathematical domain (alpha, beta, lambda, ...)."""


class NumericError(EpashrinkError, ArithmeticError):
    """A numerical routine failed to reach its accuracy target."""


@contextmanager
def numeric_guard(what: str):
    """Turn floating-point overflow, invalid operations and division by zero
    inside the block into NumericError.

    Covers numpy arithmetic, which would otherwise print a RuntimeWarning
    and carry on with inf or nan, and Python float arithmetic, which raises
    its own ArithmeticError subclasses.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except (FloatingPointError, OverflowError, ZeroDivisionError) as exc:
        raise NumericError(
            f"{what}: floating-point failure ({type(exc).__name__}: {exc})"
        ) from exc


def _whole(name: str, value, error=ConfigError) -> int:
    """value as a Python int if it is a whole number (operator.index),
    else error naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be a whole number, got {value!r}") from None


def _member(kind, name: str, value, error=ConfigError):
    """value as a member of the enum kind, else error naming the field."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise error(f"unknown {name} {value!r}; available: "
                    f"{[member.value for member in kind]}") from None


def _scale(name: str, value, error=ConfigError) -> float:
    """value as a Python float if it is a positive, finite real number,
    else error naming the field."""
    try:
        if isinstance(value, numbers.Real) and 0.0 < float(value) < math.inf:
            return float(value)
    except OverflowError:  # an int past the largest double
        pass
    raise error(f"{name} must be positive and finite, got {value}")
