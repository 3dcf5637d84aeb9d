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


def _real(name: str, value, rule: str, accept, error=ConfigError) -> float:
    """value as a Python float if it is a real number that accept takes,
    else error saying that the field named name rule."""
    try:
        if isinstance(value, numbers.Real) and accept(float(value)):
            return float(value)
    except OverflowError:  # an int past the largest double
        pass
    raise error(f"{name} {rule}, got {value!r}")


def _scale(name: str, value, error=ConfigError) -> float:
    """value as a Python float if it is a positive, finite real number,
    else error naming the field."""
    return _real(name, value, "must be positive and finite",
                 lambda x: 0.0 < x < math.inf, error)


def _floats(name: str, value, error) -> np.ndarray:
    """value as a float array, or error naming the field where it is text
    (str or bytes, or an array of them), which numpy would parse as
    numbers, or where the conversion fails, as it does for an int past
    the largest double."""
    try:
        arr = np.asarray(value)
        text = arr.dtype.kind in "SU" or (
            arr.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in arr.flat))
        if not text:
            return arr.astype(float, copy=False)
    except (OverflowError, TypeError, ValueError) as exc:
        raise error(f"{name} must be real numbers within the double range: {exc}") from None
    raise error(f"{name} must be real numbers, not text")
