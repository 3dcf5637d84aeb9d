"""Exception hierarchy shared across the package.

The CLI maps each category to a distinct exit code, so library code should
raise the most specific class that applies.
"""

from contextlib import contextmanager

import numpy as np


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
