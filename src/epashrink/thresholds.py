"""Classical keep-or-kill and shrink-by-eta thresholding baselines.

A threshold is a number, or an array that broadcasts against the
coefficients, such as a column with one threshold per row of a stack.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

__all__ = ["hard_threshold", "soft_threshold", "universal_threshold"]


def _check_eta(eta):
    eta = np.asarray(eta, dtype=float)
    if not np.all(eta >= 0.0):
        raise DomainError(f"threshold must be >= 0, got {eta}")
    return eta if eta.ndim else float(eta)


def hard_threshold(d, eta: float):
    """Zero out coefficients with |d| <= eta, pass the rest unchanged."""
    eta = _check_eta(eta)
    d = np.asarray(d, dtype=float)
    out = np.where(np.abs(d) > eta, d, 0.0)
    return out if out.ndim else float(out)


def soft_threshold(d, eta: float):
    """Shrink magnitudes by eta, clipping at zero; continuous in d."""
    eta = _check_eta(eta)
    d = np.asarray(d, dtype=float)
    out = np.maximum(np.abs(d) - eta, 0.0)
    # in place: on a whole detail span, one full-size temporary fewer keeps
    # the allocator from handing the memory back and faulting it in again
    out *= np.sign(d)
    return out if out.ndim else float(out)


def universal_threshold(sigma_hat, n):
    """Universal threshold sigma_hat * sqrt(2 ln n) for n >= 2 samples.

    sigma_hat is a number, or an array of them (one threshold each).
    Raises NumericError if the product overflows.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if not np.all(sigma_hat > 0.0):
        raise DomainError(f"sigma_hat must be positive, got {sigma_hat}")
    if not n >= 2:
        raise DomainError(f"need n >= 2 samples, got {n}")
    with np.errstate(over="ignore"):
        eta = sigma_hat * math.sqrt(2.0 * math.log(n))
    if not np.isfinite(eta).all():
        raise NumericError(f"universal threshold overflows: sigma_hat={sigma_hat}, n={n}")
    return eta if eta.ndim else float(eta)
