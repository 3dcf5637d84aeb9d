"""Classical keep-or-kill and shrink-by-eta thresholding baselines.

A threshold is a number, or an array that broadcasts against the
coefficients, such as a column with one threshold per row of a stack. A
threshold below 0, given as text or past the double range is a
DomainError.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError, _floats

__all__ = ["hard_threshold", "soft_threshold", "universal_threshold"]


def _check_eta(eta):
    """eta as a float array (a number for a number); DomainError unless it
    holds numbers, not text, that are >= 0 and within the double range."""
    eta = _floats("threshold", eta, DomainError)
    if not np.all(eta >= 0.0):
        raise DomainError(f"threshold must be >= 0, got {eta}")
    return eta if eta.ndim else float(eta)


def _result(d, eta, out):
    """out, or a fresh array of the shape of d broadcast against eta."""
    if out is None:
        return np.empty(np.broadcast_shapes(d.shape, np.shape(eta)))
    return out


def hard_threshold(d, eta: float, *, out=None):
    """Zero out coefficients with |d| <= eta, pass the rest unchanged.

    As in numpy's ufuncs, ``out`` is a float64 array to write the result
    into, of the shape of d broadcast against eta; it may be d itself. The
    result is returned: out if given, else a new array, or a number for a
    number. A killed coefficient becomes +0.0, and so does a nan.
    """
    eta = _check_eta(eta)
    d = np.asarray(d, dtype=float)
    # all bits set where |d| > eta, none elsewhere; taken before out, which
    # may be d, is written, and without a temporary of |d|
    keep = np.asarray(np.greater(d, eta))  # an array even for a number
    keep |= np.less(d, -eta)
    bits = keep.view(np.int8)
    np.negative(bits, out=bits)
    result = _result(d, eta, out)
    if result is not d:
        np.copyto(result, d)
    # the bits of d where kept and of +0.0 elsewhere: a mask, not a branch
    # per coefficient, and it cannot turn an infinity into a nan
    np.bitwise_and(result.view(np.int64), bits, out=result.view(np.int64))
    return result if out is not None or result.ndim else float(result)


def soft_threshold(d, eta: float, *, out=None):
    """Shrink magnitudes by eta, clipping at zero; continuous in d.

    ``out`` is as for :func:`hard_threshold`. The result is
    max(|d| - eta, 0) with the sign of a negative d: a negative d shrunk
    to zero gives -0.0, and a d of -0.0 gives +0.0.
    """
    eta = _check_eta(eta)
    d = np.asarray(d, dtype=float)
    # -1 where d < 0 and +1 elsewhere, one byte per coefficient, taken
    # before out, which may be d, is written
    signs = np.asarray(np.less(d, 0.0)).view(np.int8)
    signs *= -2
    signs += 1
    # in place in the result: a temporary of the coefficients' size is, on
    # a study chunk, memory the allocator hands back after each call and
    # faults in again
    result = np.abs(d, out=_result(d, eta, out))
    result -= eta
    np.maximum(result, 0.0, out=result)
    result *= signs  # an exact negation or nothing
    return result if out is not None or result.ndim else float(result)


def universal_threshold(sigma_hat, n):
    """Universal threshold sigma_hat * sqrt(2 ln n) for n >= 2 samples.

    sigma_hat is a number, or an array of them (one threshold each).
    Raises NumericError if the product overflows.
    """
    sigma_hat = _floats("sigma_hat", sigma_hat, DomainError)
    if not np.all(sigma_hat > 0.0):
        raise DomainError(f"sigma_hat must be positive, got {sigma_hat}")
    if not n >= 2:
        raise DomainError(f"need n >= 2 samples, got {n}")
    with np.errstate(over="ignore"):
        eta = sigma_hat * math.sqrt(2.0 * math.log(n))
    if not np.isfinite(eta).all():
        raise NumericError(f"universal threshold overflows: sigma_hat={sigma_hat}, n={n}")
    return eta if eta.ndim else float(eta)
