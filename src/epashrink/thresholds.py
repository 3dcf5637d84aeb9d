"""Classical keep-or-kill and shrink-by-eta thresholding baselines."""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

__all__ = ["hard_threshold", "soft_threshold", "universal_threshold"]


def _check_eta(eta: float) -> float:
    if not eta >= 0.0:
        raise DomainError(f"threshold must be >= 0, got {eta}")
    return float(eta)


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
    out = np.sign(d) * np.maximum(np.abs(d) - eta, 0.0)
    return out if out.ndim else float(out)


def universal_threshold(sigma_hat: float, n) -> float:
    """Universal threshold sigma_hat * sqrt(2 ln n) for n >= 2 samples.

    Raises NumericError if the product overflows.
    """
    if not sigma_hat > 0.0:
        raise DomainError(f"sigma_hat must be positive, got {sigma_hat}")
    if not n >= 2:
        raise DomainError(f"need n >= 2 samples, got {n}")
    eta = float(sigma_hat) * math.sqrt(2.0 * math.log(n))
    if not math.isfinite(eta):
        raise NumericError(f"universal threshold overflows: sigma_hat={sigma_hat}, n={n}")
    return eta
