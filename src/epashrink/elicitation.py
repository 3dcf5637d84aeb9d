"""Data-driven selection of the prior hyperparameters.

The spike weight grows with the resolution level, the slab support is the
coefficient range of the level, and the variance-prior rate is a fixed
empirical function of the noise-scale estimate taken from the finest level.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, _floats, _member, _scale, _whole
from .signals import scaled_std

BETA_FLOOR = 1e-8
MAD_CONSISTENCY = 0.6745  # median(|Z|) for Z ~ N(0, 1)

__all__ = [
    "SigmaEstimator",
    "ElicitationConfig",
    "alpha_level",
    "beta_level",
    "estimate_sigma",
    "lambda_from_s",
]


class SigmaEstimator(str, enum.Enum):
    SAMPLE_SD = "sd"
    MAD = "mad"


@dataclass(frozen=True)
class ElicitationConfig:
    """Knobs of the hyperparameter selection.

    Defaults are the no-prior-information choices; the benchmark preset in
    :mod:`epashrink.study` overrides gamma, l and the sigma estimator.
    Each field is checked when the config is built, a bad one raising
    DomainError, and stored as a Python float, int or SigmaEstimator, so a
    numpy scalar works as the equal Python number does.
    """

    gamma: float = 2.4
    l: float = 2.0
    c: float = 1.0
    tau: float = 2.0
    sigma_estimator: SigmaEstimator = SigmaEstimator.MAD
    coarse_level: int = 0

    def __post_init__(self):
        for name in ("gamma", "l", "c", "tau"):
            object.__setattr__(self, name, _scale(name, getattr(self, name), DomainError))
        object.__setattr__(self, "coarse_level",
                           _whole("coarse_level", self.coarse_level, DomainError))
        object.__setattr__(self, "sigma_estimator", _member(
            SigmaEstimator, "sigma_estimator", self.sigma_estimator, DomainError))
        if self.coarse_level < 0:
            raise DomainError(f"coarse_level must be >= 0, got {self.coarse_level}")


def alpha_level(j: int, coarse_level: int, gamma: float, l: float) -> float:
    """Level-dependent spike weight 1 - (j - J0 + l)^(-gamma).

    Increasing in j: finer levels are shrunk more aggressively. Requires
    j - J0 + l > 1 so the weight is strictly positive, and j, J0, gamma
    and l within the double range; DomainError otherwise.
    """
    if j < coarse_level:
        raise DomainError(f"level {j} below coarse level {coarse_level}")
    try:
        base = j - coarse_level + l
        if base <= 1.0:
            raise DomainError(
                f"j - J0 + l = {base} must exceed 1 for a positive spike weight"
            )
        return 1.0 - base ** (-gamma)
    except (OverflowError, TypeError):
        raise DomainError("j, J0, gamma and l must be real numbers within the double range, "
                          f"got {j!r}, {coarse_level!r}, {gamma!r} and {l!r}") from None


def beta_level(details_j):
    """Slab half-support for one level: the largest absolute coefficient.

    An all-zero block would give a degenerate slab, so its value is
    BETA_FLOOR (the rule then maps everything to ~0, the correct limit),
    with no other trace. A stack of blocks, shape (..., m), gets one value
    per block.
    """
    block = np.atleast_1d(np.asarray(details_j, dtype=float))
    if block.shape[-1] == 0:
        raise InputError("empty coefficient block")
    # the larger of the two extremes: no temporary the size of the block
    beta = np.maximum(block.max(axis=-1), -block.min(axis=-1))
    beta = np.where(beta == 0.0, BETA_FLOOR, beta)
    return beta if beta.ndim else float(beta)


def estimate_sigma(finest_details, method: SigmaEstimator = SigmaEstimator.MAD):
    """Noise-scale estimate from the finest-level detail coefficients.

    SAMPLE_SD is the usual (n-1)-denominator standard deviation, finite at
    any scale (see scaled_std); MAD is the median absolute coefficient
    divided by 0.6745, robust to the sparse signal content of the finest
    level. A stack of blocks, shape (..., m), gets one estimate per block.
    """
    coeffs = np.asarray(finest_details, dtype=float)
    if coeffs.ndim < 1 or coeffs.shape[-1] < 2:
        raise InputError("need at least 2 coefficients to estimate sigma")
    method = SigmaEstimator(method)
    if method is SigmaEstimator.SAMPLE_SD:
        return scaled_std(coeffs, ddof=1, axis=-1)
    # np.median bit for bit, but partitioned at one pivot h, not two or
    # three: the lower middle is the largest entry below h; a nan sorts last
    a = np.abs(coeffs)
    m = a.shape[-1]
    h = m // 2
    a.partition(h, axis=-1)
    median = a[..., h] if m % 2 else (a[..., :h].max(axis=-1) + a[..., h]) / 2
    median = np.where(np.isnan(a[..., h:].max(axis=-1)), np.nan, median)
    sigma = median / MAD_CONSISTENCY
    return sigma if sigma.ndim else float(sigma)


def lambda_from_s(s, c: float = 1.0, tau: float = 2.0):
    """Variance-prior rate as a function of the noise-scale estimate s.

    lambda(s) = 1/s^2 + (c/tau) exp(-s/tau): behaves like 1/s^2 for small s
    and decays exponentially for large s; strictly decreasing for c > 0.
    s is a number or an array, and the result has its shape. A
    nonpositive s, c or tau, or one past the double range, is a
    DomainError.
    """
    s = _floats("s", s, DomainError)
    if not np.all(s > 0.0):
        raise DomainError(f"s must be positive, got {s}")
    try:
        c, tau = float(c), float(tau)
    except (OverflowError, TypeError, ValueError):
        raise DomainError("c and tau must be real numbers within the double range, "
                          f"got {c!r} and {tau!r}") from None
    if not (c > 0.0 and tau > 0.0):
        raise DomainError("c and tau must be positive")
    lam = 1.0 / np.square(s) + (c / tau) * np.exp(-s / tau)
    return lam if lam.ndim else float(lam)
