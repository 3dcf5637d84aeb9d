"""Verification oracles for the shrinkage rule, imported by the tests as
``from oracles import ...``: a quadrature oracle that shares no code with
the closed form, the slab density it integrates, and the slab-only mean."""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from epashrink import DomainError, InputError, MixturePriorParams, NumericError
from epashrink.errors import numeric_guard
from epashrink.shrinkage import _TINY, _check_finite, _rate, _slab_parts


def epanechnikov_pdf(theta: float, beta: float) -> float:
    """Slab density 3/(4 beta^3) (beta^2 - theta^2) on (-beta, beta), at one
    theta: plain float arithmetic, since quad calls it once per node."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if abs(theta) >= beta:
        return 0.0
    return 3.0 / (4.0 * beta**3) * (beta**2 - theta**2)


def delta_slab(d, params: MixturePriorParams):
    """Posterior mean of theta given d under the slab alone: odd in d,
    strictly inside (-beta, beta) and constant past the support."""
    arr = np.asarray(d, dtype=float)
    _check_finite(arr)
    with numeric_guard("slab posterior mean"):
        i1, i2, _ = _slab_parts(np.abs(arr), params.beta, params.lam, _rate(params.lam))
        out = np.sign(arr) * i2 / np.maximum(i1, _TINY)
    return out if out.ndim else float(out)


_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def _quad_checked(func, lo, hi, breakpoints=(), what="integral"):
    """Adaptive quadrature with the kink locations handed to the subdivider."""
    pts = sorted(p for p in breakpoints if lo < p < hi) or None
    try:
        value, abserr = integrate.quad(func, lo, hi, points=pts, **_QUAD_KW)
    except Exception as exc:  # pragma: no cover - quadpack failure paths
        raise NumericError(f"quadrature failed for {what}: {exc}") from exc
    if not math.isfinite(value) or abserr > 1e-6 * max(1.0, abs(value)):
        raise NumericError(
            f"quadrature did not converge for {what}: value={value}, abserr={abserr}"
        )
    return value


def posterior_mean_oracle(d: float, params: MixturePriorParams) -> float:
    """Posterior mean by direct numerical integration.

    Integrates theta * g(theta) * L(d|theta) and g(theta) * L(d|theta)
    over the slab support, with g = epanechnikov_pdf and the integration
    split at the likelihood kink theta = d, then mixes in the spike mass
    at zero. Absolute accuracy is well below 1e-9 for the parameter ranges
    used in the test grids.
    """
    d = float(d)
    if not math.isfinite(d):
        raise InputError("d must be finite")
    alpha, beta, lam = params.alpha, params.beta, params.lam
    a = math.sqrt(2.0 * lam)

    def lik(theta):
        return 0.5 * a * np.exp(-a * abs(d - theta))

    num = _quad_checked(
        lambda t: t * epanechnikov_pdf(t, beta) * lik(t), -beta, beta, (d,),
        what=f"oracle numerator d={d}",
    )
    den_slab = _quad_checked(
        lambda t: epanechnikov_pdf(t, beta) * lik(t), -beta, beta, (d,),
        what=f"oracle denominator d={d}",
    )
    den = alpha * lik(0.0) + (1.0 - alpha) * den_slab
    if den <= 0.0:
        raise NumericError(f"oracle denominator non-positive at d={d}")
    return (1.0 - alpha) * num / den
