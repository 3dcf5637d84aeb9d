"""Verification oracles, imported by the tests as ``from oracles import
...``: a quadrature oracle for the shrinkage rule that shares no code with
the closed form, the slab density it integrates, the slab-only mean, the
closed form evaluated the slow way, unblocked and one detail level per
call, and the slow paths that faster code replaced: the transform steps
with np.roll, the MAD noise scale by np.median, and the bumps and blocks
test functions summed jump by jump."""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from epashrink import DomainError, InputError, MixturePriorParams, NumericError
from epashrink.dwt import _CHANNEL_OUTPUTS, _step_matrix
from epashrink.elicitation import (MAD_CONSISTENCY, beta_level, estimate_sigma,
                                   lambda_from_s)
from epashrink.errors import numeric_guard
from epashrink.shrinkage import (_SERIES_V, _TINY, _blockwise, _one_set, _rate,
                                 _rule_constants, _slab_integrals, _validated)
from epashrink.signals import (_BLOCK_HEIGHTS, _BUMP_HEIGHTS, _BUMP_WIDTHS, _JUMPS,
                               TestFunctionKind)
from epashrink.study import SIGMA_FLOOR, _clamped_alpha


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
    _one_set(params, "delta_slab")
    arr = _validated(d)
    with numeric_guard("slab posterior mean"):
        out = _blockwise(_slab_mean_block, arr, _rule_constants(0.0, params.beta, params.lam))
    return out if out.ndim else float(out)


def _slab_mean_block(d, k):
    dabs = np.abs(d)
    i1, i2 = _slab_integrals(dabs, np.minimum(dabs, k.beta), k)
    return np.sign(d) * i2 / np.maximum(i1, _TINY)


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


# ---------------------------------------------------------------------------
# the closed form the slow way: every constant recomputed per call, on
# temporaries the size of the input, and shrink_pyramid's mixture rule one
# detail level per call. The library evaluates the same expressions in the
# same order, so the two agree bit for bit.


def _slab_series(x, beta, v):
    s = x / beta
    s2 = s * s
    c = (
        4.0 / 3.0,
        0.5 + s2 * (1.0 - s2 / 6.0),
        4.0 / 15.0 + (4.0 / 3.0) * s2,
        1.0 / 6.0 + s2 * (1.5 + s2 * (0.5 - s2 / 30.0)),
        4.0 / 35.0 + s2 * (8.0 / 5.0 + (4.0 / 3.0) * s2),
        1.0 / 12.0 + s2 * (5.0 / 3.0 + s2 * (2.5 + s2 * (1.0 / 3.0 - s2 / 84.0))),
    )
    d = (
        0.0,
        s * (-0.5 + s2 * (1.0 / 3.0 - s2 / 10.0)),
        s * (-8.0 / 15.0),
        s * (-0.5 + s2 * (-0.5 + s2 * (0.1 - s2 / 70.0))),
        s * (-16.0 / 35.0 - (16.0 / 15.0) * s2),
        s * (-5.0 / 12.0 + s2 * (-5.0 / 3.0 + s2 * (-0.5 + s2 * (1.0 / 21.0 - s2 / 252.0)))),
    )
    i1 = i2 = 0.0
    term = 1.0
    for m in range(6):
        i1 = i1 + term * c[m]
        i2 = i2 + term * d[m]
        term *= -v / (m + 1)
    return np.power(beta, 3) * i1, np.power(beta, 4) * i2


def _direct_integrals(x, beta, lam, a):
    with np.errstate(over="ignore"):
        a2, a3, a4 = np.square(a), np.power(a, 3), np.power(a, 4)
    beta2 = np.square(beta)
    K = np.where(a2 < math.inf, 2.0 * beta2 / a2 + 6.0 * beta / a3 + 6.0 / a4,
                 beta2 / lam)
    ep = np.exp(-a * (beta + x))
    em = np.exp(-a * (beta - x))
    em_minus_ep = -em * np.expm1(-2.0 * a * x)
    x2 = np.square(x)
    two_over_a = 2.0 / a
    i1 = (beta + 1.0 / a) * (ep + em) / lam + two_over_a * (beta2 - x2 - 1.0 / lam)
    i2 = K * em_minus_ep + two_over_a * x * (beta2 - x2) - 12.0 * x / a3
    return i1, i2


def _slab_parts(dabs, beta, lam, a):
    x = np.minimum(dabs, beta)
    spike = np.exp(-a * x)
    v = a * beta
    series = v < _SERIES_V
    rows_in_series = np.count_nonzero(series)
    if rows_in_series == 0:
        return (*_direct_integrals(x, beta, lam, a), spike)
    if rows_in_series == np.size(series):
        return (*_slab_series(x, beta, v), spike)
    beta_s, beta_d = np.where(series, beta, 1.0), np.where(series, 1.0, beta)
    s1, s2 = _slab_series(np.minimum(dabs, beta_s), beta_s, np.where(series, v, _SERIES_V))
    d1, d2 = _direct_integrals(np.minimum(dabs, beta_d), beta_d,
                               np.where(series, 0.5 * _SERIES_V**2, lam),
                               np.where(series, _SERIES_V, a))
    return np.where(series, s1, d1), np.where(series, s2, d2), spike


def unblocked_esr(d, params: MixturePriorParams):
    """The mixture rule in one pass over the whole input. The fields of
    params may be columns that broadcast against d, one set per row."""
    arr = np.asarray(d, dtype=float)
    if not np.isfinite(arr).all():
        raise InputError("coefficient values must be finite")
    alpha, beta, lam = params.alpha, params.beta, params.lam
    with numeric_guard("mixture rule"):
        a = _rate(lam)
        dabs = np.abs(arr)
        i1, i2, spike = _slab_parts(dabs, beta, lam, a)
        slab_weight = (1.0 - alpha) * 3.0 * a / (8.0 * np.power(beta, 3))
        spike_weight = alpha * (0.5 * a)
        num = slab_weight * i2
        den = spike_weight * spike + slab_weight * i1
        ratio = num / np.maximum(den, _TINY)
        out = np.copysign(np.minimum(np.maximum(ratio, 0.0), dabs), arr)
    return out if out.ndim else float(out)


def per_level_esr_shrink(pyramid, cfg) -> None:
    """shrink_pyramid's mixture rule, in place, with one unblocked_esr call
    and one MixturePriorParams per detail level."""
    details = pyramid.details
    stacked = pyramid.coeffs.ndim == 2
    levels = [(_clamped_alpha(j, cfg), beta_level(block)) for j, block in details.items()]
    floor = SIGMA_FLOOR * np.max([beta for _, beta in levels], axis=0)
    sigma_hat = np.maximum(estimate_sigma(details[pyramid.depth - 1], cfg.sigma_estimator),
                           floor)
    if not stacked:
        sigma_hat = float(sigma_hat)

    def column(values):
        return values[:, None] if stacked else values

    sigma_col = column(sigma_hat)
    lam = lambda_from_s(sigma_hat, cfg.c, cfg.tau)
    unit_lam_col = column(lam * np.square(sigma_hat))
    with numeric_guard("shrinkage"):
        for (alpha, beta), block in zip(levels, details.values()):
            params = MixturePriorParams(alpha, column(beta) / sigma_col, unit_lam_col)
            np.multiply(sigma_col, unblocked_esr(block / sigma_col, params), out=block)


# ---------------------------------------------------------------------------
# the slow paths that faster library code replaced, bit for bit


def roll_analysis_step(a, lo, hi):
    """dwt._analysis_step with the next blocks' heads gathered by np.roll."""
    n = a.shape[-1]
    m = _step_matrix(lo, hi, n)
    if n <= 2 * _CHANNEL_OUTPUTS:
        out = (a[..., None, :] @ m)[..., 0, :]
        return out[..., :n // 2], out[..., n // 2:]
    lead = a.shape[:-1]
    blocks = a.reshape(*lead, n // (2 * _CHANNEL_OUTPUTS), 2 * _CHANNEL_OUTPUTS)
    out = blocks @ m[:2 * _CHANNEL_OUTPUTS]
    out += np.roll(blocks[..., :lo.size - 2], -1, axis=-2) @ m[2 * _CHANNEL_OUTPUTS:]
    return (out[..., :_CHANNEL_OUTPUTS].reshape(*lead, n // 2),
            out[..., _CHANNEL_OUTPUTS:].reshape(*lead, n // 2))


def roll_synthesis_step(approx, detail, lo, hi):
    """dwt._synthesis_step with the previous blocks' tails added by np.roll."""
    half = approx.shape[-1]
    m = _step_matrix(lo, hi, 2 * half)
    if half <= _CHANNEL_OUTPUTS:
        coeffs = np.concatenate([approx, detail], axis=-1)
        return (coeffs[..., None, :] @ m.T)[..., 0, :]
    lead = approx.shape[:-1]
    shape = (*lead, half // _CHANNEL_OUTPUTS, _CHANNEL_OUTPUTS)
    coeffs = np.concatenate([approx.reshape(shape), detail.reshape(shape)], axis=-1)
    out = coeffs @ m[:2 * _CHANNEL_OUTPUTS].T
    out[..., :lo.size - 2] += np.roll(coeffs @ m[2 * _CHANNEL_OUTPUTS:].T, 1, axis=-2)
    return out.reshape(*lead, 2 * half)


def median_mad_sigma(coeffs):
    """The MAD noise-scale estimate by np.median, one per row of a stack."""
    return np.median(np.abs(np.asarray(coeffs, dtype=float)), axis=-1) / MAD_CONSISTENCY


def looped_test_function(kind, x):
    """The bumps or blocks test function on the grid x, summed jump by jump
    into an array of zeros."""
    f = np.zeros_like(x)
    if TestFunctionKind(kind) is TestFunctionKind.BUMPS:
        for t0, h, w in zip(_JUMPS, _BUMP_HEIGHTS, _BUMP_WIDTHS):
            f += h / (1.0 + np.abs((x - t0) / w)) ** 4
    else:
        for t0, h in zip(_JUMPS, _BLOCK_HEIGHTS):
            f += h * (1.0 + np.sign(x - t0)) / 2.0
    return f
