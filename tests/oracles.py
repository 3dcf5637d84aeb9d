"""Verification oracles, imported by the tests as ``from oracles import
...``: a quadrature oracle for the shrinkage rule that shares no code with
the closed form, the slab density it integrates, the slab-only mean, the
reference closed form in beta and lambda that the rule had before it was
put in the dimensionless u and b, the closed form in u and b evaluated the
slow way, unblocked and one detail level per call, and the slow paths
that faster code replaced: the transform steps with np.roll, the MAD noise
scale by np.median, the thresholds by np.where and np.sign, the bumps
and blocks test functions summed jump by jump, rule_statistics with its
set-up redone on every call, and the CLI's CSV writers one row at a
time."""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from epashrink import (DomainError, DoubleExponential, InputError, MixturePriorParams,
                       NumericError, RuleStatistics, esr)
from epashrink.dwt import _CHANNEL_OUTPUTS, _step_matrix
from epashrink.elicitation import (MAD_CONSISTENCY, beta_level, estimate_sigma,
                                   lambda_from_s)
from epashrink.errors import _real, numeric_guard
from epashrink.shrinkage import (_GROWTH, _SERIES_V, _TINY, _blockwise, _gauss_legendre,
                                 _log, _magnitude, _rate, _set_constants, _validated)
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
    strictly inside (-beta, beta) and constant past the support. The
    library's kernel with spike weight 0."""
    arr = _validated(d)
    with numeric_guard("slab posterior mean"):
        out = _blockwise(_slab_mean_block, arr, _set_constants(0.0, params))
    return out if out.ndim else float(out)


def _slab_mean_block(d, k, work, out):
    dabs = np.abs(d, out=work[0])
    np.multiply(np.sign(d), _magnitude(dabs, k, *work[1:]), out=out)


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
# the reference closed form: the slab integrals I1 and I2 in beta and
# lambda, with K = 2 beta^2/a^2 + 6 beta/a^3 + 6/a^4, as the library
# evaluated them before the rule was put in u and b. Its terms scale like
# powers of beta and 1/a, so it loses digits where they turn subnormal,
# as beta^2 / lambda does at small beta and huge lambda.


def _reference_series(x, beta, v):
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


def _reference_direct(x, beta, lam, a):
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


def _reference_parts(dabs, beta, lam, a):
    x = np.minimum(dabs, beta)
    spike = np.exp(-a * x)
    v = a * beta
    if v < _SERIES_V:
        return (*_reference_series(x, beta, v), spike)
    return (*_reference_direct(x, beta, lam, a), spike)


def reference_esr(d, params: MixturePriorParams):
    """The mixture rule by the reference closed form, in one pass."""
    arr = _validated(d)
    alpha, beta, lam = params.alpha, params.beta, params.lam
    with numeric_guard("mixture rule"):
        a = _rate(lam)
        dabs = np.abs(arr)
        i1, i2, spike = _reference_parts(dabs, beta, lam, a)
        slab_weight = (1.0 - alpha) * 3.0 * a / (8.0 * np.power(beta, 3))
        spike_weight = alpha * (0.5 * a)
        num = slab_weight * i2
        den = spike_weight * spike + slab_weight * i1
        ratio = num / np.maximum(den, _TINY)
        out = np.copysign(np.minimum(np.maximum(ratio, 0.0), dabs), arr)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the closed form in u and b the slow way: every constant recomputed per
# call, on temporaries the size of the input, both sides of the seam
# evaluated everywhere and picked by np.where, and shrink_pyramid's mixture
# rule one detail level per call. The library evaluates the same
# expressions in the same order, so the two agree bit for bit.


def _unblocked_rule(d, alpha, beta, r, ln):
    """The rule at d for a spike weight alpha (a number), and beta and
    r = sqrt(2 lam) that are numbers or columns, one set per row; ln is
    the logarithm the library takes of them (math.log for one set,
    np.log for arrays)."""
    dabs = np.abs(d)
    v = beta * r
    series = v < _SERIES_V
    b = np.where(series, 1.0, v)
    inv_b = 1.0 / b
    inv_b2 = inv_b * inv_b
    odds = alpha / (1.0 - alpha)
    u = np.minimum(dabs, beta) * r
    big_e = np.exp(u - b)
    w = (u - b) * -inv_b
    g = (2.0 - w) * w
    em = np.expm1(u * -2.0) * big_e
    n = (g - 6.0 * inv_b2) * u - em * (1.0 + 3.0 * inv_b + 3.0 * inv_b2)
    den = ((g - 2.0 * inv_b2) + (big_e + big_e + em) * (inv_b * (1.0 + inv_b))
           + np.exp(ln((2.0 / 3.0) * odds * b) - u))
    direct = n / den / r
    # the series, with v = 0.05 standing in on the direct side; at beta =
    # 1 the reference series integrals are the polynomials P1 and P2
    x = np.minimum(dabs, beta)
    p1, p2 = _reference_series(x / beta, 1.0, np.where(series, v, _SERIES_V))
    by_series = beta * p2 / (p1 + (4.0 / 3.0) * odds * np.exp(-(x * r)))
    mag = np.maximum(np.where(series, by_series, direct), 0.0)
    return np.copysign(np.minimum(mag, dabs), d)


def unblocked_esr(d, params: MixturePriorParams):
    """The mixture rule for one parameter set in one pass over the whole
    input."""
    arr = _validated(d)
    with numeric_guard("mixture rule"):
        out = _unblocked_rule(arr, float(params.alpha), float(params.beta),
                              float(_rate(params.lam)), _log)
    return out if out.ndim else float(out)


def per_level_esr_shrink(pyramid, cfg) -> None:
    """shrink_pyramid's mixture rule, in place, with one _unblocked_rule
    call per detail level over all rows, each row's rate and slab
    support a column."""
    rows = pyramid.coeffs.reshape(-1, pyramid.n)
    levels = [(j, _clamped_alpha(j, cfg), beta_level(rows[:, 2**j:2**(j + 1)]))
              for j in pyramid.levels()]
    floor = SIGMA_FLOOR * np.max([beta for *_, beta in levels], axis=0)
    sigma_hat = np.maximum(estimate_sigma(rows[:, pyramid.n // 2:], cfg.sigma_estimator),
                           floor)
    lam = lambda_from_s(sigma_hat, cfg.c, cfg.tau)
    rate = (_rate(lam * np.square(sigma_hat)) / sigma_hat)[:, None]
    with numeric_guard("shrinkage"):
        for j, alpha, beta in levels:
            block = rows[:, 2**j:2**(j + 1)]
            block[...] = _unblocked_rule(block, alpha, beta[:, None], rate, np.log)


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


def where_hard_threshold(d, eta):
    """hard_threshold by np.where over |d|, into a new array."""
    d = np.asarray(d, dtype=float)
    return np.where(np.abs(d) > eta, d, 0.0)


def sign_soft_threshold(d, eta):
    """soft_threshold as max(|d| - eta, 0) times np.sign(d), into a new
    array."""
    d = np.asarray(d, dtype=float)
    return np.maximum(np.abs(d) - eta, 0.0) * np.sign(d)


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


def masked_graded_panels(points: list, h: float) -> np.ndarray:
    """shrinkage._graded_panels with its offsets made afresh on every call
    and cut to each interval by a boolean mask."""
    pts = np.asarray(points, dtype=float)
    half = 0.5 * np.diff(pts)
    q = _GROWTH - 1.0
    k = np.arange(math.ceil(math.log1p(q * half.max() / h) / math.log(_GROWTH)) + 1)
    offsets = h * np.expm1(k * math.log(_GROWTH)) / q
    edges = [pts]
    for lo, hi, m in zip(pts[:-1], pts[1:], half):
        inner = offsets[offsets < m]
        edges += [lo + inner, hi - inner, [lo + m]]
    return np.unique(np.concatenate(edges))


def per_call_rule_statistics(theta, params: MixturePriorParams, noise=None) -> RuleStatistics:
    """rule_statistics with the noise model's reach, the length scale and
    the panel offsets made on every call, and the rule through the public
    esr, its nodes with the plateau node beta appended."""
    theta = _real("theta", theta, "must be finite", math.isfinite, InputError)
    if noise is None:
        noise = DoubleExponential(params.lam)
    beta = params.beta
    with numeric_guard(f"rule statistics at theta={theta}"):
        reach = noise.reach * noise.scale
        lo, hi = max(-beta - theta, -reach), min(beta - theta, reach)
        u = w = np.zeros(0)
        if lo < hi:
            points = sorted({lo, hi} | {p for p in (-theta, 0.0) if lo < p < hi})
            edges = masked_graded_panels(points, min(noise.scale, params.noise_scale))
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * np.diff(edges)
            nodes, weights = _gauss_legendre()
            u = (mid[:, None] + half[:, None] * nodes).ravel()
            w = (half[:, None] * weights).ravel() * noise.pdf(u, 0.0)
        r = esr(np.append(theta + u, beta), params)
        r, plateau = r[:-1], float(r[-1])
        p_hi = noise.sf(beta, theta)
        p_lo = 1.0 - noise.sf(-beta, theta)
        mean = float(w @ r) + plateau * (p_hi - p_lo)
        variance = (float(w @ (r - mean) ** 2) + (plateau - mean) ** 2 * p_hi
                    + (plateau + mean) ** 2 * p_lo)
        risk = (float(w @ (r - theta) ** 2) + (plateau - theta) ** 2 * p_hi
                + (plateau + theta) ** 2 * p_lo)
        bias_sq = (mean - theta) ** 2
    return RuleStatistics(bias_sq=bias_sq, variance=variance, risk=risk)


def per_row_write_signal_csv(path, samples, truth=None):
    """cli.write_signal_csv one write per row, each sample a numpy
    scalar formatted with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        if truth is None:
            fh.write("y\n")
            for v in samples:
                fh.write("%.17g" % v + "\n")
        else:
            fh.write("y,f\n")
            for v, t in zip(samples, truth):
                fh.write("%.17g" % v + "," + "%.17g" % t + "\n")


def per_row_write_table_csv(path, header, rows):
    """cli.write_table_csv one write per row, each field a float written
    with 17 significant digits or else as its text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")
