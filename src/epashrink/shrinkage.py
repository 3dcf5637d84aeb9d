"""Spike-and-slab shrinkage rule with an Epanechnikov slab.

The prior on a wavelet coefficient theta is a two-part mixture: a point
mass at zero with weight alpha, and the compactly supported parabola
g(theta) = 3/(4 beta^3) (beta^2 - theta^2) on (-beta, beta). Putting an
exponential prior with rate lam on the noise variance and integrating it
out turns the Gaussian observation model into a double-exponential
likelihood with scale 1/sqrt(2 lam); the posterior mean of theta is then
available in closed form.

The closed-form slab integrals come from splitting the likelihood kernel
exp(-a|d - theta|) at its kink. That split sits inside the integration
range only while |d| <= beta, so the formulas are genuinely piecewise:

For |d| <= beta, with a = sqrt(2 lam), E+- = exp(-a (beta -+ |d|)):

    I1 = (beta + 1/a)(E+ + E-)/lam + (2/a)(beta^2 - d^2 - 1/lam)
    I2 = K (E- - E+) + (2/a)|d|(beta^2 - d^2) - 12|d|/a^3,
    K  = 2 beta^2/a^2 + 6 beta/a^3 + 6/a^4

Past the support the kernel has no kink inside the integration range and
the exact integrals -- and the spike likelihood -- all decay by the common
factor exp(-a(|d| - beta)), which cancels in the posterior-mean ratios.
The rule is therefore constant for |d| >= beta (the posterior itself no
longer depends on d there), and the code evaluates everything at
min(|d|, beta), so no exponential argument is ever positive and the rule
stays finite for arbitrarily large coefficients. Every quantity is
antisymmetrized explicitly (computed at |d|, sign restored), so odd
symmetry holds exactly in floating point.

An independent quadrature oracle (direct adaptive integration of the
posterior-mean ratio) is provided for verification and never shares code
with the closed form; it imports scipy.integrate on its first call, so
importing the module loads no scipy at all.

The rule's frequentist properties (squared bias, variance, risk under a
double-exponential or Gaussian noise model) are exact plateau tail terms
plus a composite fixed-order Gauss-Legendre sum over (-beta, beta), split
at the breakpoints {-beta, 0, theta, beta} where the integrands have
kinks; see rule_statistics.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InputError, NumericError, numeric_guard

log = logging.getLogger(__name__)

__all__ = [
    "MixturePriorParams",
    "DoubleExponential",
    "Gaussian",
    "RuleStatistics",
    "epanechnikov_pdf",
    "double_exp_pdf",
    "marginal_m",
    "delta_slab",
    "esr",
    "posterior_mean_oracle",
    "rule_statistics",
]


# 2 lam overflows above this; sqrt(2) sqrt(lam) stays finite there
_HALF_MAX = 0.5 * np.finfo(float).max


def _rate(lam: float) -> float:
    """a = sqrt(2 lam), the rate of the double-exponential kernel; finite
    for every finite lam."""
    return math.sqrt(2.0 * lam) if lam <= _HALF_MAX else math.sqrt(2.0) * math.sqrt(lam)


@dataclass(frozen=True)
class MixturePriorParams:
    """Hyperparameters of the mixture prior.

    alpha: spike weight in (0, 1); beta: slab half-support; lam: rate of
    the exponential prior on the noise variance.
    """

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.beta > 0.0:
            raise DomainError(f"beta must be positive, got {self.beta}")
        if not self.lam > 0.0:
            raise DomainError(f"lambda must be positive, got {self.lam}")

    @property
    def noise_scale(self) -> float:
        """Scale 1/sqrt(2 lam) of the marginalized likelihood."""
        return 1.0 / _rate(self.lam)


def epanechnikov_pdf(theta, beta: float):
    """Slab density 3/(4 beta^3) (beta^2 - theta^2) on (-beta, beta)."""
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    theta = np.asarray(theta, dtype=float)
    out = np.where(
        np.abs(theta) < beta, 3.0 / (4.0 * beta**3) * (beta**2 - theta**2), 0.0
    )
    return out if out.ndim else float(out)


def double_exp_pdf(d, theta, lam: float):
    """Double-exponential density of d with mean theta, scale 1/sqrt(2 lam)."""
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    a = _rate(lam)
    d = np.asarray(d, dtype=float)
    out = 0.5 * a * np.exp(-a * np.abs(d - theta))
    return out if out.ndim else float(out)


def _check_finite(d: np.ndarray) -> None:
    if not np.isfinite(d).all():
        raise InputError("coefficient values must be finite")


# below this value of v = a*beta the direct exponential forms lose too many
# digits to cancellation (the worst term pair cancels like v^4) and a fifth
# order expansion of the kernel exp(-v|s-t|) takes over; both sides of the
# seam are accurate to ~1e-9 relative there
_SERIES_V = 0.05


def _slab_series(s: np.ndarray, v: float):
    """Fifth-order expansion of the scale-free slab integrals in v = a*beta.

    Returns I1/beta^3 and I2/beta^4 as polynomials in v whose coefficients
    are the moments of (1 - t^2) and t(1 - t^2) against |s - t|^m over
    (-1, 1); relative truncation error is O(v^6).
    """
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
    return i1, i2


def _power(x: float, k: int) -> float:
    """x**k in Python floats, inf where it overflows.

    Only powers of a = sqrt(2 lam) go through here: each ends up in a
    denominator, so an overflow (lam above about 1e154) makes its
    quotient the 0 it all but is, next to the leading terms.
    """
    try:
        return x**k
    except OverflowError:
        return math.inf


class _RuleConstants(NamedTuple):
    """The scalar constants of the closed forms for one parameter set.

    Each is computed from Python floats in the order of the formulas, so
    a parameter set gives the same bits whether it stands alone or as one
    row of a batch. In a batch every field is a column with one entry per
    row (see _rule_constants).
    """

    beta: float
    lam: float
    a: float
    v: float
    series: bool
    beta2: float
    beta3: float
    beta4: float
    a3: float
    K: float
    beta_plus: float  # beta + 1/a
    two_over_a: float
    inv_lam: float
    slab_weight: float
    spike_weight: float

    @classmethod
    def of(cls, params: MixturePriorParams) -> "_RuleConstants":
        alpha, beta, lam = params.alpha, params.beta, params.lam
        a = _rate(lam)
        v = a * beta
        a2, a3, a4 = _power(a, 2), _power(a, 3), _power(a, 4)
        if a2 < math.inf:
            K = 2.0 * beta**2 / a2 + 6.0 * beta / a3 + 6.0 / a4
        else:  # a**2 = 2 lam overflows; K is its leading term beta^2 / lam
            K = beta**2 / lam
        return cls(
            beta, lam, a, v, v < _SERIES_V, beta**2, beta**3, beta**4, a3, K,
            beta + 1.0 / a,
            2.0 / a,
            1.0 / lam,
            (1.0 - alpha) * 3.0 * a / (8.0 * beta**3),  # slab_weight
            alpha * (0.5 * a),  # spike_weight
        )

    def rows(self, mask: np.ndarray) -> "_RuleConstants":
        """The columns cut to the rows where mask is true."""
        return _RuleConstants(*(field[mask] for field in self))


def _rule_constants(params, d: np.ndarray) -> _RuleConstants:
    """Constants for one parameter set, or columns for one set per row.

    With a sequence of parameter sets, set r applies to d[r], so d needs
    one row per set; each field becomes an array of shape (R, 1, ...)
    that broadcasts against d.
    """
    if isinstance(params, MixturePriorParams):
        return _RuleConstants.of(params)
    rows = [_RuleConstants.of(p) for p in params]
    if d.ndim < 1 or len(rows) != d.shape[0]:
        raise InputError(f"{len(rows)} parameter sets for coefficients of shape "
                         f"{d.shape}; esr needs one per row")
    # one (R, fields) array read field by field; the bool field comes back
    # as 0.0 or 1.0
    fields = len(_RuleConstants._fields)
    table = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * fields)
    k = _RuleConstants(*table.reshape((len(rows), fields)).T.reshape(
        (fields, len(rows)) + (1,) * (d.ndim - 1)))
    return k._replace(series=k.series != 0.0)


def _slab_parts(dabs: np.ndarray, k: _RuleConstants):
    """Slab integrals I1, I2 and the spike likelihood kernel at |d|.

    Past the support the exact integrals (and the spike likelihood) all
    decay by the common factor exp(-a(|d| - beta)), which cancels in the
    posterior-mean ratios; the values are therefore computed at
    min(|d|, beta) in that shared frame, so every exponential argument is
    nonpositive regardless of how large |d| gets. With per-row constants
    the series seam is chosen row by row.
    """
    series = k.series
    if not isinstance(series, bool):  # one flag per row
        if series.all() or not series.any():
            series = bool(series.all())
        else:  # rows on both sides of the seam: each side on its own rows
            rows = series.reshape(-1)
            parts = [np.empty(dabs.shape) for _ in range(3)]
            for side in (rows, ~rows):
                for whole, part in zip(parts, _slab_parts(dabs[side], k.rows(side))):
                    whole[side] = part
            return tuple(parts)
    x = np.minimum(dabs, k.beta)
    if series:
        i1, i2 = _slab_series(x / k.beta, k.v)
        i1 = k.beta3 * i1
        i2 = k.beta4 * i2
    else:
        a = k.a
        ep = np.exp(-a * (k.beta + x))
        em = np.exp(-a * (k.beta - x))
        # em - ep evaluated as -em*expm1(-2ax): the direct difference
        # underflows to 0 for a|d| below the rounding scale of exp(-a beta)
        em_minus_ep = -em * np.expm1(-2.0 * a * x)
        i1 = k.beta_plus * (ep + em) / k.lam + k.two_over_a * (
            k.beta2 - x**2 - k.inv_lam
        )
        i2 = k.K * em_minus_ep + k.two_over_a * x * (k.beta2 - x**2) - 12.0 * x / k.a3
    spike = np.exp(-k.a * x)
    return i1, i2, spike


def marginal_m(d, params: MixturePriorParams):
    """Marginal density of d under the slab alone (no spike weight applied).

    Strictly positive on the whole line and integrates to one. If rounding
    drives a value to zero or below, it is clamped to the smallest positive
    normal with a logged diagnostic.
    """
    arr = np.asarray(d, dtype=float)
    _check_finite(arr)
    k = _RuleConstants.of(params)
    dabs = np.abs(arr)
    i1, _, _ = _slab_parts(dabs, k)
    # undo the exterior rescale: true I1 decays like exp(-a(|d| - beta))
    decay = np.exp(-k.a * np.maximum(dabs - k.beta, 0.0))
    out = (3.0 * k.a / (8.0 * k.beta3)) * i1 * decay
    bad = out <= 0.0
    if np.any(bad):
        log.warning(
            "marginal density rounded to <= 0 at %d point(s); clamping to tiny",
            int(np.count_nonzero(bad)),
        )
        out = np.where(bad, np.finfo(float).tiny, out)
    return out if out.ndim else float(out)


def delta_slab(d, params: MixturePriorParams):
    """Posterior mean of theta given d under the slab alone.

    Antisymmetric in d and bounded strictly inside (-beta, beta); constant
    past the support since the posterior no longer depends on d there.
    """
    arr = np.asarray(d, dtype=float)
    _check_finite(arr)
    i1, i2, _ = _slab_parts(np.abs(arr), _RuleConstants.of(params))
    out = np.sign(arr) * i2 / np.maximum(i1, np.finfo(float).tiny)
    return out if out.ndim else float(out)


_TINY = np.finfo(float).tiny


def esr(d, params):
    """Posterior-mean shrinkage rule under the full spike-and-slab mixture.

    Accepts a scalar or an array of empirical coefficients. ``params`` is
    one MixturePriorParams, or a sequence of them with one per row of d
    (its leading axis): row r is then shrunk with params[r], bit for bit
    as a call on that row alone would. Odd in d, no larger than |d| and
    bounded by the slab-only mean, hence strictly inside (-beta, beta).
    Finite for every finite lambda.
    """
    arr = np.asarray(d, dtype=float)
    _check_finite(arr)
    k = _rule_constants(params, arr)
    dabs = np.abs(arr)
    i1, i2, spike = _slab_parts(dabs, k)
    num = k.slab_weight * i2
    den = k.spike_weight * spike + k.slab_weight * i1
    ratio = num / np.maximum(den, _TINY)
    # the shrunk magnitude lies in [0, |d|]; at subnormal |d| the closed
    # forms round outside that range
    out = np.copysign(np.minimum(np.maximum(ratio, 0.0), dabs), arr)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# quadrature oracle

_QUAD_KW = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def _quad_checked(func, lo, hi, breakpoints=(), what="integral"):
    """Adaptive quadrature with the kink locations handed to the subdivider.

    scipy.integrate is imported on first use, so importing the package does
    not pay for it.
    """
    from scipy import integrate

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
    """Posterior mean by direct numerical integration; verification oracle.

    Integrates theta * g(theta) * L(d|theta) and g(theta) * L(d|theta)
    over the slab support with the integration split at the likelihood kink
    theta = d, then mixes in the spike mass at zero. Absolute accuracy is
    well below 1e-9 for the parameter ranges used in the test grids.
    """
    d = float(d)
    if not math.isfinite(d):
        raise InputError("d must be finite")
    alpha, beta, lam = params.alpha, params.beta, params.lam
    a = math.sqrt(2.0 * lam)

    def lik(theta):
        return 0.5 * a * np.exp(-a * abs(d - theta))

    def slab(theta):
        return 3.0 / (4.0 * beta**3) * (beta**2 - theta**2)

    num = _quad_checked(
        lambda t: t * slab(t) * lik(t), -beta, beta, (d,), what=f"oracle numerator d={d}"
    )
    den_slab = _quad_checked(
        lambda t: slab(t) * lik(t), -beta, beta, (d,), what=f"oracle denominator d={d}"
    )
    den = alpha * lik(0.0) + (1.0 - alpha) * den_slab
    if den <= 0.0:
        raise NumericError(f"oracle denominator non-positive at d={d}")
    return (1.0 - alpha) * num / den


# ---------------------------------------------------------------------------
# frequentist properties of the rule

@dataclass(frozen=True)
class DoubleExponential:
    """Noise model d | theta ~ double exponential with scale 1/sqrt(2 lam)."""

    lam: float
    # farther than this many scales from theta the density has mass e^-80
    reach = 80.0

    def __post_init__(self):
        if not self.lam > 0.0:
            raise DomainError(f"lambda must be positive, got {self.lam}")

    @property
    def scale(self) -> float:
        return 1.0 / _rate(self.lam)

    def pdf(self, d, theta: float):
        return double_exp_pdf(d, theta, self.lam)

    def sf(self, x: float, theta: float) -> float:
        """P(d > x | theta)."""
        a = _rate(self.lam)
        if x >= theta:
            return 0.5 * math.exp(-a * (x - theta))
        return 1.0 - 0.5 * math.exp(-a * (theta - x))


@dataclass(frozen=True)
class Gaussian:
    """Noise model d | theta ~ N(theta, sigma^2)."""

    sigma: float
    # farther than this many sigmas from theta the density has mass 1.2e-38
    reach = 13.0

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    @property
    def scale(self) -> float:
        return self.sigma

    def pdf(self, d, theta: float):
        z = (np.asarray(d, dtype=float) - theta) / self.sigma
        # far out z*z overflows to inf, and exp(-inf) is the exact 0
        with np.errstate(over="ignore"):
            out = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def sf(self, x: float, theta: float) -> float:
        """P(d > x | theta)."""
        return 0.5 * math.erfc((x - theta) / (self.sigma * math.sqrt(2.0)))


@dataclass(frozen=True)
class RuleStatistics:
    bias_sq: float
    variance: float
    risk: float


# rule_statistics sums a 24-point Gauss-Legendre rule over panels whose
# widths grow by this factor per panel away from each breakpoint
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GROWTH = 1.0625


def _graded_panels(points: list, h: float) -> np.ndarray:
    """Panel edges covering [points[0], points[-1]].

    Each interval between consecutive breakpoints is filled from both ends
    with panels of widths h, h*g, h*g^2, ... (g = _GROWTH) that meet in its
    middle, so an interval of length L takes about 2 log(L/h) / log(g)
    panels, however small h is.
    """
    pts = np.asarray(points, dtype=float)
    half = 0.5 * np.diff(pts)
    # distance of the k-th edge from an interval end: h (g^k - 1) / (g - 1)
    q = _GROWTH - 1.0
    k = np.arange(math.ceil(math.log1p(q * half.max() / h) / math.log(_GROWTH)) + 1)
    offsets = h * np.expm1(k * math.log(_GROWTH)) / q
    edges = [pts]
    for lo, hi, m in zip(pts[:-1], pts[1:], half):
        inner = offsets[offsets < m]
        edges += [lo + inner, hi - inner, [lo + m]]
    return np.unique(np.concatenate(edges))


def rule_statistics(
    theta: float,
    params: MixturePriorParams,
    noise: DoubleExponential | Gaussian | None = None,
) -> RuleStatistics:
    """Squared bias, variance and risk of the rule at a true coefficient.

    The default noise is the marginalized double-exponential with the
    prior's own lambda; pass Gaussian(sigma) for the conditional model.

    Outside (-beta, beta) the rule is its constant plateau value, so those
    parts of each expectation over d are exact tail terms: survival
    probabilities of the noise model. Inside, the integrands are analytic
    between the breakpoints {-beta, 0, theta, beta}: the rule has kinks
    only at 0 (the spike likelihood) and at +-beta (the plateau), and the
    double-exponential density only at theta. That range, cut to the noise
    model's reach around theta (beyond it lies mass below 1e-34), is
    summed by a composite 24-point Gauss-Legendre rule, with one vectorised
    esr call and one noise.pdf call. The panels are one length scale wide
    at every breakpoint (the smaller of the noise scale and the rule's own
    1/sqrt(2 lam)) and widen by a sixteenth per panel away from it. Both
    noise models are location families, so the sum runs over the offset
    u = d - theta, where the density is evaluated exactly however narrow
    it is.

    Cost: a noise density narrower than the rule takes under 100 panels; a
    wide one over a sharp rule adds about 130 panels per factor e in beta
    over the length scale (1200 at lambda = 1e12 under unit Gaussian
    noise), so the cost stays bounded at any lambda or noise scale.

    Accuracy: the sum agrees with adaptive quadrature to about 5e-11, the
    quadrature's own error (the tests keep it as an oracle), and with a
    panel grid eight times finer to a few ulps. Risk and variance are
    integrated directly, as E(rule - theta)^2 and E(rule - mean)^2, rather
    than assembled from the moments, so risk == bias_sq + variance is a
    meaningful cross-check on the result.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise InputError(f"theta must be finite, got {theta}")
    if noise is None:
        noise = DoubleExponential(params.lam)
    beta = params.beta
    with numeric_guard(f"rule statistics at theta={theta}"):
        reach = noise.reach * noise.scale
        lo, hi = max(-beta - theta, -reach), min(beta - theta, reach)
        u = w = np.zeros(0)
        if lo < hi:
            points = sorted({lo, hi} | {p for p in (-theta, 0.0) if lo < p < hi})
            edges = _graded_panels(points, min(noise.scale, params.noise_scale))
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * np.diff(edges)
            u = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
            w = (half[:, None] * _GL_WEIGHTS).ravel() * noise.pdf(u, 0.0)
        r = esr(theta + u, params)
        plateau = esr(beta, params)
        p_hi = noise.sf(beta, theta)
        p_lo = 1.0 - noise.sf(-beta, theta)
        mean = float(w @ r) + plateau * (p_hi - p_lo)
        variance = (
            float(w @ (r - mean) ** 2)
            + (plateau - mean) ** 2 * p_hi
            + (plateau + mean) ** 2 * p_lo
        )
        risk = (
            float(w @ (r - theta) ** 2)
            + (plateau - theta) ** 2 * p_hi
            + (plateau + theta) ** 2 * p_lo
        )
        bias_sq = (mean - theta) ** 2
    return RuleStatistics(bias_sq=bias_sq, variance=variance, risk=risk)
