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

alpha, beta and lam are numbers, or arrays that broadcast against d (for
a stack of rows, columns of shape (R, 1)); the constants of the closed
forms are computed from them with numpy ufuncs, and one parameter set is
the 0-d case of the same code. Each row of a stack therefore comes out
bit for bit as it would with its parameters alone.

The tests check the closed form against an independent quadrature
oracle (direct adaptive integration of the posterior-mean ratio, in
tests/oracles.py) that shares no code with it.

The rule's frequentist properties (squared bias, variance, risk under a
double-exponential or Gaussian noise model) are exact plateau tail terms
plus a composite fixed-order Gauss-Legendre sum over (-beta, beta), split
at the breakpoints {-beta, 0, theta, beta} where the integrands have
kinks; see rule_statistics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, numeric_guard

log = logging.getLogger(__name__)

__all__ = [
    "MixturePriorParams",
    "DoubleExponential",
    "Gaussian",
    "RuleStatistics",
    "marginal_m",
    "esr",
    "rule_statistics",
]


def _rate(lam):
    """a = sqrt(2 lam), the rate of the double-exponential kernel, for a
    number or an array of lam. Computed as 2 sqrt(lam / 2): halving is
    exact for every lam above 4.5e-308 and a correctly rounded square root
    commutes with scaling by 4, so this is sqrt(2 lam) to the bit, and it
    stays finite where 2 lam overflows."""
    return 2.0 * np.sqrt(0.5 * lam)


def _inside(value, lo: float, hi: float) -> bool:
    """lo < value < hi, for a number or for every entry of an array."""
    return bool(np.asarray((lo < value) & (value < hi)).all())


@dataclass(frozen=True)
class MixturePriorParams:
    """Hyperparameters of the mixture prior.

    alpha: spike weight in (0, 1); beta: slab half-support; lam: rate of
    the exponential prior on the noise variance. Each is a number, or an
    array that broadcasts against the coefficients given to esr (for a
    stack of rows, a column of shape (R, 1) holds one value per row).
    """

    alpha: float | np.ndarray
    beta: float | np.ndarray
    lam: float | np.ndarray

    def __post_init__(self):
        if not _inside(self.alpha, 0.0, 1.0):
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not _inside(self.beta, 0.0, math.inf):
            raise DomainError(f"beta must be positive and finite, got {self.beta}")
        if not _inside(self.lam, 0.0, math.inf):
            raise DomainError(f"lambda must be positive and finite, got {self.lam}")

    @property
    def noise_scale(self) -> float:
        """Scale 1/sqrt(2 lam) of the marginalized likelihood."""
        return 1.0 / _rate(self.lam)


def _check_finite(d: np.ndarray) -> None:
    if not np.isfinite(d).all():
        raise InputError("coefficient values must be finite")


_TINY = np.finfo(float).tiny

# below this value of v = a*beta the direct exponential forms lose too many
# digits to cancellation (the worst term pair cancels like v^4) and a fifth
# order expansion of the kernel exp(-v|s-t|) takes over; both sides of the
# seam are accurate to ~1e-9 relative there
_SERIES_V = 0.05


def _slab_series(x: np.ndarray, beta, v):
    """The slab integrals I1, I2 at x = min(|d|, beta), by a fifth-order
    expansion in v = a*beta.

    I1/beta^3 and I2/beta^4 are polynomials in v whose coefficients are
    the moments of (1 - t^2) and t(1 - t^2) against |s - t|^m over (-1, 1),
    with s = x/beta; relative truncation error is O(v^6).
    """
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


def _direct_integrals(x: np.ndarray, beta, lam, a):
    """The exact slab integrals I1, I2 at x = min(|d|, beta).

    Powers of a that overflow (lam above about 1e154) become inf: each
    sits in a denominator, so its quotient is the 0 it all but is, next
    to the leading terms.
    """
    with np.errstate(over="ignore"):
        a2, a3, a4 = np.square(a), np.power(a, 3), np.power(a, 4)
    beta2 = np.square(beta)
    # where a**2 = 2 lam overflows, K is its leading term beta^2 / lam
    K = np.where(a2 < math.inf, 2.0 * beta2 / a2 + 6.0 * beta / a3 + 6.0 / a4,
                 beta2 / lam)
    ep = np.exp(-a * (beta + x))
    em = np.exp(-a * (beta - x))
    # em - ep evaluated as -em*expm1(-2ax): the direct difference
    # underflows to 0 for a|d| below the rounding scale of exp(-a beta)
    em_minus_ep = -em * np.expm1(-2.0 * a * x)
    x2 = np.square(x)
    two_over_a = 2.0 / a
    i1 = (beta + 1.0 / a) * (ep + em) / lam + two_over_a * (beta2 - x2 - 1.0 / lam)
    i2 = K * em_minus_ep + two_over_a * x * (beta2 - x2) - 12.0 * x / a3
    return i1, i2


def _slab_parts(dabs: np.ndarray, beta, lam, a):
    """Slab integrals I1, I2 and the spike likelihood kernel at |d|.

    beta, lam and a = _rate(lam) are numbers, or arrays that broadcast
    against dabs (one parameter set per row). Past the support the exact
    integrals (and the spike likelihood) all decay by the common factor
    exp(-a(|d| - beta)), which cancels in the posterior-mean ratios; the
    values are therefore computed at min(|d|, beta) in that shared frame,
    so every exponential argument is nonpositive regardless of how large
    |d| gets.
    """
    x = np.minimum(dabs, beta)
    spike = np.exp(-a * x)
    v = a * beta
    series = v < _SERIES_V
    rows_in_series = np.count_nonzero(series)
    if rows_in_series == 0:
        return (*_direct_integrals(x, beta, lam, a), spike)
    if rows_in_series == np.size(series):
        return (*_slab_series(x, beta, v), spike)
    # rows on both sides of the seam: each side takes the rows of the other
    # as the rule with beta = 1 at the seam, where both sides are finite,
    # and np.where picks each row's own side
    beta_s, beta_d = np.where(series, beta, 1.0), np.where(series, 1.0, beta)
    s1, s2 = _slab_series(np.minimum(dabs, beta_s), beta_s, np.where(series, v, _SERIES_V))
    d1, d2 = _direct_integrals(np.minimum(dabs, beta_d), beta_d,
                               np.where(series, 0.5 * _SERIES_V**2, lam),
                               np.where(series, _SERIES_V, a))
    return np.where(series, s1, d1), np.where(series, s2, d2), spike


def marginal_m(d, params: MixturePriorParams):
    """Marginal density of d under the slab alone (no spike weight applied).

    Strictly positive on the whole line and integrates to one. If rounding
    drives a value to zero or below, it is clamped to the smallest positive
    normal with a logged diagnostic. A floating-point failure (a slab
    support whose cube overflows, say) raises NumericError.
    """
    arr = np.asarray(d, dtype=float)
    _check_finite(arr)
    with numeric_guard("marginal density"):
        beta, a = params.beta, _rate(params.lam)
        dabs = np.abs(arr)
        i1, _, _ = _slab_parts(dabs, beta, params.lam, a)
        # undo the exterior rescale: true I1 decays like exp(-a(|d| - beta))
        decay = np.exp(-a * np.maximum(dabs - beta, 0.0))
        out = (3.0 * a / (8.0 * np.power(beta, 3))) * i1 * decay
    bad = out <= 0.0
    if np.any(bad):
        log.warning(
            "marginal density rounded to <= 0 at %d point(s); clamping to tiny",
            int(np.count_nonzero(bad)),
        )
        out = np.where(bad, _TINY, out)
    return out if out.ndim else float(out)


def esr(d, params: MixturePriorParams):
    """Posterior-mean shrinkage rule under the full spike-and-slab mixture.

    Accepts a scalar or an array of empirical coefficients, and returns a
    value of the same shape. The fields of ``params`` may be arrays that
    broadcast against d, say columns of shape (R, 1) for a stack of R
    rows; each coefficient is then shrunk with its own parameters, bit for
    bit as a call with those parameters as numbers would. Parameters that
    would broadcast d to another shape raise InputError. Odd in d, no
    larger than |d| and bounded by the slab-only mean, hence strictly
    inside (-beta, beta). Finite for every finite lambda; a slab support
    whose powers overflow (beta above about 5e102) raises NumericError, as
    does any other floating-point failure here.
    """
    arr = np.asarray(d, dtype=float)
    _check_finite(arr)
    alpha, beta, lam = params.alpha, params.beta, params.lam
    shapes = [p.shape for p in (alpha, beta, lam) if isinstance(p, np.ndarray)]
    if shapes:
        try:
            fits = np.broadcast_shapes(arr.shape, *shapes) == arr.shape
        except ValueError:
            fits = False
        if not fits:
            raise InputError(f"parameters of shapes {shapes} do not fit coefficients "
                             f"of shape {arr.shape}")
    with numeric_guard("mixture rule"):
        a = _rate(lam)
        dabs = np.abs(arr)
        i1, i2, spike = _slab_parts(dabs, beta, lam, a)
        slab_weight = (1.0 - alpha) * 3.0 * a / (8.0 * np.power(beta, 3))
        spike_weight = alpha * (0.5 * a)
        num = slab_weight * i2
        den = spike_weight * spike + slab_weight * i1
        ratio = num / np.maximum(den, _TINY)
        # the shrunk magnitude lies in [0, |d|]; at subnormal |d| the closed
        # forms round outside that range
        out = np.copysign(np.minimum(np.maximum(ratio, 0.0), dabs), arr)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# frequentist properties of the rule

@dataclass(frozen=True)
class DoubleExponential:
    """Noise model d | theta ~ double exponential with scale 1/sqrt(2 lam)."""

    lam: float
    # farther than this many scales from theta the density has mass e^-80
    reach = 80.0

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise DomainError(f"lambda must be positive and finite, got {self.lam}")

    @property
    def scale(self) -> float:
        return 1.0 / _rate(self.lam)

    def pdf(self, d, theta: float):
        a = _rate(self.lam)
        out = 0.5 * a * np.exp(-a * np.abs(np.asarray(d, dtype=float) - theta))
        return out if out.ndim else float(out)

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
        if not 0.0 < self.sigma < math.inf:
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")

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
        # the plateau value esr(beta) rides along as the last node
        r = esr(np.append(theta + u, beta), params)
        r, plateau = r[:-1], float(r[-1])
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
