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

esr takes one parameter set: alpha, beta and lam are numbers. The
constants of the closed forms are computed from them once per call, and
the coefficients are then evaluated in slices of at most 8192, whose
temporaries stay small enough for the heap. Every step acts element by
element, so each slice comes out as it would in one pass over the whole
array. shrink_pyramid runs the same kernel with one parameter set per row
and detail level, held as arrays (see _esr_levels).

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

import functools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    the exponential prior on the noise variance. esr, marginal_m and
    rule_statistics take numbers; shrink_pyramid builds arrays of them,
    one value per row and detail level, for _esr_levels.
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


def _one_set(params: MixturePriorParams, caller: str) -> None:
    """Raise InputError unless alpha, beta and lam are numbers (or 0-d)."""
    # a float (np.float64 is one) needs no np.shape, which costs microseconds
    shapes = [np.shape(p) for p in (params.alpha, params.beta, params.lam)
              if not isinstance(p, float)]
    if any(shapes):
        raise InputError(f"{caller} takes one parameter set: alpha, beta and lambda "
                         f"must be numbers, got shapes {shapes}")


def _validated(d) -> np.ndarray:
    """d as a float array, checked to be finite."""
    arr = np.asarray(d, dtype=float)
    if not np.isfinite(arr).all():
        raise InputError("coefficient values must be finite")
    return arr


_TINY = np.finfo(float).tiny

# below this value of v = a*beta the direct exponential forms lose too many
# digits to cancellation (the worst term pair cancels like v^4) and a fifth
# order expansion of the kernel exp(-v|s-t|) takes over; both sides of the
# seam are accurate to ~1e-9 relative there
_SERIES_V = 0.05

# coefficients per block of an evaluation of the rule: each temporary of a
# block is then 64 KB, which glibc serves from its heap, while a temporary
# the size of a long level lies past its mmap threshold and is mapped,
# faulted in and returned on every call
_BLOCK_COEFFS = 8192

# the narrowest detail levels of a stack share one block while it holds at
# most this many coefficients. Their constants are then repeated per
# coefficient, some twenty arrays the size of the block: at a full block
# that is 1.5 MB, which glibc hands back and faults in again block after
# block, while a longer level, shrunk level by level, needs no repeats
_POOL = _BLOCK_COEFFS // 2


class _Constants(NamedTuple):
    """The quantities of the closed forms that depend on the parameters
    alone, made by _rule_constants. Each is a number, or an array of the
    parameters' shape. The _d and _s fields belong to the direct and the
    series side of the seam; series, the one bool field, comes last."""

    beta: np.ndarray
    neg_a: np.ndarray
    slab_weight: np.ndarray
    spike_weight: np.ndarray
    beta_d: np.ndarray
    lam_d: np.ndarray
    neg_a_d: np.ndarray
    neg_2a_d: np.ndarray
    beta2_d: np.ndarray
    k_d: np.ndarray
    edge_d: np.ndarray
    two_over_a_d: np.ndarray
    inv_lam_d: np.ndarray
    a3_d: np.ndarray
    beta_s: np.ndarray
    beta3_s: np.ndarray
    beta4_s: np.ndarray
    v_s: np.ndarray
    series: np.ndarray


def _rule_constants(alpha, beta, lam) -> _Constants:
    """Every per-parameter-set quantity of the closed forms, computed once.

    alpha, beta and lam are numbers (esr and marginal_m) or arrays that
    broadcast together, one set per row and level (_esr_levels). A
    parameter set on the series side of the seam enters the direct side as
    the rule with beta = 1 at the seam, and one on the direct side enters
    the series side likewise: there both sides are finite, so a block with
    coefficients on both sides evaluates both, and np.where picks each
    coefficient's own.
    """
    a = _rate(lam)
    v = a * beta
    series = v < _SERIES_V
    # for one parameter set the constants stay numbers, whose arithmetic
    # costs less than that of 0-d arrays
    where = np.where if series.ndim else lambda cond, yes, no: yes if cond else no
    beta_d = where(series, 1.0, beta)
    lam_d = where(series, 0.5 * _SERIES_V**2, lam)
    a_d = where(series, _SERIES_V, a)
    # powers of a that overflow (lam above about 1e154) become inf: each
    # sits in a denominator, so its quotient is the 0 it all but is, next
    # to the leading terms
    with np.errstate(over="ignore"):
        a2, a3, a4 = np.square(a_d), np.power(a_d, 3), np.power(a_d, 4)
    beta2 = np.square(beta_d)
    # where a**2 = 2 lam overflows, K is its leading term beta^2 / lam
    k = where(a2 < math.inf, 2.0 * beta2 / a2 + 6.0 * beta_d / a3 + 6.0 / a4,
              beta2 / lam_d)
    beta3 = np.power(beta, 3)
    beta_s = where(series, beta, 1.0)
    return _Constants(
        beta=beta, neg_a=-a,
        slab_weight=(1.0 - alpha) * 3.0 * a / (8.0 * beta3),
        spike_weight=alpha * (0.5 * a),
        beta_d=beta_d, lam_d=lam_d, neg_a_d=-a_d, neg_2a_d=-2.0 * a_d, beta2_d=beta2,
        k_d=k, edge_d=beta_d + 1.0 / a_d, two_over_a_d=2.0 / a_d, inv_lam_d=1.0 / lam_d,
        a3_d=a3, beta_s=beta_s, beta3_s=where(series, beta3, 1.0), beta4_s=np.power(beta_s, 4),
        v_s=where(series, v, _SERIES_V), series=series)


def _slab_series(x: np.ndarray, k: _Constants):
    """The slab integrals I1, I2 at x = min(|d|, beta), by a fifth-order
    expansion in v = a*beta.

    I1/beta^3 and I2/beta^4 are polynomials in v whose coefficients are
    the moments of (1 - t^2) and t(1 - t^2) against |s - t|^m over (-1, 1),
    with s = x/beta; relative truncation error is O(v^6).
    """
    s = x / k.beta_s
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
        term = term * (-k.v_s / (m + 1))
    return k.beta3_s * i1, k.beta4_s * i2


def _direct_integrals(x: np.ndarray, k: _Constants):
    """The exact slab integrals I1, I2 at x = min(|d|, beta)."""
    ep = np.exp(k.neg_a_d * (k.beta_d + x))
    em = np.exp(k.neg_a_d * (k.beta_d - x))
    # em - ep evaluated as -em*expm1(-2ax): the direct difference
    # underflows to 0 for a|d| below the rounding scale of exp(-a beta)
    em_minus_ep = -em * np.expm1(k.neg_2a_d * x)
    gap = k.beta2_d - np.square(x)
    i1 = k.edge_d * (ep + em) / k.lam_d + k.two_over_a_d * (gap - k.inv_lam_d)
    i2 = k.k_d * em_minus_ep + k.two_over_a_d * x * gap - 12.0 * x / k.a3_d
    return i1, i2


def _slab_integrals(dabs: np.ndarray, x: np.ndarray, k: _Constants):
    """Slab integrals I1, I2 at |d| = dabs, with x = min(|d|, beta).

    Past the support the exact integrals (and the spike likelihood) all
    decay by the common factor exp(-a(|d| - beta)), which cancels in the
    posterior-mean ratios; the values are therefore computed at
    min(|d|, beta) in that shared frame, so every exponential argument is
    nonpositive regardless of how large |d| gets.
    """
    in_series = np.count_nonzero(k.series)
    if in_series == 0:
        return _direct_integrals(x, k)
    if in_series == np.size(k.series):
        return _slab_series(x, k)
    # both sides of the seam: each side over the whole block, and np.where
    # picks each coefficient's own
    d1, d2 = _direct_integrals(np.minimum(dabs, k.beta_d), k)
    s1, s2 = _slab_series(np.minimum(dabs, k.beta_s), k)
    return np.where(k.series, s1, d1), np.where(k.series, s2, d2)


def _esr_block(d: np.ndarray, k: _Constants) -> np.ndarray:
    """The mixture rule on one block of coefficients, with the constants
    cut to the block."""
    dabs = np.abs(d)
    x = np.minimum(dabs, k.beta)
    i1, i2 = _slab_integrals(dabs, x, k)
    spike = np.exp(k.neg_a * x)
    num = k.slab_weight * i2
    den = k.spike_weight * spike + k.slab_weight * i1
    ratio = num / np.maximum(den, _TINY)
    # the shrunk magnitude lies in [0, |d|]; at subnormal |d| the closed
    # forms round outside that range
    return np.copysign(np.minimum(np.maximum(ratio, 0.0), dabs), d)


def _marginal_block(d: np.ndarray, k: _Constants) -> np.ndarray:
    """The slab's marginal density on one block, with k made for alpha = 0."""
    dabs = np.abs(d)
    i1, _ = _slab_integrals(dabs, np.minimum(dabs, k.beta), k)
    # undo the exterior rescale: true I1 decays like exp(-a(|d| - beta))
    decay = np.exp(k.neg_a * np.maximum(dabs - k.beta, 0.0))
    return k.slab_weight * i1 * decay


def _blocks(rows: int, cols: int):
    """(row slice, column slice) pairs that cover a (rows, cols) array in
    blocks of at most _BLOCK_COEFFS entries: groups of whole rows, or
    slices of one row where a row is longer than a block."""
    if cols > _BLOCK_COEFFS:
        for r in range(rows):
            for c in range(0, cols, _BLOCK_COEFFS):
                yield slice(r, r + 1), slice(c, c + _BLOCK_COEFFS)
    elif cols:
        step = _BLOCK_COEFFS // cols
        for r in range(0, rows, step):
            yield slice(r, r + step), slice(None)


def _blockwise(block_fn, arr: np.ndarray, k: _Constants) -> np.ndarray:
    """block_fn(coefficients, k) over arr in slices of at most
    _BLOCK_COEFFS of its flattened coefficients; an input of at most one
    block is that block."""
    if arr.size <= _BLOCK_COEFFS:
        return block_fn(arr, k)
    flat = arr.ravel()
    out = np.empty(flat.shape)
    for i in range(0, flat.size, _BLOCK_COEFFS):
        out[i:i + _BLOCK_COEFFS] = block_fn(flat[i:i + _BLOCK_COEFFS], k)
    return out.reshape(arr.shape)


def _esr_levels(rows: np.ndarray, levels: list, sigma: np.ndarray,
                params: MixturePriorParams) -> None:
    """Apply the mixture rule in place to the detail levels of a stack.

    rows has shape (R, n); levels are the column slices of its L detail
    levels, adjacent and in order of width; sigma is a column of R noise
    scales; the fields of params broadcast to (R, L), one parameter set
    per row and level. Every block is divided by its rows' sigma, shrunk
    and multiplied back, as each level alone would be. The parameters are
    broadcast to (R, L) before the constants are made from them, so every
    constant is an (R, L) array, computed once for all levels.
    """
    shape = (len(rows), len(levels))
    k = _rule_constants(*(np.broadcast_to(p, shape)
                          for p in (params.alpha, params.beta, params.lam)))

    def shrink(block, s, kb):
        np.multiply(s, _esr_block(block / s, kb), out=block)

    # the narrowest levels share one block while it holds at most _POOL
    # coefficients, their constants repeated per coefficient (the floats
    # in one call, the bool series flag in its own)
    start = levels[0].start
    pooled = sum(len(rows) * (level.stop - start) <= _POOL for level in levels)
    if pooled:
        widths = [level.stop - level.start for level in levels[:pooled]]
        cut = [c[:, :pooled] for c in k]
        shrink(rows[:, start:levels[pooled - 1].stop], sigma,
               k._make([*np.repeat(np.stack(cut[:-1]), widths, axis=2),
                        np.repeat(cut[-1], widths, axis=1)]))
    for j in range(pooled, len(levels)):
        view = rows[:, levels[j]]
        for rs, cs in _blocks(*view.shape):
            shrink(view[rs, cs], sigma[rs], k._make(c[rs, j:j + 1] for c in k))


def marginal_m(d, params: MixturePriorParams):
    """Marginal density of d under the slab alone (no spike weight applied).

    Strictly positive on the whole line and integrates to one. If rounding
    drives a value to zero or below, it is clamped to the smallest positive
    normal with a logged diagnostic. params is one parameter set, as in
    esr. A floating-point failure (a slab support whose cube overflows,
    say) raises NumericError.
    """
    _one_set(params, "marginal_m")
    arr = _validated(d)
    with numeric_guard("marginal density"):
        # the slab alone is the mixture with spike weight 0
        out = _blockwise(_marginal_block, arr, _rule_constants(0.0, params.beta, params.lam))
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
    value of the same shape. params is one parameter set: a field that is
    an array of one or more dimensions raises InputError (a stack with one
    set per row is a loop of esr calls). Odd in d, no larger than |d|
    and bounded by the slab-only mean, hence strictly inside
    (-beta, beta). Finite for every finite lambda; a slab support
    whose powers overflow (beta above about 5e102) raises NumericError, as
    does any other floating-point failure here.
    """
    _one_set(params, "esr")
    arr = _validated(d)
    with numeric_guard("mixture rule"):
        out = _blockwise(_esr_block, arr, _rule_constants(params.alpha, params.beta, params.lam))
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
_GROWTH = 1.0625


@functools.cache
def _gauss_legendre() -> tuple:
    """The read-only nodes and weights of the 24-point Gauss-Legendre rule
    on [-1, 1], made on first use: numpy.polynomial stays off the import
    path."""
    rule = np.polynomial.legendre.leggauss(24)
    for values in rule:
        values.setflags(write=False)
    return rule


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

    params is one parameter set: its fields are numbers.

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
    _one_set(params, "rule_statistics")
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
            nodes, weights = _gauss_legendre()
            u = (mid[:, None] + half[:, None] * nodes).ravel()
            w = (half[:, None] * weights).ravel() * noise.pdf(u, 0.0)
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
