"""Spike-and-slab shrinkage rule with an Epanechnikov slab.

The prior on a wavelet coefficient theta is a two-part mixture: a point
mass at zero with weight alpha, and the compactly supported parabola
g(theta) = 3/(4 beta^3) (beta^2 - theta^2) on (-beta, beta). Putting an
exponential prior with rate lam on the noise variance and integrating it
out turns the Gaussian observation model into a double-exponential
likelihood with scale 1/a, a = sqrt(2 lam); the posterior mean of theta
is then available in closed form.

The closed-form slab integrals come from splitting the likelihood kernel
exp(-a|d - theta|) at its kink, which sits inside the integration range
only while |d| <= beta. Past the support the exact integrals -- and the
spike likelihood -- all decay by the common factor exp(-a(|d| - beta)),
which cancels in the posterior mean. The rule is therefore constant for
|d| >= beta, and everything is evaluated at min(|d|, beta).

In the dimensionless variables u = a min(|d|, beta) and b = a beta the
rule is a family in b and alpha alone, scaled by 1/a:

    rule(d) = sign(d) min(max(N/D, 0) / a, |d|)

    g = ((b - u)/b) ((b + u)/b),   E = exp(u - b),   m = expm1(-2u)
    N = u (g - 6/b^2) - (1 + 3/b + 3/b^2) E m
    D = (g - 2/b^2) + (1/b)(1 + 1/b) E (2 + m)
        + exp(ln(2 alpha / (3 (1 - alpha))) + ln b - u)

N and the first two terms of D are the integrals of theta (beta^2 -
theta^2) and of (beta^2 - theta^2) against the kernel, over 2 b^2 / a^4
and 2 b^2 / a^3; the last term of D is the spike's likelihood in the same
units. E and m have nonpositive arguments, so the rule stays finite for
arbitrarily large coefficients. g is kept in its factored form: near the
edge of the support D is about 1/b, and 1 - (u/b)^2 would lose the
relative accuracy of g there. A coefficient costs three transcendentals
(two exp, one expm1), and a parameter set a handful of constants: b and
functions of 1/b, and the log spike weight ln(2 alpha b / (3 (1 - alpha))).

Below b = 0.05 the terms of D cancel like b^4 and a fifth-order expansion
of the kernel in b takes over:

    rule(d) = sign(d) min(max(beta P2 / (P1 + (4 alpha / (3 (1 - alpha))) e^-u), 0), |d|)

with P1 and P2 polynomials in s = min(|d|, beta)/beta and b (_slab_series).
Every quantity is computed at |d| and the sign restored, so odd symmetry
holds exactly in floating point.

esr takes one parameter set: alpha, beta and lam are numbers, and the
constants are Python floats computed once per call. The coefficients are
evaluated in slices of at most 8192, each in place in six work arrays of
a slice's size (64 KB), which stay on the heap instead of being mapped
and faulted in afresh on every call. Every step acts element by element,
so each slice comes out as it would in one pass over the whole array. A
coefficient takes about 25 passes, each writing into one of the work
arrays and each paying numpy's call overhead of about 1 us, so esr of a
single number (a 0-d input) costs 35-67 us on a 2-core shared x86_64
host (best of timed loops, at different times), most of it overhead.
shrink_pyramid runs the same kernel with one parameter set per row and
detail level, held as arrays (see _esr_levels).

The tests check the closed form against an independent quadrature
oracle (direct adaptive integration of the posterior-mean ratio, in
tests/oracles.py) that shares no code with it, and against the closed
form in beta and lam that the rule had before it was put in u and b.

The rule's frequentist properties (squared bias, variance, risk under a
double-exponential or Gaussian noise model) are exact plateau tail terms
plus a composite fixed-order Gauss-Legendre sum over (-beta, beta), split
at the breakpoints {-beta, 0, theta, beta} where the integrands have
kinks; see rule_statistics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InputError, NumericError, _floats, _real, _scale, numeric_guard

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


@dataclass(frozen=True)
class MixturePriorParams:
    """Hyperparameters of the mixture prior, one parameter set.

    alpha: spike weight in (0, 1); beta: slab half-support; lam: rate of
    the exponential prior on the noise variance. Each is a number (or a
    0-d array), stored as a Python float; an array field of one or more
    dimensions is an InputError, and a value out of range a DomainError
    naming the field.
    """

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        shapes = {name: np.shape(value) for name, value in
                  (("alpha", self.alpha), ("beta", self.beta), ("lambda", self.lam))
                  if np.ndim(value)}
        if shapes:
            raise InputError("MixturePriorParams takes one parameter set: alpha, beta and "
                             f"lambda must be numbers, got shapes {shapes}")
        # a 0-d array is the number it holds
        alpha, beta, lam = (value[()] if isinstance(value, np.ndarray) else value
                            for value in (self.alpha, self.beta, self.lam))
        object.__setattr__(self, "alpha", _real("alpha", alpha, "must lie in (0, 1)",
                                                lambda x: 0.0 < x < 1.0, DomainError))
        object.__setattr__(self, "beta", _scale("beta", beta, DomainError))
        object.__setattr__(self, "lam", _scale("lambda", lam, DomainError))

    @property
    def noise_scale(self) -> float:
        """Scale 1/sqrt(2 lam) of the marginalized likelihood."""
        return 1.0 / _rate(self.lam)


def _validated(d) -> np.ndarray:
    """d as a float array, checked to be finite."""
    arr = _floats("coefficient values", d, InputError)
    if not np.isfinite(arr).all():
        raise InputError("coefficient values must be finite")
    return arr


_TINY = np.finfo(float).tiny

# below this value of b = a*beta the direct forms lose too many digits to
# cancellation (the terms of D cancel like b^4) and a fifth order
# expansion of the kernel exp(-a|d - theta|) takes over; both sides of the
# seam are within 1e-10 * beta of the exact rule there (measured against
# 60-digit arithmetic: 7.3e-11 * beta on the series side, from its
# truncation, and 2.0e-11 * beta on the direct side)
_SERIES_V = 0.05

# coefficients per block of an evaluation of the rule: each work array of
# a block is then 64 KB, which glibc serves from its heap, while an array
# the size of a long level lies past its mmap threshold and is mapped,
# faulted in and returned on every call
_BLOCK_COEFFS = 8192

# the narrowest detail levels of a stack share one block while it holds at
# most this many coefficients. Their constants are then repeated per
# coefficient, eleven float arrays the size of the block (0.35 MB at this
# bound), while a longer level, shrunk level by level, needs no repeats
_POOL = _BLOCK_COEFFS // 2


class _Constants(NamedTuple):
    """The quantities of the rule that depend on the parameters alone, made
    by _rule_constants: Python floats for one parameter set, arrays of one
    shape for many. beta, r = a and v = b serve both sides of the seam;
    the fields from b to log_spike serve the direct side, q the series
    side; series, the one bool field, comes last."""

    beta: np.ndarray
    r: np.ndarray
    v: np.ndarray
    b: np.ndarray
    neg_inv_b: np.ndarray
    c2: np.ndarray
    c6: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    log_spike: np.ndarray
    q: np.ndarray
    series: np.ndarray


def _log(x: float) -> float:
    """ln x of a number, and -inf at 0 (the spike of the slab alone)."""
    return math.log(x) if x else -math.inf


def _rule_constants(alpha, beta, r) -> _Constants:
    """Every per-parameter-set quantity of the rule, computed once.

    alpha, beta and r = a are Python floats (one parameter set) or arrays
    that broadcast together, one set per row and level (_esr_levels); every
    field then has their common shape. A set on the series side of the
    seam enters the direct side with b = 1, where u <= v < 1 is a valid
    point of the closed form: a block with coefficients on both sides
    evaluates the direct side on all of them, and the series on its own.
    """
    v = beta * r
    series = v < _SERIES_V
    one_set = isinstance(series, bool)
    ln, b = (_log, 1.0 if series else v) if one_set else (np.log, np.where(series, 1.0, v))
    inv_b = 1.0 / b
    inv_b2 = inv_b * inv_b
    odds = alpha / (1.0 - alpha)
    fields = (beta, r, v, b, -inv_b, 2.0 * inv_b2, 6.0 * inv_b2,
              1.0 + 3.0 * inv_b + 3.0 * inv_b2, inv_b * (1.0 + inv_b),
              ln((2.0 / 3.0) * odds * b), (4.0 / 3.0) * odds, series)
    return _Constants(*fields) if one_set else _Constants(*np.broadcast_arrays(*fields))


def _set_constants(alpha: float, params: MixturePriorParams) -> _Constants:
    """The constants of one parameter set, with spike weight alpha (0 for
    the slab alone), as Python floats. A slab support whose cube
    overflows, which puts the slab density 3/(4 beta^3) out of range,
    raises NumericError."""
    beta = params.beta
    if beta * beta * beta == math.inf:
        raise NumericError(f"slab support {beta!r} is out of range: its cube overflows")
    return _rule_constants(alpha, beta, float(_rate(params.lam)))


def _slab_series(s: np.ndarray, v):
    """P1 and P2 of the fifth-order expansion in v = a*beta, at
    s = min(|d|, beta)/beta: the slab integrals are beta^3 P1 and beta^4 P2.

    The coefficients of P1 and P2 are the moments of (1 - t^2) and
    t(1 - t^2) against |s - t|^m over (-1, 1); the relative truncation
    error is O(v^6).
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
    p1 = p2 = 0.0
    term = 1.0
    for m in range(6):
        p1 = p1 + term * c[m]
        p2 = p2 + term * d[m]
        term = term * (-v / (m + 1))
    return p1, p2


def _series_magnitude(dabs: np.ndarray, beta, r, v, q) -> np.ndarray:
    """|rule| at |d| = dabs before its clamp, on the series side of the
    seam: beta P2 / (P1 + q e^-u)."""
    x = np.minimum(dabs, beta)
    p1, p2 = _slab_series(x / beta, v)
    return beta * p2 / (p1 + q * np.exp(-(x * r)))


def _direct_parts(u: np.ndarray, k: _Constants, t1, t2, t3, t4):
    """N and D at u on the direct side of the seam, evaluated in place in
    the work arrays t1 to t4 of u's shape; N comes back in t4, D in t3.
    (Every step names its out array: on small arrays an augmented
    assignment costs twice the call.)"""
    np.subtract(u, k.b, out=t1)
    np.exp(t1, out=t2)                       # E
    np.multiply(t1, k.neg_inv_b, out=t1)     # w = (b - u)/b
    np.subtract(2.0, t1, out=t3)             # (b + u)/b = 2 - w
    np.multiply(t3, t1, out=t3)              # g
    np.subtract(t3, k.c6, out=t4)
    np.multiply(t4, u, out=t4)               # u (g - 6/b^2)
    np.subtract(t3, k.c2, out=t3)            # g - 2/b^2
    np.multiply(u, -2.0, out=t1)
    np.expm1(t1, out=t1)                     # m
    np.multiply(t1, t2, out=t1)              # E m
    np.add(t2, t2, out=t2)
    np.add(t2, t1, out=t2)                   # E (2 + m)
    np.multiply(t2, k.k2, out=t2)
    np.add(t3, t2, out=t3)
    np.multiply(t1, k.k1, out=t1)
    np.subtract(t4, t1, out=t4)              # N
    np.subtract(k.log_spike, u, out=t1)
    np.exp(t1, out=t1)                       # the spike
    np.add(t3, t1, out=t3)                   # D
    return t4, t3


def _magnitude(dabs: np.ndarray, k: _Constants, u, t1, t2, t3, t4) -> np.ndarray:
    """|rule| at |d| = dabs before its clamp, with the constants cut to
    the block: N/(D a) in the work arrays u to t4 on the direct side of
    the seam, and the series on the coefficients of the series side, which
    are gathered, evaluated and scattered back where a block has both."""
    series = k.series
    if isinstance(series, bool):
        some = every = series
    else:
        some, every = series.any(), series.all()
    if every:
        # into a work array, which the caller's clamps overwrite in place
        u[...] = _series_magnitude(dabs, k.beta, k.r, k.v, k.q)
        return u
    np.minimum(dabs, k.beta, out=u)
    np.multiply(u, k.r, out=u)
    n, den = _direct_parts(u, k, t1, t2, t3, t4)
    np.divide(n, den, out=n)
    np.divide(n, k.r, out=n)
    if some:
        mask = np.broadcast_to(series, dabs.shape)
        n[mask] = _series_magnitude(dabs[mask], *(np.broadcast_to(f, dabs.shape)[mask]
                                                  for f in (k.beta, k.r, k.v, k.q)))
    return n


def _esr_block(d: np.ndarray, k: _Constants, work: list, out: np.ndarray) -> None:
    """The mixture rule on one block of coefficients into out (which may
    be d), with the constants cut to the block; work holds six arrays of
    the block's shape."""
    dabs = np.abs(d, out=work[0])
    mag = _magnitude(dabs, k, *work[1:])
    np.maximum(mag, 0.0, out=mag)
    # the shrunk magnitude lies in [0, |d|]; at subnormal |d| the closed
    # forms round outside that range
    np.minimum(mag, dabs, out=mag)
    np.copysign(mag, d, out=out)


def _marginal_block(d: np.ndarray, k: _Constants, work: list, out: np.ndarray) -> None:
    """The slab's marginal density on one block into out, with k made for
    alpha = 0: (3 / (4 beta)) D, or (3 a / 8) P1 on the series side,
    times the decay exp(-a(|d| - beta)) past the support."""
    dabs, u, *t = work
    np.abs(d, out=dabs)
    x = np.minimum(dabs, k.beta, out=u)
    if k.series:
        density = _slab_series(x / k.beta, k.v)[0] * (0.375 * k.r)
    else:
        density = _direct_parts(np.multiply(x, k.r, out=x), k, *t)[1]
        np.multiply(density, 0.75 / k.beta, out=density)
    np.multiply(density, np.exp(-k.r * np.maximum(dabs - k.beta, 0.0)), out=out)


def _work(shape: tuple) -> list:
    """The six work arrays of a block evaluation, of the given shape."""
    return [np.empty(shape) for _ in range(6)]


def _shaped(work: list, shape: tuple) -> list:
    """Flat work arrays cut to a block of the given shape."""
    if work[0].shape == shape:
        return work
    size = math.prod(shape)
    return [w[:size].reshape(shape) for w in work]


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
    """block_fn(coefficients, k, work, out) over arr in slices of at most
    _BLOCK_COEFFS of its flattened coefficients, into a new array of its
    shape; an input of at most one block is that block."""
    out = np.empty(arr.shape)
    if arr.size <= _BLOCK_COEFFS:
        block_fn(arr, k, _work(arr.shape), out)
        return out
    flat, flat_out = arr.ravel(), out.reshape(-1)
    work = _work((_BLOCK_COEFFS,))
    for i in range(0, flat.size, _BLOCK_COEFFS):
        block = flat[i:i + _BLOCK_COEFFS]
        block_fn(block, k, _shaped(work, block.shape), flat_out[i:i + _BLOCK_COEFFS])
    return out


def _esr_levels(rows: np.ndarray, levels: list, alpha: np.ndarray, beta: np.ndarray,
                r: np.ndarray) -> None:
    """Apply the mixture rule in place to the detail levels of a stack.

    rows has shape (R, n); levels are the column slices of its L detail
    levels, adjacent and in order of width; alpha holds the L spike
    weights, beta the (R, L) slab supports and r the (R, 1) rates
    a = sqrt(2 lam), both in the units of the coefficients. The constants
    are made once for all levels, as (R, L) arrays. The narrowest levels
    share one block while it holds at most _POOL coefficients, their
    constants repeated per coefficient (the floats in one call, the bool
    series flag in its own); every longer level goes in groups of rows, or
    slices of one row, with its constants as columns. Every block is
    evaluated in place in the same six work arrays, of the largest block's
    size.
    """
    k = _rule_constants(alpha, beta, r)
    blocks = []
    start = levels[0].start
    pooled = sum(len(rows) * (level.stop - start) <= _POOL for level in levels)
    if pooled:
        widths = [level.stop - level.start for level in levels[:pooled]]
        cut = [c[:, :pooled] for c in k]
        blocks.append((rows[:, start:levels[pooled - 1].stop],
                       k._make([*np.repeat(np.stack(cut[:-1]), widths, axis=2),
                                np.repeat(cut[-1], widths, axis=1)])))
    for j in range(pooled, len(levels)):
        view = rows[:, levels[j]]
        blocks += [(view[rs, cs], k._make(c[rs, j:j + 1] for c in k))
                   for rs, cs in _blocks(*view.shape)]
    work = _work((max(block.size for block, _ in blocks),))
    for block, kb in blocks:
        _esr_block(block, kb, _shaped(work, block.shape), block)


def marginal_m(d, params: MixturePriorParams):
    """Marginal density of d under the slab alone (no spike weight applied).

    Strictly positive on the whole line and integrates to one. If rounding
    drives a value to zero or below, that value is the smallest positive
    normal (about 2.2e-308), with no other trace. A floating-point failure,
    or a slab support whose cube overflows, raises NumericError.
    """
    arr = _validated(d)
    with numeric_guard("marginal density"):
        # the slab alone is the mixture with spike weight 0
        out = _blockwise(_marginal_block, arr, _set_constants(0.0, params))
    out = np.where(out <= 0.0, _TINY, out)
    return out if out.ndim else float(out)


def esr(d, params: MixturePriorParams):
    """Posterior-mean shrinkage rule under the full spike-and-slab mixture.

    Accepts a scalar or an array of empirical coefficients, and returns a
    value of the same shape. Odd in d, no larger than |d| and bounded by
    the slab-only mean, hence strictly inside (-beta, beta). Finite for
    every finite lambda; a slab support whose cube overflows (beta above
    about 5.6e102) raises NumericError, as does any other floating-point
    failure here.
    """
    arr = _validated(d)
    with numeric_guard("mixture rule"):
        out = _blockwise(_esr_block, arr, _set_constants(params.alpha, params))
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
        object.__setattr__(self, "lam", _scale("lambda", self.lam, DomainError))

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
        object.__setattr__(self, "sigma", _scale("sigma", self.sigma, DomainError))

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


# entries kept by each memo of rule_statistics: (prior, noise model)
# pairs, and panel offset tables; the criterion-6 profiles use 8 pairs
_SETUPS = 64


@functools.lru_cache(maxsize=_SETUPS)
def _statistics_setup(params: MixturePriorParams,
                      noise: DoubleExponential | Gaussian | None) -> tuple:
    """The parts of rule_statistics that depend on the prior and the noise
    model alone, made once per pair while it is among the last _SETUPS
    used: the model (the double exponential with the prior's own lambda
    for None), its reach in units of d, the panel length scale h and the
    rule's constants. A failure raises on every call, since lru_cache
    keeps no exceptions."""
    if noise is None:
        noise = DoubleExponential(params.lam)
    return (noise, noise.reach * noise.scale, min(noise.scale, params.noise_scale),
            _set_constants(params.alpha, params))


@functools.lru_cache(maxsize=_SETUPS)
def _panel_offsets(h: float, count: int) -> np.ndarray:
    """The read-only distances h (g^k - 1) / (g - 1), k < count, of the
    edges of graded panels from an interval end (g = _GROWTH)."""
    k = np.arange(count)
    offsets = h * np.expm1(k * math.log(_GROWTH)) / (_GROWTH - 1.0)
    offsets.setflags(write=False)
    return offsets


def _graded_panels(points: list, h: float) -> np.ndarray:
    """Panel edges covering [points[0], points[-1]].

    Each interval between consecutive breakpoints is filled from both ends
    with panels of widths h, h*g, h*g^2, ... (g = _GROWTH) that meet in its
    middle, so an interval of length L takes about 2 log(L/h) / log(g)
    panels, however small h is. Each interval takes the offsets below its
    half length from the front of one memoised table (_panel_offsets).
    """
    pts = np.asarray(points, dtype=float)
    half = 0.5 * (pts[1:] - pts[:-1])
    count = math.ceil(math.log1p((_GROWTH - 1.0) * half.max() / h) / math.log(_GROWTH)) + 1
    offsets = _panel_offsets(h, count)
    edges = [pts]
    # Python floats: lo + m lies between the interval's finite ends
    ends = pts.tolist()
    for lo, hi, m in zip(ends[:-1], ends[1:], half.tolist()):
        inner = offsets[:offsets.searchsorted(m)]
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
    summed by a composite 24-point Gauss-Legendre rule, with one pass of
    the rule's kernel and one noise.pdf call. The panels are one length
    scale wide at every breakpoint (the smaller of the noise scale and the
    rule's own 1/sqrt(2 lam)) and widen by a sixteenth per panel away from
    it. Both noise models are location families, so the sum runs over the
    offset u = d - theta, where the density is evaluated exactly however
    narrow it is.

    Cost: a noise density narrower than the rule takes under 100 panels; a
    wide one over a sharp rule adds about 130 panels per factor e in beta
    over the length scale (1200 at lambda = 1e12 under unit Gaussian
    noise), so the cost stays bounded at any lambda or noise scale. A
    theta pays only for its breakpoints, its nodes, one pass of the rule's
    kernel (the plateau node beta rides along as the last node) and three
    dot products. The set-up that depends on the prior and the noise model
    alone (the model's reach, the length scale and the rule's constants)
    is memoised per (params, noise) pair, and the panel offsets per
    (length scale, count); each memo keeps the _SETUPS entries used last.

    Accuracy: the sum agrees with adaptive quadrature to about 5e-11, the
    quadrature's own error (the tests keep it as an oracle), and with a
    panel grid eight times finer to a few ulps. Risk and variance are
    integrated directly, as E(rule - theta)^2 and E(rule - mean)^2, rather
    than assembled from the moments, so risk == bias_sq + variance is a
    meaningful cross-check on the result.
    """
    theta = _real("theta", theta, "must be finite", math.isfinite, InputError)
    beta = params.beta
    with numeric_guard(f"rule statistics at theta={theta}"):
        noise, reach, h, k = _statistics_setup(params, noise)
        lo, hi = max(-beta - theta, -reach), min(beta - theta, reach)
        u = w = np.zeros(0)
        if lo < hi:
            points = sorted({lo, hi} | {p for p in (-theta, 0.0) if lo < p < hi})
            edges = _graded_panels(points, h)
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            nodes, weights = _gauss_legendre()
            u = (mid[:, None] + half[:, None] * nodes).ravel()
            w = (half[:, None] * weights).ravel() * noise.pdf(u, 0.0)
        # the plateau value, the rule at beta, rides along as the last node
        d = np.empty(u.size + 1)
        np.add(u, theta, out=d[:-1])
        d[-1] = beta
        r = _blockwise(_esr_block, d, k)
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
