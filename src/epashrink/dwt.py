"""Orthogonal periodic discrete wavelet transform for Daubechies wavelets.

The decomposition is the classic pyramid filter-bank scheme with circular
(periodic) boundary handling, which keeps the transform exactly orthogonal
for every dyadic length, including blocks shorter than the filter. Each
step is a circular correlation along the last axis
(``scipy.ndimage.correlate1d`` in wrap mode), so the transform works
unchanged on stacks of signals of shape ``(..., n)``, row for row
bit-identical to one call per row. The coefficients live in one array of
the signal's shape in the packed layout ``[scaling | d_J0 | ... | d_J-1]``
(Mallat 1989), and the per-level blocks are views into that array. Filter
taps are produced on demand by spectral factorization rather than from a
hard-coded table; the construction runs in extended precision so the taps
are correctly rounded doubles and the orthonormality residuals sit at
machine epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import mpmath as mp
import numpy as np
from scipy.ndimage import correlate1d

from .errors import DomainError, InputError, NumericError, numeric_guard

MAX_ORDER = 10

# tolerances of DaubechiesFilter.validate
_SUM_TOL = 1e-12
_ORTH_TOL = 1e-12
_MOMENT_TOL = 1e-8

__all__ = [
    "DaubechiesFilter",
    "WaveletPyramid",
    "make_daubechies_filter",
    "dwt_forward",
    "dwt_inverse",
]


def _lowpass_taps(order: int) -> tuple[float, ...]:
    """Extremal-phase Daubechies lowpass taps (2*order of them) as floats.

    Spectral factorization: the roots of the degree-(order-1) binomial
    polynomial P(y) = sum_k C(order-1+k, k) y^k are mapped to the z-plane
    through y = -(z-1)^2/(4z); keeping the z-root inside the unit circle of
    each pair gives the minimum-phase factor. Everything runs at 60 decimal
    digits so the only error left in the result is the final rounding to
    binary64.
    """
    with mp.workdps(60):
        if order == 1:
            taps = [mp.mpf(1), mp.mpf(1)]
        else:
            pcoeffs = [mp.binomial(order - 1 + k, k) for k in range(order)]
            yroots = mp.polyroots(list(reversed(pcoeffs)), maxsteps=500, extraprec=200)
            zroots = []
            for y in yroots:
                b = 1 - 2 * y
                s = mp.sqrt(b * b - 1)
                zroots.append(b + s if abs(b + s) < 1 else b - s)
            # expand prod_j (z - z_j), ascending powers
            poly = [mp.mpc(1)]
            for zr in zroots:
                nxt = [mp.mpc(0)] * (len(poly) + 1)
                for i, c in enumerate(poly):
                    nxt[i] -= c * zr
                    nxt[i + 1] += c
                poly = nxt
            # multiply by (1 + z)^order
            binom = [mp.binomial(order, k) for k in range(order + 1)]
            taps = [mp.mpc(0)] * (len(poly) + order)
            for i, c in enumerate(poly):
                for k, b in enumerate(binom):
                    taps[i + k] += c * b
            taps = [mp.re(c) for c in taps]
        total = sum(taps)
        taps = [c * mp.sqrt(2) / total for c in taps]
        # ascending-power coefficients come out time-reversed relative to the
        # conventional extremal-phase tables (energy front-loaded)
        return tuple(float(c) for c in reversed(taps))


@dataclass(frozen=True)
class DaubechiesFilter:
    """Quadrature-mirror filter pair for a Daubechies wavelet.

    ``lowpass`` holds the 2N scaling taps in the extremal-phase convention;
    ``highpass[k] = (-1)^k * lowpass[2N-1-k]``.
    """

    vanishing_moments: int
    lowpass: np.ndarray = field(repr=False)
    highpass: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return 2 * self.vanishing_moments

    def validate(self) -> None:
        """Check the defining filter identities, raising on violation.

        The moment check is scale-normalized: raw sums k^p * g[k] reach
        ~1e11 * |g| for order 10, so an absolute comparison would only
        measure the rounding of the taps, not the construction.
        """
        h, g = self.lowpass, self.highpass
        n = self.vanishing_moments
        if abs(h.sum() - math.sqrt(2)) > _SUM_TOL:
            raise DomainError(f"lowpass sum {h.sum()!r} != sqrt(2)")
        if abs(h @ h - 1.0) > _ORTH_TOL:
            raise DomainError("lowpass taps are not unit norm")
        for m in range(1, n):
            if abs(h[2 * m:] @ h[: -2 * m]) > _ORTH_TOL:
                raise DomainError(f"lowpass shift-{2 * m} orthogonality fails")
        expected_g = ((-1.0) ** np.arange(2 * n)) * h[::-1]
        if np.max(np.abs(g - expected_g)) > 0:
            raise DomainError("highpass is not the quadrature mirror of lowpass")
        k = np.arange(2 * n, dtype=float)
        for p in range(n):
            num = abs(np.dot(k**p, g))
            den = np.dot(k**p, np.abs(g))
            if num > _MOMENT_TOL * max(den, 1.0):
                raise DomainError(f"moment p={p} does not vanish: {num!r}")


@lru_cache(maxsize=None)
def _validated_filter(order: int) -> DaubechiesFilter:
    """Build and validate the filter of one order, once per process.

    The taps are made read-only because every caller shares the result.
    """
    h = np.array(_lowpass_taps(order))
    g = ((-1.0) ** np.arange(2 * order)) * h[::-1]
    filt = DaubechiesFilter(order, h, g)
    filt.validate()
    h.setflags(write=False)
    g.setflags(write=False)
    return filt


def make_daubechies_filter(vanishing_moments: int) -> DaubechiesFilter:
    """Build the Daubechies filter with the given number of vanishing moments.

    Supported orders are 1 (Haar) through 10. The filter is validated
    against the filter identities the first time an order is requested;
    later calls return the same object, whose taps are read-only.
    """
    if not isinstance(vanishing_moments, (int, np.integer)):
        raise DomainError("vanishing_moments must be an integer")
    if not 1 <= vanishing_moments <= MAX_ORDER:
        raise DomainError(
            f"unsupported wavelet order {vanishing_moments}; expected 1..{MAX_ORDER}"
        )
    return _validated_filter(int(vanishing_moments))


@dataclass
class WaveletPyramid:
    """Coefficients of a signal, or a stack ``(..., n)`` of them, in the
    packed layout: ``scaling`` is the view ``coeffs[..., :2**coarse_level]``
    and ``details[j]`` the view ``coeffs[..., 2**j:2**(j+1)]``. Writing into
    a view writes the pyramid; ``details`` itself is read-only.
    """

    coarse_level: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = self.coeffs.shape[-1] if self.coeffs.ndim else 0
        if n < 2 or n & (n - 1):
            raise InputError(f"length {n} along the last axis is not a power of two >= 2")
        if not 0 <= self.coarse_level < self.depth:
            raise InputError(
                f"coarse_level {self.coarse_level} out of range for length {n}")

    @property
    def n(self) -> int:
        return self.coeffs.shape[-1]

    @property
    def depth(self) -> int:
        """Total dyadic depth J, i.e. the transform acted on 2**J samples."""
        return self.n.bit_length() - 1

    def levels(self) -> list[int]:
        return list(range(self.coarse_level, self.depth))

    @property
    def scaling(self) -> np.ndarray:
        return self.coeffs[..., :2**self.coarse_level]

    @property
    def details(self) -> MappingProxyType:
        return MappingProxyType({j: self.coeffs[..., 2**j:2**(j + 1)]
                                 for j in self.levels()})

    def energy(self):
        """Squared L2 norm of all coefficients: a float, or one per row of
        a stack."""
        e = np.vecdot(self.coeffs, self.coeffs)
        return e if e.ndim else float(e)

    def copy(self) -> "WaveletPyramid":
        return WaveletPyramid(self.coarse_level, self.coeffs.copy())


def _correlate(a: np.ndarray, taps: np.ndarray, origin: int) -> np.ndarray:
    """Circular correlation of a float array with taps along the last axis.

    The output array is passed in because scipy otherwise looks up the
    dtype by name, which on short blocks costs about as much as the C loop.
    """
    return correlate1d(a, taps, axis=-1, output=np.zeros(a.shape), mode="wrap",
                       origin=origin)


def _analysis_step(a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One decimating filter-bank step along the last axis.

    ``approx[..., k] = sum_m a[..., (2k + m) % n] * lo[m]`` and likewise
    ``detail`` with ``hi``: a circular correlation kept at even offsets.
    Works on any leading shape; blocks shorter than the filter wrap more
    than once.
    """
    origin = -(lo.size // 2)
    return (_correlate(a, lo, origin)[..., ::2], _correlate(a, hi, origin)[..., ::2])


def _synthesis_step(approx: np.ndarray, detail: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_analysis_step`; exact inverse by orthogonality.

    Each block is zero-upsampled into the even slots and circularly
    convolved with its filter (a correlation with the reversed taps).
    """
    origin = lo.size - 1 - lo.size // 2
    up = np.zeros(approx.shape[:-1] + (2 * approx.shape[-1],))
    up[..., ::2] = approx
    out = _correlate(up, lo[::-1], origin)
    up[..., ::2] = detail
    out += _correlate(up, hi[::-1], origin)
    return out


def _require_finite(what: str, values: np.ndarray) -> None:
    # ndimage's C loops ignore np.errstate, so an overflow inside
    # correlate1d shows up only as inf or nan in its output
    if not np.isfinite(values).all():
        raise NumericError(f"{what}: result is not finite")


def dwt_forward(y, filt: DaubechiesFilter, coarse_level: int = 0) -> WaveletPyramid:
    """Decompose a dyadic-length signal into a wavelet pyramid.

    Parameters
    ----------
    y : array_like
        Samples, shape ``(n,)`` or a stack ``(..., n)`` of signals; the
        length n must be a power of two, 2**J.
    filt : DaubechiesFilter
        Analysis filter pair.
    coarse_level : int
        Level J0 at which the decomposition stops; the scaling block then
        carries 2**J0 coefficients. Defaults to a full decomposition.

    Returns
    -------
    WaveletPyramid of the input's shape, in the packed layout, with detail
    levels coarse_level..J-1, each block of shape ``(..., 2**j)``. The map
    is orthogonal, so the coefficient energy equals the signal energy.
    Raises InputError unless n is a power of two >= 2 and 0 <= J0 < J, and
    NumericError if a coefficient is not finite (an overflow, or a
    non-finite sample).
    """
    approx = np.asarray(y, dtype=float)
    # the signal has the shape of its pyramid, so the pyramid's checks apply
    levels = WaveletPyramid(coarse_level, approx).levels()
    details = []
    for _ in levels:
        approx, detail = _analysis_step(approx, filt.lowpass, filt.highpass)
        details.append(detail)
    # packed once, at the end: writing each step into one array would free
    # the step's full-length temporaries at the top of the heap, where the
    # allocator returns them to the system and the next step faults them in
    coeffs = np.concatenate([approx, *reversed(details)], axis=-1)
    _require_finite("forward transform", coeffs)
    return WaveletPyramid(coarse_level, coeffs)


def dwt_inverse(pyramid: WaveletPyramid, filt: DaubechiesFilter) -> np.ndarray:
    """Reconstruct the signal from a pyramid; exact inverse of dwt_forward.

    Returns samples of the shape ``(..., n)`` of the pyramid's coefficient
    array. Raises NumericError if a sample is not finite (an overflow, or
    a non-finite coefficient).
    """
    approx = pyramid.scaling
    with numeric_guard("inverse transform"):
        for detail in pyramid.details.values():
            approx = _synthesis_step(approx, detail, filt.lowpass, filt.highpass)
    _require_finite("inverse transform", approx)
    return approx
