"""Orthogonal periodic discrete wavelet transform for Daubechies wavelets.

The decomposition is the classic pyramid filter-bank scheme with circular
(periodic) boundary handling, which keeps the transform exactly orthogonal
for every dyadic length, including blocks shorter than the filter. Each
step is a circular correlation along the last axis, kept at the even
offsets, and computed with numpy alone as a matrix product against a small
read-only matrix cached per filter: a dense periodic matrix for up to
2 * _CHANNEL_OUTPUTS samples, and past that one block-Toeplitz matrix that
maps each block of that many samples, plus the head of the next block, to
their coefficients. Every product treats each row of a stack on its own,
so the transform works unchanged on stacks of signals of shape
``(..., n)``, row for row bit-identical to one call per row. The
coefficients live in one array of the signal's shape in the packed layout
``[scaling | d_J0 | ... | d_J-1]`` (Mallat 1989), and the per-level blocks
are views into that array. Filter taps come from a constant table of the
ten extremal-phase filters, the correctly rounded doubles of their spectral
factorization, so the orthonormality residuals sit at machine epsilon. The
table is not re-checked at run time: the tests derive every tap again in
extended precision, compare bit for bit, and check the filter identities.
The index-matrix gather and np.add.at scatter steps that the matrix
products replaced live on in tests/test_dwt.py as oracles for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DomainError, InputError, NumericError

MAX_ORDER = 10

__all__ = [
    "DaubechiesFilter",
    "WaveletPyramid",
    "make_daubechies_filter",
    "dwt_forward",
    "dwt_inverse",
]


# Extremal-phase Daubechies lowpass taps by order, the filters of Daubechies
# (1992, Ten Lectures on Wavelets, Table 6.1) normalized to sum sqrt(2). Each
# tap is the correctly rounded double of the spectral factorization, which
# tests/test_dwt.py carries out in extended precision and compares bit for bit.
_LOWPASS = {
    1: (0.7071067811865476, 0.7071067811865476),
    2: (0.48296291314453416, 0.8365163037378079, 0.2241438680420134,
        -0.12940952255126037),
    3: (0.33267055295008263, 0.8068915093110925, 0.45987750211849154,
        -0.13501102001025458, -0.08544127388202666, 0.03522629188570953),
    4: (0.2303778133088965, 0.7148465705529157, 0.6308807679298589,
        -0.027983769416859854, -0.18703481171909309, 0.030841381835560764,
        0.0328830116668852, -0.010597401785069032),
    5: (0.16010239797419293, 0.6038292697971896, 0.7243085284377729,
        0.13842814590132074, -0.24229488706638203, -0.032244869584638375,
        0.07757149384004572, -0.006241490212798274, -0.012580751999081999,
        0.0033357252854737712),
    6: (0.11154074335010947, 0.49462389039845306, 0.7511339080210954,
        0.31525035170919763, -0.22626469396543983, -0.12976686756726194,
        0.09750160558732304, 0.027522865530305727, -0.03158203931748603,
        0.0005538422011614961, 0.004777257510945511, -0.0010773010853084796),
    7: (0.07785205408500918, 0.3965393194819173, 0.7291320908462351,
        0.4697822874051931, -0.14390600392856498, -0.22403618499387498,
        0.07130921926683026, 0.08061260915108308, -0.03802993693501441,
        -0.01657454163066688, 0.01255099855609984, 0.0004295779729213665,
        -0.0018016407040474908, 0.00035371379997452024),
    8: (0.05441584224310401, 0.31287159091429995, 0.6756307362972898,
        0.5853546836542067, -0.015829105256349306, -0.2840155429615469,
        0.0004724845739132828, 0.12874742662047847, -0.017369301001807547,
        -0.044088253930794755, 0.013981027917398282, 0.008746094047405777,
        -0.004870352993451574, -0.00039174037337694705, 0.0006754494064505693,
        -0.00011747678412476953),
    9: (0.038077947363878345, 0.24383467461259034, 0.6048231236901112,
        0.6572880780513005, 0.13319738582500756, -0.2932737832791749,
        -0.09684078322297646, 0.14854074933810638, 0.03072568147933338,
        -0.06763282906132997, 0.00025094711483145197, 0.022361662123679096,
        -0.004723204757751397, -0.00428150368246343, 0.0018476468830562265,
        0.00023038576352319597, -0.0002519631889427101, 3.93473203162716e-05),
    10: (0.026670057900555554, 0.1881768000776915, 0.5272011889317256,
         0.6884590394536035, 0.2811723436605775, -0.24984642432731538,
         -0.19594627437737705, 0.12736934033579325, 0.09305736460357235,
         -0.07139414716639708, -0.029457536821875813, 0.033212674059341,
         0.0036065535669561697, -0.010733175483330575, 0.001395351747052901,
         0.001992405295185056, -0.0006858566949597116, -0.00011646685512928545,
         9.358867032006959e-05, -1.3264202894521244e-05),
}


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


@lru_cache(maxsize=None)
def _cached_filter(order: int) -> DaubechiesFilter:
    """Build the filter of one order, once per process.

    The taps are made read-only because every caller shares the result.
    """
    h = np.array(_LOWPASS[order])
    g = ((-1.0) ** np.arange(2 * order)) * h[::-1]
    h.setflags(write=False)
    g.setflags(write=False)
    return DaubechiesFilter(order, h, g)


def make_daubechies_filter(vanishing_moments: int) -> DaubechiesFilter:
    """Build the Daubechies filter with the given number of vanishing moments.

    Supported orders are 1 (Haar) through 10. The filter is built from the
    tap table the first time an order is requested; later calls return the
    same object, whose taps are read-only.
    """
    if not isinstance(vanishing_moments, (int, np.integer)):
        raise DomainError("vanishing_moments must be an integer")
    if not 1 <= vanishing_moments <= MAX_ORDER:
        raise DomainError(
            f"unsupported wavelet order {vanishing_moments}; expected 1..{MAX_ORDER}"
        )
    return _cached_filter(int(vanishing_moments))


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


_CHANNEL_OUTPUTS = 32  # outputs per channel of one block of the blocked steps


def _step_matrix(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """The cached, read-only matrix of one filter-bank step on n samples.

    For n up to one block, B = 2 * _CHANNEL_OUTPUTS, it is the dense
    periodic (n, n) matrix: n samples times it are ``[approx | detail]``.
    Past that it is the (B + L - 2, B) block matrix, L being the filter
    length, the same for every longer n: B samples and the L - 2 that
    follow them, times it, are their B / 2 approximation and B / 2 detail
    coefficients. So the cache holds one dense matrix per filter and short
    length, and one block matrix per filter, at most about 40 KB each.
    """
    rows = n if n <= 2 * _CHANNEL_OUTPUTS else 2 * _CHANNEL_OUTPUTS + lo.size - 2
    return _taps_matrix(lo.tobytes(), hi.tobytes(), rows)


@lru_cache(maxsize=None)
def _taps_matrix(lo_bytes: bytes, hi_bytes: bytes, rows: int) -> np.ndarray:
    """``m[(2k + j) % rows, k] += lo[j]`` and ``m[(2k + j) % rows, half + k]
    += hi[j]`` for the ``half`` outputs per channel; the wrap acts only in
    the dense matrices, whose blocks may be shorter than the filter."""
    lo, hi = np.frombuffer(lo_bytes), np.frombuffer(hi_bytes)
    half = min(rows, 2 * _CHANNEL_OUTPUTS) // 2
    k = np.arange(half)[:, None]
    at = (2 * k + np.arange(lo.size)) % rows
    m = np.zeros((rows, 2 * half))
    np.add.at(m, (at, k), lo)
    np.add.at(m, (at, half + k), hi)
    m.setflags(write=False)
    return m


def _analysis_step(a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """One decimating filter-bank step along the last axis.

    ``approx[..., k] = sum_m a[..., (2k + m) % n] * lo[m]`` and likewise
    ``detail`` with ``hi``: a circular correlation kept at even offsets,
    computed as a product with the step matrix. Short blocks go through the
    dense matrix one row at a time, as ``(..., 1, n)`` products. Longer
    ones are cut into blocks of 2 * _CHANNEL_OUTPUTS samples; each block,
    followed by the first L - 2 samples of the next one (cyclically),
    times the block matrix gives that block's coefficients. Either way
    each row of a stack goes through the same products as it would alone,
    so it comes out bit for bit the same, and the steps act on any leading
    shape.
    """
    n = a.shape[-1]
    m = _step_matrix(lo, hi, n)
    if n <= 2 * _CHANNEL_OUTPUTS:
        out = (a[..., None, :] @ m)[..., 0, :]
        return out[..., :n // 2], out[..., n // 2:]
    lead = a.shape[:-1]
    blocks = a.reshape(*lead, n // (2 * _CHANNEL_OUTPUTS), 2 * _CHANNEL_OUTPUTS)
    # the window of a block overlaps the next, so a view of the windows is
    # not a BLAS operand: the block and the next one's head are two products
    heads = blocks[..., :lo.size - 2]
    next_heads = np.concatenate([heads[..., 1:, :], heads[..., :1, :]], axis=-2)
    out = blocks @ m[:2 * _CHANNEL_OUTPUTS]
    out += next_heads @ m[2 * _CHANNEL_OUTPUTS:]
    return (out[..., :_CHANNEL_OUTPUTS].reshape(*lead, n // 2),
            out[..., _CHANNEL_OUTPUTS:].reshape(*lead, n // 2))


def _synthesis_step(approx: np.ndarray, detail: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_analysis_step`; exact inverse by orthogonality.

    The product with the transposed step matrix: block by block, each
    block's coefficients make its 2 * _CHANNEL_OUTPUTS samples, and the
    previous block's (cyclically) add into the first L - 2 of them, as two
    slice adds: the blocks after the first, then the wrap into block 0.
    Neither step calls np.roll, which costs more per call than the gather
    or the adds it would replace.
    """
    half = approx.shape[-1]
    m = _step_matrix(lo, hi, 2 * half)
    if half <= _CHANNEL_OUTPUTS:
        coeffs = np.concatenate([approx, detail], axis=-1)
        return (coeffs[..., None, :] @ m.T)[..., 0, :]
    lead = approx.shape[:-1]
    shape = (*lead, half // _CHANNEL_OUTPUTS, _CHANNEL_OUTPUTS)
    coeffs = np.concatenate([approx.reshape(shape), detail.reshape(shape)], axis=-1)
    out = coeffs @ m[:2 * _CHANNEL_OUTPUTS].T
    tail = coeffs @ m[2 * _CHANNEL_OUTPUTS:].T
    out[..., 1:, :lo.size - 2] += tail[..., :-1, :]
    out[..., 0, :lo.size - 2] += tail[..., -1, :]
    return out.reshape(*lead, 2 * half)


def _require_finite(what: str, values: np.ndarray) -> None:
    # the steps run with numpy's floating-point errors ignored, since BLAS
    # raises the flags for a whole product, not for the row that overflowed,
    # and an inf passed in raises them too; so an overflow, or a non-finite
    # value passed in, shows up only as inf or nan in the output, which is
    # checked here instead
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
    with np.errstate(all="ignore"):
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
    with np.errstate(all="ignore"):
        for detail in pyramid.details.values():
            approx = _synthesis_step(approx, detail, filt.lowpass, filt.highpass)
    _require_finite("inverse transform", approx)
    return approx
