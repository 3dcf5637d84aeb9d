import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from epashrink import (
    InputError,
    DomainError,
    NumericError,
    dwt_forward,
    dwt_inverse,
    make_daubechies_filter,
)
from epashrink.dwt import (
    _CHANNEL_OUTPUTS,
    _LOWPASS,
    MAX_ORDER,
    WaveletPyramid,
    _analysis_step,
    _forward,
    _step_matrix,
    _synthesis_step,
    _taps_matrix,
)
from oracles import concatenated_forward, roll_analysis_step, roll_synthesis_step

# published extremal-phase taps for two vanishing moments
DB2 = np.array([0.4829629131445341, 0.8365163037378079,
                0.2241438680420134, -0.1294095225512604])


def _lowpass_taps(order: int) -> tuple[float, ...]:
    """Extremal-phase Daubechies lowpass taps (2*order of them) as floats.

    Spectral factorization: the roots of the degree-(order-1) binomial
    polynomial P(y) = sum_k C(order-1+k, k) y^k are mapped to the z-plane
    through y = -(z-1)^2/(4z); keeping the z-root inside the unit circle of
    each pair gives the minimum-phase factor. Everything runs at 60 decimal
    digits so the only error left in the result is the final rounding to
    binary64. This is the oracle for the tap table in epashrink.dwt.
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


def _analysis_oracle(a, lo, hi):
    """Index-matrix form of one analysis step (1-D): gathers every window."""
    half = a.size // 2
    idx = (2 * np.arange(half)[:, None] + np.arange(lo.size)[None, :]) % a.size
    window = a[idx]
    return window @ lo, window @ hi


def _synthesis_oracle(approx, detail, lo, hi):
    """Scatter form of one synthesis step (1-D): the adjoint of the gather."""
    out_len = 2 * approx.size
    idx = (2 * np.arange(approx.size)[:, None] + np.arange(lo.size)[None, :]) % out_len
    out = np.zeros(out_len)
    np.add.at(out, idx, approx[:, None] * lo[None, :] + detail[:, None] * hi[None, :])
    return out


def test_haar_taps():
    f = make_daubechies_filter(1)
    assert np.allclose(f.lowpass, [1 / math.sqrt(2)] * 2, atol=1e-15)
    assert np.allclose(f.highpass, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)


def test_db2_taps_match_published_table():
    f = make_daubechies_filter(2)
    assert np.allclose(f.lowpass, DB2, atol=1e-10)


def test_tap_table_matches_spectral_factorization_bit_for_bit():
    assert sorted(_LOWPASS) == list(range(1, MAX_ORDER + 1))
    for order in _LOWPASS:
        oracle = np.array(_lowpass_taps(order))
        assert np.array_equal(np.array(_LOWPASS[order]), oracle), order
        assert np.array_equal(make_daubechies_filter(order).lowpass, oracle), order


@pytest.mark.parametrize("order", range(1, 11))
def test_filter_invariants(order):
    f = make_daubechies_filter(order)
    h, g = f.lowpass, f.highpass
    assert h.size == g.size == 2 * order
    assert abs(h.sum() - math.sqrt(2)) < 1e-12
    assert abs(h @ h - 1.0) < 1e-12
    for m in range(1, order):
        assert abs(h[2 * m:] @ h[:-2 * m]) < 1e-12
    # quadrature mirror relation is exact by construction
    np.testing.assert_array_equal(g, ((-1.0) ** np.arange(2 * order)) * h[::-1])
    # discrete moments of the highpass vanish (scale-normalized: the raw
    # p-th moment sum carries k^p ~ 1e11 at order 10, so tap rounding alone
    # makes an absolute comparison meaningless)
    k = np.arange(2 * order, dtype=float)
    for p in range(order):
        num = abs(np.dot(k**p, g))
        den = np.dot(k**p, np.abs(g))
        assert num <= 1e-8 * max(den, 1.0)


def test_moment_check_discriminates():
    # order-9 highpass must NOT annihilate the 9th moment: its normalized
    # residual sits orders of magnitude above the 1e-8 moment bound of
    # test_filter_invariants
    f = make_daubechies_filter(9)
    k = np.arange(18, dtype=float)
    num = abs(np.dot(k**9, f.highpass))
    den = np.dot(k**9, np.abs(f.highpass))
    assert num > 1e-7 * den


@pytest.mark.parametrize("order", [0, 11, -3, 2.5])
def test_unsupported_order_rejected(order):
    with pytest.raises(DomainError):
        make_daubechies_filter(order)


def test_filter_built_once_with_read_only_taps():
    f = make_daubechies_filter(10)
    assert make_daubechies_filter(10) is f
    assert make_daubechies_filter(np.int64(10)) is f
    assert not f.lowpass.flags.writeable
    assert not f.highpass.flags.writeable
    with pytest.raises(ValueError):
        f.lowpass[0] = 0.0


def test_constant_signal_has_zero_details():
    f = make_daubechies_filter(4)
    y = np.full(16, 3.7)
    p = dwt_forward(y, f)
    for block in p.details.values():
        assert np.max(np.abs(block)) < 1e-12
    assert abs(p.energy() - y @ y) < 1e-10


def test_zero_signal_gives_zero_pyramid():
    f = make_daubechies_filter(3)
    p = dwt_forward(np.zeros(64), f)
    assert p.energy() == 0.0


def test_white_noise_energy_preserved():
    rng = np.random.default_rng(7)
    y = rng.standard_normal(1024)
    p = dwt_forward(y, make_daubechies_filter(10))
    assert abs(p.energy() - y @ y) <= 1e-8 * (y @ y)


def test_non_dyadic_rejected():
    f = make_daubechies_filter(2)
    with pytest.raises(InputError):
        dwt_forward(np.zeros(100), f)


def test_bad_coarse_level_rejected():
    f = make_daubechies_filter(2)
    with pytest.raises(InputError):
        dwt_forward(np.zeros(16), f, coarse_level=4)
    with pytest.raises(InputError):
        dwt_forward(np.zeros(16), f, coarse_level=-1)


def test_pyramid_block_shape_validation():
    # the packed array needs a power-of-two last axis of at least 2
    for coeffs in (np.zeros(()), np.zeros(1), np.zeros(3), np.zeros(12)):
        with pytest.raises(InputError):
            WaveletPyramid(0, coeffs)
    # and the scaling block must leave at least one detail level
    for coarse_level in (-1, 4, 5):
        with pytest.raises(InputError):
            WaveletPyramid(coarse_level, np.zeros(16))
    p = WaveletPyramid(1, np.arange(16.0))
    assert (p.n, p.depth, p.levels()) == (16, 4, [1, 2, 3])
    assert p.scaling.tolist() == [0.0, 1.0]
    assert {j: b.tolist() for j, b in p.details.items()} == {
        1: [2.0, 3.0], 2: [4.0, 5.0, 6.0, 7.0], 3: list(np.arange(8.0, 16.0))}


def test_inverse_block_mismatch_rejected():
    # a block cannot be swapped for one of another shape: the details
    # mapping is read-only, so the inverse still sees the transform
    f = make_daubechies_filter(2)
    y = np.arange(16.0)
    p = dwt_forward(y, f)
    with pytest.raises(TypeError):
        p.details[3] = p.details[3][:4]
    assert p.details[3].shape == (8,)
    assert np.max(np.abs(dwt_inverse(p, f) - y)) < 1e-12


def test_details_are_views_and_assignment_raises():
    f = make_daubechies_filter(3)
    p = dwt_forward(np.random.default_rng(1).standard_normal(32), f, 2)
    before = p.coeffs.copy()
    with pytest.raises(TypeError):
        p.details[4] = np.zeros(16)
    with pytest.raises(TypeError):
        del p.details[4]
    assert np.array_equal(p.coeffs, before)
    # a write into a view writes the pyramid, and the copy is independent
    q = p.copy()
    q.details[3][1] = 5.0
    q.scaling[...] = 0.0
    assert q.coeffs[9] == 5.0 and not q.coeffs[:4].any()
    assert np.array_equal(p.coeffs, before)
    assert q.energy() == pytest.approx(float(q.coeffs @ q.coeffs), rel=1e-15)


def test_single_unit_detail_reconstructs_unit_norm():
    f = make_daubechies_filter(10)
    p = dwt_forward(np.zeros(512), f)
    p.details[7][3] = 1.0
    rec = dwt_inverse(p, f)
    assert abs(rec @ rec - 1.0) < 1e-12


def test_all_zero_pyramid_inverts_to_zero():
    f = make_daubechies_filter(5)
    p = dwt_forward(np.zeros(128), f)
    assert np.max(np.abs(dwt_inverse(p, f))) == 0.0


@pytest.mark.parametrize("order", range(1, 11))
def test_steps_match_oracles(order):
    # block lengths 2..65536, so also blocks shorter than the filter
    f = make_daubechies_filter(order)
    rng = np.random.default_rng(order)
    for log_n in range(1, 17):
        a = rng.standard_normal(2**log_n) * 10.0 ** rng.uniform(-3, 3)
        tol = 1e-13 * np.max(np.abs(a))
        for got, want in zip(_analysis_step(a, f.lowpass, f.highpass),
                             _analysis_oracle(a, f.lowpass, f.highpass)):
            assert np.max(np.abs(got - want)) <= tol
        approx, detail = a[::2], a[1::2]
        got = _synthesis_step(approx, detail, f.lowpass, f.highpass)
        want = _synthesis_oracle(approx, detail, f.lowpass, f.highpass)
        assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("n", [2, 8, 64])
def test_steps_on_batches_match_rows_bit_for_bit(n):
    f = make_daubechies_filter(10)
    rows = np.random.default_rng(n).standard_normal((5, n))
    approx, detail = _analysis_step(rows, f.lowpass, f.highpass)
    merged = _synthesis_step(approx, detail, f.lowpass, f.highpass)
    for r, row in enumerate(rows):
        row_approx, row_detail = _analysis_step(row, f.lowpass, f.highpass)
        assert np.array_equal(approx[r], row_approx)
        assert np.array_equal(detail[r], row_detail)
        assert np.array_equal(
            merged[r], _synthesis_step(row_approx, row_detail, f.lowpass, f.highpass))


def test_forward_overflow_raises_without_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError):
            dwt_forward(np.full(64, 1.7e308), make_daubechies_filter(10))
    assert not caught


def test_inverse_overflow_raises_without_warning():
    f = make_daubechies_filter(10)
    p = dwt_forward(np.zeros(64), f)
    for block in p.details.values():
        block[...] = 1.5e308
    assert np.array_equal(p.coeffs[1:], np.full(63, 1.5e308))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError):
            dwt_inverse(p, f)
    assert not caught


def test_inverse_overflow_inside_one_correlation_raises():
    # sample 0 of the synthesis is <w, detail>, with w the detail part of the
    # analysis of a unit impulse; aligning the block's signs with w sends it
    # to 1.5e308 * sum|w| > 1.7e308 inside one correlation, where no
    # floating-point flag is checked
    f = make_daubechies_filter(10)
    impulse = np.zeros(64)
    impulse[0] = 1.0
    w = _analysis_step(impulse, f.lowpass, f.highpass)[1]
    p = dwt_forward(np.zeros(64), f)
    p.details[5][...] = 1.5e308 * np.sign(w)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError):
            dwt_inverse(p, f)
    assert not caught


def test_forward_overflow_on_the_blocked_path_raises_without_warning():
    n = 8 * _CHANNEL_OUTPUTS
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError):
            dwt_forward(np.full(n, 1.7e308), make_daubechies_filter(10))
    assert not caught


def test_inverse_overflow_inside_one_product_on_the_blocked_path_raises():
    # as above, at a length whose finest steps use the block matrix: sample 0
    # sums the head of block 0 and the wrapped tail of the last block
    n = 8 * _CHANNEL_OUTPUTS
    f = make_daubechies_filter(10)
    impulse = np.zeros(n)
    impulse[0] = 1.0
    w = _analysis_step(impulse, f.lowpass, f.highpass)[1]
    p = dwt_forward(np.zeros(n), f)
    p.details[n.bit_length() - 2][...] = 1.5e308 * np.sign(w)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError):
            dwt_inverse(p, f)
    assert not caught


@pytest.mark.parametrize("n", [2 * _CHANNEL_OUTPUTS, 4 * _CHANNEL_OUTPUTS,
                               8 * _CHANNEL_OUTPUTS])
@pytest.mark.parametrize("order", [1, 2, 10])
def test_steps_around_the_block_size_match_rows_bit_for_bit(order, n):
    # 2 * _CHANNEL_OUTPUTS is the largest dense step, 4 * _CHANNEL_OUTPUTS
    # the smallest blocked one
    f = make_daubechies_filter(order)
    lead = (2, 3, 2)
    rows = np.random.default_rng(order * n).standard_normal(lead + (n,))
    approx, detail = _analysis_step(rows, f.lowpass, f.highpass)
    merged = _synthesis_step(approx, detail, f.lowpass, f.highpass)
    stacked = dwt_forward(rows, f)
    rec = dwt_inverse(stacked, f)
    for idx in np.ndindex(lead):
        row_approx, row_detail = _analysis_step(rows[idx], f.lowpass, f.highpass)
        assert np.array_equal(approx[idx], row_approx)
        assert np.array_equal(detail[idx], row_detail)
        assert np.array_equal(
            merged[idx], _synthesis_step(row_approx, row_detail, f.lowpass, f.highpass))
        single = dwt_forward(rows[idx], f)
        assert np.array_equal(stacked.coeffs[idx], single.coeffs)
        assert np.array_equal(rec[idx], dwt_inverse(single, f))


@settings(max_examples=80, deadline=None)
@given(
    order=st.integers(1, 10),
    # lengths around the block size, 2 * _CHANNEL_OUTPUTS, weighted there
    n=st.one_of(st.sampled_from([64, 128, 256]), st.sampled_from([2**k for k in range(1, 13)])),
    lead=st.sampled_from([(), (3,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_steps_match_the_roll_oracle_bit_for_bit(order, n, lead, seed):
    f = make_daubechies_filter(order)
    rows = np.random.default_rng(seed).standard_normal(lead + (n,))
    approx, detail = _analysis_step(rows, f.lowpass, f.highpass)
    want_approx, want_detail = roll_analysis_step(rows, f.lowpass, f.highpass)
    assert np.array_equal(approx, want_approx)
    assert np.array_equal(detail, want_detail)
    assert np.array_equal(_synthesis_step(approx, detail, f.lowpass, f.highpass),
                          roll_synthesis_step(approx, detail, f.lowpass, f.highpass))


@settings(max_examples=60, deadline=None)
@given(
    order=st.integers(1, 10),
    log_n=st.integers(1, 12),
    lead=st.sampled_from([(), (1,), (3,), (5,), (2, 3)]),
    coarse=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_into_given_buffers_is_the_concatenated_transform_bit_for_bit(
        order, log_n, lead, coarse, seed):
    # dwt_forward, into fresh buffers, and _forward with a scratch of half
    # the rows (rounded up), the first step in two row groups and the
    # second step's head products in the spent input, as a study chunk
    # runs it: each step's coefficients written straight into place give
    # the packing of fresh step outputs at the end, and dwt_forward leaves
    # its input as it was
    coarse = min(coarse, log_n - 1)
    f = make_daubechies_filter(order)
    y = np.random.default_rng(seed).standard_normal(lead + (2**log_n,))
    want = concatenated_forward(y, f, coarse)
    given_y = y.copy()
    assert np.array_equal(dwt_forward(given_y, f, coarse).coeffs, want)
    assert np.array_equal(given_y, y)
    rows = max(1, math.prod(lead))
    spent = y.copy()
    pyramid = _forward(spent, f, coarse, np.empty(y.shape), np.empty(-(-rows // 2) * 2**log_n),
                       spare=spent.reshape(-1))
    assert np.array_equal(pyramid.coeffs, want)


def test_step_matrices_are_read_only_and_built_once():
    f = make_daubechies_filter(7)
    lo, hi = f.lowpass, f.highpass
    y = np.random.default_rng(7).standard_normal(16 * _CHANNEL_OUTPUTS)
    dwt_inverse(dwt_forward(y, f), f)
    misses = _taps_matrix.cache_info().misses
    dwt_inverse(dwt_forward(y, f), f)
    assert _taps_matrix.cache_info().misses == misses
    for n in (2, 8, 2 * _CHANNEL_OUTPUTS, 4 * _CHANNEL_OUTPUTS):
        m = _step_matrix(lo, hi, n)
        assert m is _step_matrix(lo, hi, n)
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    # every length past 2 * _CHANNEL_OUTPUTS shares the one block matrix of
    # the filter
    block = 2 * _CHANNEL_OUTPUTS
    assert _step_matrix(lo, hi, 2 * block) is _step_matrix(lo, hi, 2**16)
    assert _step_matrix(lo, hi, 2 * block).shape == (block + lo.size - 2, block)
    g = make_daubechies_filter(6)
    assert _step_matrix(g.lowpass, g.highpass, 2 * block) is not _step_matrix(lo, hi, 2 * block)


@settings(max_examples=30, deadline=None)
@given(
    order=st.integers(1, 10),
    log_n=st.integers(1, 10),
    coarse=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_property(order, log_n, coarse, seed):
    coarse = min(coarse, log_n - 1)
    f = make_daubechies_filter(order)
    y = np.random.default_rng(seed).standard_normal(2**log_n)
    p = dwt_forward(y, f, coarse)
    assert abs(p.energy() - y @ y) <= 1e-8 * max(y @ y, 1.0)
    rec = dwt_inverse(p, f)
    assert np.max(np.abs(rec - y)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    order=st.integers(1, 10),
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_linearity(order, a, b, seed):
    f = make_daubechies_filter(order)
    rng = np.random.default_rng(seed)
    y1, y2 = rng.standard_normal((2, 256))
    p = dwt_forward(a * y1 + b * y2, f)
    p1 = dwt_forward(y1, f)
    p2 = dwt_forward(y2, f)
    assert np.max(np.abs(p.scaling - (a * p1.scaling + b * p2.scaling))) < 1e-10
    for j in p.levels():
        combined = a * p1.details[j] + b * p2.details[j]
        assert np.max(np.abs(p.details[j] - combined)) < 1e-10


def test_detail_variance_matches_noise_variance():
    # orthogonality: white N(0, sigma^2) stays white level by level; bound
    # the pooled sum of squares with chi-square quantiles at 99% confidence
    sigma = 1.7
    reps = 200
    n = 256
    f = make_daubechies_filter(10)
    rng = np.random.default_rng(123)
    pooled = {j: 0.0 for j in range(8)}
    for _ in range(reps):
        p = dwt_forward(sigma * rng.standard_normal(n), f)
        for j in p.levels():
            pooled[j] += float(p.details[j] @ p.details[j])
    for j, total in pooled.items():
        dof = reps * 2**j
        lo = chi2.ppf(0.005, dof) / dof
        hi = chi2.ppf(0.995, dof) / dof
        ratio = total / (dof * sigma**2)
        assert lo <= ratio <= hi, f"level {j}: ratio {ratio} outside [{lo}, {hi}]"


@pytest.mark.parametrize("coarse", [0, 3])
@pytest.mark.parametrize("order", [1, 4, 10])
def test_forward_and_inverse_on_stacks_match_rows_bit_for_bit(order, coarse):
    f = make_daubechies_filter(order)
    scales = [[1e-3], [1.0], [1e5], [7.0]]
    rows = np.random.default_rng(order).standard_normal((4, 256)) * scales
    stacked = dwt_forward(rows, f, coarse)
    assert stacked.scaling.shape == (4, 2**coarse)
    rec = dwt_inverse(stacked, f)
    assert rec.shape == rows.shape
    for r, row in enumerate(rows):
        single = dwt_forward(row, f, coarse)
        assert np.array_equal(stacked.scaling[r], single.scaling)
        for j in single.levels():
            assert stacked.details[j].shape == (4, 2**j)
            assert np.array_equal(stacked.details[j][r], single.details[j])
        assert np.array_equal(rec[r], dwt_inverse(single, f))
        assert stacked.energy()[r] == pytest.approx(single.energy(), rel=1e-14)


def test_forward_and_inverse_take_any_leading_shape():
    f = make_daubechies_filter(3)
    y = np.random.default_rng(2).standard_normal((2, 3, 32))
    p = dwt_forward(y, f, 1)
    assert p.details[4].shape == (2, 3, 16)
    rec = dwt_inverse(p, f)
    assert np.array_equal(rec[1, 2], dwt_inverse(dwt_forward(y[1, 2], f, 1), f))
    assert np.max(np.abs(rec - y)) < 1e-12


def test_stacked_pyramid_shape_validation():
    with pytest.raises(InputError):
        WaveletPyramid(0, np.zeros((2, 3)))
    with pytest.raises(InputError):
        WaveletPyramid(2, np.zeros((3, 4)))
    f = make_daubechies_filter(2)
    rows = np.random.default_rng(3).standard_normal((2, 16))
    p = dwt_forward(rows, f, 1)
    assert p.coeffs.shape == (2, 16)
    assert p.scaling.shape == (2, 2)
    assert [b.shape for b in p.details.values()] == [(2, 2), (2, 4), (2, 8)]
    with pytest.raises(TypeError):
        p.details[3] = p.details[3][:1]
    # a write into one row's view writes that row of the pyramid only
    p.details[3][1] = 0.0
    assert not p.coeffs[1, 8:].any() and p.coeffs[0, 8:].all()
    assert np.max(np.abs(dwt_inverse(p, f)[0] - rows[0])) < 1e-12


def test_stacked_forward_overflow_raises_without_warning():
    rows = np.zeros((3, 64))
    rows[1] = 1.7e308
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError):
            dwt_forward(rows, make_daubechies_filter(10))
    assert not caught
