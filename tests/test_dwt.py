import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from epashrink import (
    InputError,
    DomainError,
    dwt_forward,
    dwt_inverse,
    make_daubechies_filter,
)
from epashrink.dwt import WaveletPyramid

# published extremal-phase taps for two vanishing moments
DB2 = np.array([0.4829629131445341, 0.8365163037378079,
                0.2241438680420134, -0.1294095225512604])


def test_haar_taps():
    f = make_daubechies_filter(1)
    assert np.allclose(f.lowpass, [1 / math.sqrt(2)] * 2, atol=1e-15)
    assert np.allclose(f.highpass, [1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)


def test_db2_taps_match_published_table():
    f = make_daubechies_filter(2)
    assert np.allclose(f.lowpass, DB2, atol=1e-10)


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
    # residual sits orders of magnitude above the 1e-8 validation threshold
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
    with pytest.raises(InputError):
        WaveletPyramid(0, np.zeros(1), {0: np.zeros(3)})
    with pytest.raises(InputError):
        WaveletPyramid(1, np.zeros(1), {1: np.zeros(2)})


def test_inverse_block_mismatch_rejected():
    f = make_daubechies_filter(2)
    p = dwt_forward(np.arange(16.0), f)
    p.details[3] = p.details[3][:4]
    with pytest.raises(InputError):
        dwt_inverse(p, f)


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


@settings(max_examples=30, deadline=None)
@given(
    order=st.integers(1, 10),
    log_n=st.integers(3, 10),
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
