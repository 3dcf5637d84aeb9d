import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epashrink import (
    DomainError,
    ElicitationConfig,
    InputError,
    SigmaEstimator,
    alpha_level,
    beta_level,
    estimate_sigma,
    lambda_from_s,
)
from epashrink.elicitation import BETA_FLOOR
from epashrink.errors import numeric_guard
from oracles import median_mad_sigma

# spike weights for levels 5..9 at J0=5, gamma=2.4, l=2 (4-decimal table)
ALPHA_TABLE = {5: 0.8105, 6: 0.9284, 7: 0.9641, 8: 0.9789, 9: 0.9864}


class TestAlphaLevel:
    def test_reproduces_reference_table(self):
        # the published 4-decimal table truncates (j=8 is 0.97898778...),
        # so agreement to 4 decimals means within 1e-4
        for j, expected in ALPHA_TABLE.items():
            assert alpha_level(j, 5, 2.4, 2.0) == pytest.approx(expected, abs=1e-4)

    def test_simple_value(self):
        # j = J0 + 1, gamma = 2, l = 1 -> 1 - 1/4
        assert alpha_level(1, 0, 2.0, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_strictly_increasing_in_level(self):
        vals = [alpha_level(j, 5, 2.4, 2.0) for j in range(5, 15)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)

    def test_level_below_coarse_rejected(self):
        with pytest.raises(DomainError):
            alpha_level(3, 5, 2.4, 2.0)

    def test_degenerate_offset_rejected(self):
        # j = J0 with l = 1 would give a zero spike weight
        with pytest.raises(DomainError):
            alpha_level(5, 5, 2.0, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        j=st.integers(0, 20),
        j0=st.integers(0, 20),
        gamma=st.floats(0.1, 10.0),
        l=st.floats(0.1, 10.0),
    )
    def test_range_property(self, j, j0, gamma, l):
        if j < j0 or j - j0 + l <= 1.0:
            with pytest.raises(DomainError):
                alpha_level(j, j0, gamma, l)
        else:
            assert 0.0 < alpha_level(j, j0, gamma, l) < 1.0


class TestBetaLevel:
    def test_max_abs(self):
        assert beta_level([-3.0, 1.0, 2.0]) == 3.0

    def test_all_zero_block_floored(self):
        # the floor shows only as the value it leaves
        assert beta_level([0.0, 0.0]) == BETA_FLOOR == 1e-8
        assert beta_level([-0.0, 0.0]) == BETA_FLOOR

    def test_empty_block_rejected(self):
        with pytest.raises(InputError):
            beta_level([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=64))
    def test_dominates_block(self, block):
        beta = beta_level(block)
        arr = np.abs(np.asarray(block))
        assert np.all(beta >= arr) or beta == 1e-8
        if arr.max() > 0:
            assert beta == arr.max()


class TestEstimateSigma:
    def test_mad_of_equal_magnitudes(self):
        coeffs = [0.6745, -0.6745, 0.6745, -0.6745]
        assert estimate_sigma(coeffs, SigmaEstimator.MAD) == pytest.approx(1.0, abs=1e-12)

    def test_sample_sd_two_points(self):
        assert estimate_sigma([1.0, -1.0], SigmaEstimator.SAMPLE_SD) == pytest.approx(
            math.sqrt(2), abs=1e-12
        )

    def test_too_few_coefficients(self):
        with pytest.raises(InputError):
            estimate_sigma([1.0], SigmaEstimator.MAD)

    def test_both_estimators_consistent_on_gaussian_noise(self):
        # n = 1024 draws: both estimators land within 10% of sigma;
        # seeded, and the bound holds with large margin (~1% expected error)
        sigma = 2.3
        rng = np.random.default_rng(99)
        draws = sigma * rng.standard_normal(1024)
        for method in SigmaEstimator:
            est = estimate_sigma(draws, method)
            assert abs(est - sigma) < 0.1 * sigma

    def test_accepts_string_method(self):
        assert estimate_sigma([1.0, -1.0], "sd") == pytest.approx(math.sqrt(2))

    @pytest.mark.parametrize("method", list(SigmaEstimator))
    @pytest.mark.parametrize("m", [2, 3, 64, 1024])
    def test_stack_gets_one_estimate_per_row_bit_for_bit(self, method, m):
        scales = [[1e-6], [1], [3], [1e4], [1e9]]
        rows = np.random.default_rng(m).standard_normal((5, m)) * scales
        est = estimate_sigma(rows, method)
        assert est.shape == (5,)
        for r, row in enumerate(rows):
            assert est[r] == estimate_sigma(row, method)


def _traced_peak(func, *args):
    """func(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = func(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_beta_level_makes_no_copy_of_the_block():
    # the largest magnitude comes from the two extremes, without a
    # temporary array of absolute values the size of the block
    block = np.random.default_rng(5).standard_normal(262144)
    beta, peak = _traced_peak(beta_level, block)
    assert beta == np.max(np.abs(block))
    assert peak < block.nbytes / 8


def test_mad_estimate_makes_one_copy_of_the_block():
    # the median partitions its fresh array of absolute values in place
    # rather than copying it again; the input itself is left untouched
    block = np.random.default_rng(6).standard_normal(262144)
    kept = block.copy()
    estimate_sigma(block[:2], SigmaEstimator.MAD)  # any first-call imports
    sigma, peak = _traced_peak(estimate_sigma, block, SigmaEstimator.MAD)
    assert np.array_equal(block, kept)
    assert sigma == np.median(np.abs(block)) / 0.6745
    assert peak < 1.5 * block.nbytes


@st.composite
def _mad_blocks(draw):
    """Stacks of coefficient blocks of odd or even width: magnitudes drawn
    from a small set, so ties and zeros are common, each row at a scale
    from 1e-300 to 1e300, with random signs."""
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    width = draw(st.one_of(st.integers(2, 9), st.integers(10, 300)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = draw(st.sampled_from([np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0, 2.0]),
                                   None]))
    size = shape + (width,)
    values = rng.standard_normal(size) if levels is None else rng.choice(levels, size)
    scales = 10.0 ** rng.integers(-300, 301, shape + (1,))
    return values * scales * rng.choice([-1.0, 1.0], size)


@settings(max_examples=300, deadline=None)
@given(_mad_blocks())
def test_mad_matches_the_median_oracle_bit_for_bit(block):
    got = estimate_sigma(block, SigmaEstimator.MAD)
    want = median_mad_sigma(block)
    assert np.array_equal(got, want)
    assert np.shape(got) == block.shape[:-1]


@pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 4), (1000, 300), (1000, 301),
                                   (2, 32768), (2, 32769)])
def test_mad_of_long_short_and_many_blocks_matches_the_median_oracle(shape):
    # a partition at h leaves the largest entry below h at h - 1 in most
    # rows, not all: some of the 1000 rows of width 300 catch a median that
    # takes that entry for the lower middle
    rows = np.random.default_rng(shape[-1]).standard_normal(shape)
    assert np.array_equal(estimate_sigma(rows, "mad"), median_mad_sigma(rows))


def test_mad_with_a_nan_is_nan_as_the_median_is():
    rows = np.random.default_rng(3).standard_normal((4, 8))
    rows[0, 5] = np.nan
    rows[1, :6] = np.nan
    rows[3, 0] = -np.inf
    got = estimate_sigma(rows, "mad")
    assert np.array_equal(got, median_mad_sigma(rows), equal_nan=True)
    assert list(np.isnan(got)) == [True, True, False, False]


def test_beta_level_of_a_stack_floors_zero_rows():
    block = np.array([[-3.0, 1.0], [0.0, 0.0], [0.5, -0.25]])
    betas = beta_level(block)
    assert np.array_equal(betas, [3.0, BETA_FLOOR, 0.5])
    assert betas[1] == beta_level(block[1])


class TestLambdaFromS:
    def test_reference_point(self):
        assert lambda_from_s(1.0, 1.0, 2.0) == pytest.approx(
            1.0 + 0.5 * math.exp(-0.5), abs=1e-12
        )

    def test_vanishes_for_large_s(self):
        assert lambda_from_s(100.0) < 1e-3
        # where s / tau is past the double range the decay term is its
        # limit, 0, with no overflow raised under the pipeline's guard
        with numeric_guard("shrinkage"):
            assert lambda_from_s(1e100, 1.0, 1e-300) == 1e-200

    def test_small_s_behaves_like_inverse_square(self):
        s = 1e-4
        assert lambda_from_s(s) == pytest.approx(1.0 / s**2, rel=1e-6)

    def test_strictly_decreasing(self):
        grid = np.geomspace(1e-3, 1e3, 400)
        vals = [lambda_from_s(float(s)) for s in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_positive_everywhere(self):
        for s in np.geomspace(1e-6, 1e6, 50):
            assert lambda_from_s(float(s)) > 0.0

    def test_invalid_s_rejected(self):
        with pytest.raises(DomainError):
            lambda_from_s(0.0)
        with pytest.raises(DomainError):
            lambda_from_s(-1.0)


class TestConfig:
    def test_defaults(self):
        cfg = ElicitationConfig()
        assert cfg.gamma == 2.4
        assert cfg.l == 2.0
        assert cfg.sigma_estimator is SigmaEstimator.MAD
        assert cfg.coarse_level == 0

    def test_invalid_values_rejected(self):
        with pytest.raises(DomainError):
            ElicitationConfig(gamma=0.0)
        with pytest.raises(DomainError):
            ElicitationConfig(tau=-1.0)
        with pytest.raises(DomainError):
            ElicitationConfig(coarse_level=-1)
        for name in ("gamma", "l", "c", "tau"):
            for value in (math.inf, -math.inf, math.nan, "2", None, 10**400):
                with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
                    ElicitationConfig(**{name: value})
        # named when the config is built, not at the first denoise
        for field, value, message in (
                ("coarse_level", 1.5, "coarse_level must be a whole number, got 1.5"),
                ("coarse_level", "1", "coarse_level must be a whole number, got '1'"),
                ("sigma_estimator", "bogus", "unknown sigma_estimator 'bogus'; available: "
                                             "['sd', 'mad']"),
                ("sigma_estimator", None, "unknown sigma_estimator None; available: "
                                          "['sd', 'mad']")):
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                ElicitationConfig(**{field: value})
        # c and tau whose rate can overflow: c / tau, or 1 + 4 c tau / e^2,
        # the largest lambda * s^2; each failed inside esr at a study scale
        # within range before it was rejected here
        for c, tau in ((1e300, 1e-10), (1e300, 1e10), (1e308, 30.0), (1e308, 0.5)):
            message = (f"c {c!r} and tau {tau!r} make the rate overflow: "
                       "c / tau and 1 + 4 c tau / e^2 must be finite")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                ElicitationConfig(c=c, tau=tau)
        # at the edges both stay finite
        for c, tau in ((1e300, 1.0), (1e154, 1e154), (1.0, 1e-300), (1e-300, 1e300)):
            ElicitationConfig(c=c, tau=tau)
