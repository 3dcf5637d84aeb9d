import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from epashrink import (
    DomainError,
    InputError,
    NumericError,
    Signal,
    TestFunctionKind,
    add_noise,
    generate_test_function,
)
from epashrink.signals import _raw_test_function, noise_rng, scaled_std
from oracles import looped_test_function


class TestSignalContainer:
    def test_non_dyadic_rejected(self):
        with pytest.raises(InputError):
            Signal(samples=np.zeros(100))

    def test_truth_length_checked(self):
        with pytest.raises(InputError):
            Signal(samples=np.zeros(8), truth=np.zeros(16))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_name_first_bad_index(self, bad):
        samples = np.zeros(16)
        samples[[5, 9]] = bad
        with pytest.raises(InputError, match=r"samples\[5\]"):
            Signal(samples=samples)

    def test_non_finite_truth_rejected(self):
        truth = np.zeros(8)
        truth[7] = np.inf
        with pytest.raises(InputError, match=r"truth\[7\]"):
            Signal(samples=np.zeros(8), truth=truth)

    def test_sd(self):
        s = Signal(samples=np.array([1.0, -1.0, 1.0, -1.0]))
        assert s.sd() == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-155, 1e-158, 1e-160, 1e-161])
    def test_sd_at_extreme_scales(self, scale):
        # squares of the samples overflow at 1e200 and turn subnormal below
        # about 1e-154; neither may warn or cost accuracy
        y = np.random.default_rng(1).standard_normal(64)
        assert Signal(scale * y).sd() / scale == pytest.approx(np.std(y), rel=1e-14)


class TestScaledStd:
    @settings(max_examples=200, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 4), st.integers(2, 32)), elements=st.one_of(
        st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))),
        st.integers(-1000, 1000), st.sampled_from([0, 1]))
    def test_scale_equivariant_by_powers_of_two(self, x, k, ddof):
        # 2**k * x is exact and holds no subnormal value
        scale = 2.0**k
        for axis in (None, -1):
            plain = scaled_std(x, ddof, axis)
            np.testing.assert_allclose(scaled_std(scale * x, ddof, axis), scale * plain,
                                       rtol=1e-14, atol=0)
            # at unit scale the value is np.std's, bit for bit
            assert np.array_equal(plain, np.std(x, axis=axis, ddof=ddof))

    def test_reduction_along_the_last_axis_is_each_slice_alone(self):
        # a study's mse_sd is one reduction over (rules, snrs, replications);
        # every slice, on np.std's path or on the rescaled one where its
        # squares overflow or underflow, is the value of its own call
        x = np.random.default_rng(3).uniform(0.5, 2.0, (2, 4, 5))
        x *= np.array([[1.0, 1e-200, 1e200, 1e300], [1e-310, 7.0, 1e-160, 1.7e308 / 2]])[..., None]
        x[1, 1] = 3.0  # a constant slice
        for ddof in (0, 1):
            sd = scaled_std(x, ddof, axis=-1)
            assert sd.shape == (2, 4)
            for i, j in np.ndindex(2, 4):
                assert sd[i, j] == scaled_std(x[i, j], ddof)


class TestGenerators:
    @pytest.mark.parametrize("kind", list(TestFunctionKind))
    def test_target_sd_hit(self, kind):
        sig = generate_test_function(kind, 1024, 7.0)
        assert np.std(sig.samples) == pytest.approx(7.0, abs=1e-6)
        assert len(sig) == 1024

    def test_rescale_is_multiplicative(self):
        a = generate_test_function("heavisine", 512, 7.0)
        b = generate_test_function("heavisine", 512, 14.0)
        np.testing.assert_allclose(b.samples, 2 * a.samples, rtol=0, atol=0)

    def test_blocks_is_piecewise_constant(self):
        sig = generate_test_function("blocks", 2048, 7.0)
        distinct = np.unique(np.round(sig.samples, 9))
        assert distinct.size <= 12

    @pytest.mark.parametrize("kind", [TestFunctionKind.BUMPS, TestFunctionKind.BLOCKS])
    @pytest.mark.parametrize("n", [2, 8, 512, 4096, 262144])
    def test_bumps_and_blocks_match_the_jump_by_jump_sum(self, kind, n):
        # the same values and the same signs of zeros as the loop's sum
        x = np.arange(1, n + 1) / n
        got, want = _raw_test_function(kind, x), looped_test_function(kind, x)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_doppler_envelope_vanishes_at_origin(self):
        sig = generate_test_function("doppler", 512, 7.0)
        assert np.max(np.abs(sig.samples[:8])) < np.max(np.abs(sig.samples))

    def test_bumps_positive(self):
        sig = generate_test_function("bumps", 512, 7.0)
        assert np.all(sig.samples > 0)

    def test_string_kind_accepted(self):
        sig = generate_test_function("heavisine", 64)
        assert isinstance(sig, Signal)

    def test_non_dyadic_rejected(self):
        with pytest.raises(InputError):
            generate_test_function("bumps", 1000)

    def test_bad_sd_rejected(self):
        with pytest.raises(DomainError):
            generate_test_function("bumps", 64, target_sd=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="target_sd"):
                generate_test_function("bumps", 64, target_sd=bad)


class TestNoise:
    def test_sigma_calibration(self):
        truth = generate_test_function("heavisine", 2048, 7.0)
        noisy = add_noise(truth, snr=3.0, seed=11)
        eps = noisy.samples - noisy.truth
        # empirical SD within 5% of 7/3; seeded so deterministic
        assert np.std(eps) == pytest.approx(7.0 / 3.0, rel=0.05)

    def test_truth_retained(self):
        truth = generate_test_function("doppler", 256, 7.0)
        noisy = add_noise(truth, snr=1.0, seed=5)
        np.testing.assert_array_equal(noisy.truth, truth.samples)

    def test_seed_determinism(self):
        truth = generate_test_function("bumps", 128, 7.0)
        a = add_noise(truth, 1.0, seed=42)
        b = add_noise(truth, 1.0, seed=42)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        truth = generate_test_function("bumps", 128, 7.0)
        a = add_noise(truth, 1.0, seed=1)
        b = add_noise(truth, 1.0, seed=2)
        assert np.max(np.abs(a.samples - b.samples)) > 0

    def test_tuple_seed_streams_are_independent(self):
        truth = generate_test_function("blocks", 128, 7.0)
        a = add_noise(truth, 1.0, seed=(7, 0))
        b = add_noise(truth, 1.0, seed=(7, 1))
        assert np.max(np.abs(a.samples - b.samples)) > 0

    @pytest.mark.parametrize("seed", [-1, (7, -1), np.int64(-3)])
    def test_negative_seed_entry_rejected(self, seed):
        with pytest.raises(DomainError, match="seed entries must be >= 0"):
            noise_rng(seed)

    def test_noise_is_serially_uncorrelated(self):
        truth = generate_test_function("heavisine", 2048, 7.0)
        noisy = add_noise(truth, snr=1.0, seed=313)
        eps = noisy.samples - noisy.truth
        r1 = np.corrcoef(eps[:-1], eps[1:])[0, 1]
        # three-sigma band for lag-1 autocorrelation of white noise
        assert abs(r1) < 3.0 / np.sqrt(eps.size)

    def test_bad_snr_rejected(self):
        truth = generate_test_function("bumps", 64, 7.0)
        with pytest.raises(DomainError):
            add_noise(truth, 0.0, seed=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="snr"):
                add_noise(truth, bad, seed=0)

    def test_constant_truth_rejected(self):
        with pytest.raises(InputError):
            add_noise(Signal(samples=np.ones(8)), 1.0, seed=0)

    def test_sigma_is_sd_over_snr_bit_for_bit(self):
        truth = generate_test_function("bumps", 512, 7.0)
        noisy = add_noise(truth, 3.0, seed=(4, 2))
        eps = noise_rng((4, 2)).standard_normal(512)
        sigma = float(np.std(truth.samples)) / 3.0
        assert np.array_equal(noisy.samples, truth.samples + sigma * eps)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_scales_give_finite_calibrated_noise(self, scale):
        # the squares of the samples overflow (or underflow), so np.std
        # alone would give inf (or 0) and reject the signal
        truth = generate_test_function("heavisine", 1024, 7.0 * scale)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            noisy = add_noise(truth, snr=2.0, seed=11)
        assert not caught
        unit = add_noise(generate_test_function("heavisine", 1024, 7.0), snr=2.0, seed=11)
        np.testing.assert_allclose(noisy.samples / scale, unit.samples, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(unit.samples)))

    def test_overflowing_draw_is_a_numeric_error(self):
        truth = Signal(samples=np.array([1.7e308, -1.7e308] * 8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericError):
                add_noise(truth, 1.0, seed=0)
            with pytest.raises(NumericError):
                add_noise(generate_test_function("bumps", 64), 1e-310, seed=0)
        assert not caught
