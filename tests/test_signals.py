import math
import warnings

import numpy as np
import pytest

from epashrink import (
    DomainError,
    InputError,
    NumericError,
    Signal,
    TestFunctionKind,
    add_noise,
    generate_test_function,
)
from epashrink.signals import noise_rng


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
