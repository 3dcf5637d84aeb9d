import itertools
import math
import re
import time
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epashrink import (
    ConfigError,
    Denoised,
    DomainError,
    EpashrinkError,
    InputError,
    ElicitationConfig,
    NumericError,
    STUDY_PRESETS,
    RuleSpec,
    SigmaEstimator,
    Signal,
    StudyConfig,
    TestFunctionKind,
    add_noise,
    benchmark_elicitation,
    denoise,
    dwt_forward,
    dwt_inverse,
    generate_test_function,
    make_daubechies_filter,
    mse,
    run_study,
    shrink_pyramid,
    study_preset,
)
from epashrink.dwt import WaveletPyramid
from epashrink.shrinkage import _BLOCK_COEFFS
from epashrink.elicitation import (BETA_FLOOR, alpha_level, beta_level, estimate_sigma,
                                   lambda_from_s)
from epashrink.shrinkage import (DoubleExponential, Gaussian, MixturePriorParams, esr,
                                 marginal_m, rule_statistics)
from epashrink.thresholds import hard_threshold, soft_threshold, universal_threshold
from epashrink import signals as signals_mod
from epashrink.study import (DRAW_SCALES, _denoise_stack, _noise_key, _noisy_rows,
                             _slab_supports, _snr_key)
from oracles import per_level_esr_shrink


class TestRuleSpec:
    def test_parse_esr(self):
        assert RuleSpec.parse("esr") == RuleSpec("esr")

    def test_parse_universal(self):
        assert RuleSpec.parse("soft-universal") == RuleSpec("soft")
        assert RuleSpec.parse("hard") == RuleSpec("hard")

    def test_parse_fixed(self):
        spec = RuleSpec.parse("soft:3.5")
        assert spec == RuleSpec("soft", 3.5)
        assert spec.label == "soft:3.5"

    def test_parse_garbage(self):
        with pytest.raises(ConfigError):
            RuleSpec.parse("median")
        with pytest.raises(ConfigError):
            RuleSpec.parse("soft:abc")

    def test_esr_takes_no_threshold(self):
        with pytest.raises(ConfigError):
            RuleSpec("esr", 1.0)

    def test_labels(self):
        assert RuleSpec("esr").label == "esr"
        assert RuleSpec("soft").label == "soft-universal"
        assert RuleSpec("hard", 2.0).label == "hard:2"
        # %g keeps 6 significant digits: past them the label is the repr
        assert RuleSpec("soft", 2.123456789).label == "soft:2.123456789"

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["hard", "soft"]),
           threshold=st.one_of(st.none(), st.floats(min_value=0.0)))
    @example(kind="soft", threshold=2.123456789)
    @example(kind="hard", threshold=math.inf)
    @example(kind="hard", threshold=5e-324)
    def test_a_label_parses_back_to_its_rule(self, kind, threshold):
        spec = RuleSpec(kind, threshold)
        again = RuleSpec.parse(spec.label)
        assert again == spec and again.label == spec.label


class TestMse:
    def test_identical(self):
        sig = generate_test_function("bumps", 64)
        assert mse(sig.samples, sig.samples) == 0.0

    def test_constant_offset(self):
        sig = generate_test_function("bumps", 64)
        assert mse(sig.samples + 1.0, sig.samples) == pytest.approx(1.0, abs=1e-12)

    def test_zero_estimate_of_heavisine(self):
        truth = generate_test_function("heavisine", 1024, 7.0)
        value = mse(np.zeros(1024), truth.samples)
        # SD^2 = 49 plus the squared mean of the rescaled signal (~3.9)
        assert value == pytest.approx(49.0 + truth.samples.mean() ** 2, abs=1e-9)
        assert value == pytest.approx(49.0, rel=0.15)

    def test_accepts_signals(self):
        sig = generate_test_function("doppler", 64)
        assert mse(sig, sig) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            mse(np.zeros(8), np.zeros(16))


class TestDenoisePipeline:
    def test_constant_signal_is_identity(self):
        y = Signal(samples=np.full(1024, 5.0))
        out = denoise(y, RuleSpec("esr"), benchmark_elicitation())
        assert np.max(np.abs(out.samples - 5.0)) < 1e-8

    def test_pure_noise_energy_shrinks(self):
        rng = np.random.default_rng(3)
        y = Signal(samples=rng.standard_normal(1024))
        out = denoise(y, RuleSpec("esr"), benchmark_elicitation())
        assert out.samples @ out.samples < y.samples @ y.samples

    def test_near_zero_noise_is_near_lossless(self):
        truth = generate_test_function("heavisine", 1024, 7.0)
        noisy = add_noise(truth, snr=1e6, seed=7)
        out = denoise(noisy, RuleSpec("esr"), benchmark_elicitation())
        assert mse(out.samples, truth.samples) < 1e-3 * 7.0**2

    def test_seeded_heavisine_cell_lands_in_band(self):
        # one replication of the n=1024, snr=3 cell under the benchmark
        # protocol; the population AMSE there is ~0.35
        truth = generate_test_function("heavisine", 1024, 7.0)
        noisy = add_noise(truth, snr=3.0, seed=2024)
        out = denoise(noisy, RuleSpec("esr"), benchmark_elicitation())
        assert 0.2 <= mse(out.samples, truth.samples) <= 0.6

    def test_soft_universal_flattens_pure_noise(self):
        rng = np.random.default_rng(11)
        y = Signal(samples=rng.standard_normal(2048))
        out = denoise(y, RuleSpec("soft"), benchmark_elicitation())
        # the universal threshold kills essentially every noise coefficient
        assert np.std(out.samples) < 0.25 * np.std(y.samples)

    def test_fixed_threshold_rule(self):
        truth = generate_test_function("blocks", 256, 7.0)
        noisy = add_noise(truth, snr=1.0, seed=1)
        out = denoise(noisy, RuleSpec("hard", 5.0), benchmark_elicitation())
        assert out.samples.shape == (256,)

    def test_truth_carried_through(self):
        truth = generate_test_function("doppler", 256, 7.0)
        noisy = add_noise(truth, snr=1.0, seed=5)
        out = denoise(noisy, RuleSpec("esr"), benchmark_elicitation())
        np.testing.assert_array_equal(out.truth, truth.samples)

    def test_nonzero_coarse_level(self):
        truth = generate_test_function("heavisine", 512, 7.0)
        noisy = add_noise(truth, snr=1.0, seed=9)
        cfg = ElicitationConfig(gamma=2.0, l=1.0, coarse_level=5)
        out = denoise(noisy, RuleSpec("esr"), cfg)
        assert mse(out.samples, truth.samples) < mse(noisy.samples, truth.samples)

    @pytest.mark.parametrize("rule", ["esr", "soft", "hard:4"])
    def test_returns_diagnostics_of_shrink_pyramid(self, rule):
        truth = generate_test_function("bumps", 512, 7.0)
        noisy = add_noise(truth, snr=1.0, seed=4)
        spec, cfg = RuleSpec.parse(rule), benchmark_elicitation()
        out = denoise(noisy, spec, cfg)
        assert isinstance(out, Denoised) and isinstance(out, Signal)
        assert out.n == 512
        pyramid = dwt_forward(noisy.samples, make_daubechies_filter(10))
        assert np.array_equal(out.empirical.coeffs, pyramid.coeffs)
        assert out.diagnostics == shrink_pyramid(pyramid, spec, cfg, 512)
        assert np.array_equal(out.shrunk.coeffs, pyramid.coeffs)
        assert out.shrunk.coeffs is not out.empirical.coeffs

    def test_non_finite_input_raises_input_error(self):
        samples = np.zeros(64)
        samples[10] = np.nan
        with pytest.raises(InputError, match=r"samples\[10\]"):
            denoise(Signal(samples), RuleSpec("esr"))

    # past a scale of about 1e154 esr fails on the raw lambda (see
    # test_esr_past_the_raw_lambda_range_is_a_numeric_error)
    @pytest.mark.parametrize("rule, c", [
        *((rule, c) for rule in ("esr", "soft", "hard") for c in (1e-120, 1e90, 1e100)),
        ("soft", 1e200), ("hard", 1e200),
    ])
    def test_scale_equivariance(self, rule, c):
        # lambda(s) = 1/s^2 + (c/tau) exp(-s/tau) carries the scale tau, so
        # lambda * s^2 is scale-free only once the second term is below
        # rounding; at a noise scale of 7e3 it is exp(-3500) and the esr
        # pipeline is equivariant like the thresholding ones
        truth = generate_test_function("bumps", 256, 7e3)
        y = add_noise(truth, snr=1.0, seed=5).samples
        spec = RuleSpec(rule)
        for method in SigmaEstimator:
            cfg = ElicitationConfig(sigma_estimator=method)
            ref = denoise(Signal(y), spec, cfg)
            out = denoise(Signal(c * y), spec, cfg)
            scale = np.max(np.abs(ref.samples))
            assert np.max(np.abs(out.samples / c - ref.samples)) <= 1e-12 * scale
            got, want = out.diagnostics, ref.diagnostics
            assert got["sigma_hat"] == pytest.approx(c * want["sigma_hat"], rel=1e-12)
            for got_level, want_level in zip(got["levels"], want["levels"]):
                assert got_level["beta"] == pytest.approx(c * want_level["beta"], rel=1e-12)
            if rule == "esr":
                assert got["lambda"] == pytest.approx(want["lambda"] / c**2, rel=1e-12)
            else:
                assert got["eta"] == pytest.approx(c * want["eta"], rel=1e-12)

    def test_esr_past_the_raw_lambda_range_is_a_numeric_error(self):
        # lambda is published in the units of the data, so it overflows
        # once sigma_hat**2 does
        truth = generate_test_function("bumps", 256, 7e3)
        y = add_noise(truth, snr=1.0, seed=5).samples
        with pytest.raises(NumericError):
            denoise(Signal(1e200 * y), RuleSpec("esr"))


@st.composite
def _dyadic_signals(draw):
    """Finite dyadic signals, n = 8..1024: scaled Gaussian noise with a few
    entries set to values hypothesis picks. Magnitudes stay below 1e300 so
    that re-transforming a denoised output cannot itself overflow."""
    n = 2 ** draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.standard_normal(n) * draw(st.sampled_from([0.0, 1e-300, 1e-8, 1.0, 1e4, 1e150]))
    entries = st.tuples(st.integers(0, n - 1), st.floats(-1e300, 1e300))
    for pos, value in draw(st.lists(entries, max_size=4)):
        y[pos] = value
    return y


@settings(max_examples=60, deadline=None)
@given(
    y=_dyadic_signals(),
    rule=st.sampled_from(["esr", "soft", "hard"]),
    coarse_level=st.sampled_from([0, 2]),
    sigma=st.sampled_from(list(SigmaEstimator)),
)
def test_pipeline_properties(y, rule, coarse_level, sigma):
    """Finite output, NumericError, or InputError for a signal whose largest
    detail coefficient is subnormal; odd symmetry bit for bit; the scaling
    block passes through untouched."""
    spec = RuleSpec(rule)
    cfg = ElicitationConfig(sigma_estimator=sigma, coarse_level=coarse_level)
    try:
        out = denoise(Signal(y), spec, cfg)
    except NumericError:
        return
    except InputError:
        details = dwt_forward(y, make_daubechies_filter(10), coarse_level).coeffs[2**coarse_level:]
        assert 0.0 < np.max(np.abs(details)) < np.finfo(float).tiny
        return
    assert np.isfinite(out.samples).all()
    assert np.array_equal(denoise(Signal(-y), spec, cfg).samples, -out.samples)
    assert np.array_equal(out.shrunk.scaling, out.empirical.scaling)
    filt = make_daubechies_filter(10)
    scaling_in = dwt_forward(y, filt, coarse_level).scaling
    scaling_out = dwt_forward(out.samples, filt, coarse_level).scaling
    scale = max(float(np.max(np.abs(y))) * math.sqrt(y.size), np.finfo(float).tiny)
    assert np.max(np.abs(scaling_out - scaling_in)) <= 1e-10 * scale


class TestStudyConfigValidation:
    def test_empty_rules_rejected(self):
        with pytest.raises(ConfigError):
            StudyConfig(
                functions=(TestFunctionKind.BUMPS,), sizes=(64,), snrs=(1.0,),
                replications=1, rules=(),
            )

    def test_non_dyadic_size_rejected(self):
        with pytest.raises(ConfigError):
            StudyConfig(
                functions=(TestFunctionKind.BUMPS,), sizes=(100,), snrs=(1.0,),
                replications=1, rules=(RuleSpec("esr"),),
            )

    def test_bad_snr_rejected(self):
        with pytest.raises(ConfigError):
            StudyConfig(
                functions=(TestFunctionKind.BUMPS,), sizes=(64,), snrs=(0.0,),
                replications=1, rules=(RuleSpec("esr"),),
            )

    @pytest.mark.parametrize("field,value,shown", [
        ("functions", ("bumps", TestFunctionKind.BUMPS), "bumps"),
        ("functions", ("doppler", "bumps", "doppler"), "doppler"),
        ("sizes", (64, 128, np.int64(64)), "64"),
        ("snrs", (1, 3.0, 1.0), "1.0"),
        ("rules", ("soft", RuleSpec("esr"), "soft-universal"), "soft-universal"),
        ("rules", ("hard:2", "hard:2.0"), "hard:2"),
    ])
    def test_a_value_listed_twice_is_a_config_error(self, field, value, shown):
        # the duplicate may show only once names and rule texts are
        # normalised; one error names the field and the value
        grid = dict(functions=("bumps",), sizes=(64,), snrs=(1.0,), replications=1,
                    rules=("esr",))
        with pytest.raises(ConfigError, match=f"^{field} lists {re.escape(shown)} more than "
                                              "once$"):
            StudyConfig(**{**grid, field: value})

    @pytest.mark.parametrize("snrs,first,second", [
        ((1.0, 1.0000000001), "1.0", "1.0000000001"),
        ((3.0, 1e-12, 2e-12), "1e-12", "2e-12"),
        ((0.5, np.float32(0.25), 0.2500000001), "0.25", "0.2500000001"),
    ])
    def test_snrs_that_share_a_noise_key_are_a_config_error(self, snrs, first, second):
        # two SNRs closer than the key's resolution would draw the same noise
        # for their cells; one error names both
        with pytest.raises(ConfigError, match=f"^snrs {re.escape(first)} and "
                                              f"{re.escape(second)} share their noise"):
            StudyConfig(functions=("bumps",), sizes=(64,), snrs=snrs, replications=3,
                        rules=("soft",))

    def test_snrs_one_key_apart_keep_their_streams(self):
        # SNRs a key apart, and neighbouring doubles past the overflow of
        # the scaled key, are accepted, each keyed as before
        for snrs in ((1.0, 1.000000001), (1e300, math.nextafter(1e300, math.inf))):
            config = StudyConfig(functions=("bumps",), sizes=(64,), snrs=snrs, replications=3,
                                 rules=("soft",))
            assert config.snrs == snrs
        assert [_snr_key(snr) for snr in (1.0, 1.000000001, 0.25, 1e-12)] == [
            10**9, 10**9 + 1, 250_000_000, 0]
        assert _snr_key(1e300) == int(1e300) * 10**9

    @pytest.mark.parametrize("field,value", [
        ("snrs", (math.inf,)), ("snrs", (1.0, math.nan)), ("snrs", ("1",)),
        ("snrs", np.array([1.0, -5.0])), ("snrs", np.array([])),
        ("target_sd", math.inf), ("target_sd", math.nan), ("target_sd", 0.0),
        ("target_sd", "7"), ("target_sd", 10**400), ("snrs", (1.0, 10**400)),
    ])
    def test_non_finite_or_non_positive_scale_rejected(self, field, value):
        kwargs = dict(functions=(TestFunctionKind.BUMPS,), sizes=(64,),
                      snrs=(1.0,), replications=1, rules=(RuleSpec("esr"),))
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            StudyConfig(**kwargs)

    def test_function_names_and_rule_texts_are_parsed(self):
        config = StudyConfig(functions=("bumps", TestFunctionKind.DOPPLER), sizes=(64,),
                             snrs=(1.0,), replications=1, rules=("esr", "soft:2.5"))
        assert config.functions == (TestFunctionKind.BUMPS, TestFunctionKind.DOPPLER)
        assert config.rules == (RuleSpec("esr"), RuleSpec("soft", 2.5))

    @pytest.mark.parametrize("target_sd, snrs, snr", [
        # just outside either edge, by one double, through target_sd or an SNR
        (math.nextafter(1e100, math.inf), (1.0,), 1.0),
        (math.nextafter(1e-100, 0.0), (1.0, 3.0), 1.0),
        (1e100, (3.0, math.nextafter(1.0, 0.0)), math.nextafter(1.0, 0.0)),
        (7.0, (1.0, 7e-101), 7e-101),
        (1e-300, (1e-199,), 1e-199),
        # target_sd / snr overflows to inf, or underflows to 0
        (7.0, (5e-324,), 5e-324),
        (1e-300, (1e300,), 1e300),
        # far outside: a noise scale or a sample that overflows, a truth whose
        # transform overflows, squared errors whose sum overflows, a tiny scale
        (7e150, (1e-160,), 1e-160),
        (1e300, (1.0,), 1.0),
        (1e307, (1.0, 1e6), 1.0),
        (5e307, (0.5, 3.0), 0.5),
        (1.7e153, (1.0,), 1.0),
        (7e150, (1.0,), 1.0),
        (1e-200, (1.0,), 1.0),
    ])
    def test_a_draw_scale_outside_the_range_is_a_config_error(self, target_sd, snrs, snr):
        # a draw's scale is max(target_sd, target_sd / snr), checked for
        # every SNR against DRAW_SCALES when the config is built, so no
        # study that could fail part-way draws at all; the error names
        # target_sd, the first SNR out of range and the range
        with pytest.raises(ConfigError, match=f"^target_sd {re.escape(repr(target_sd))} at snr "
                                              f"{re.escape(repr(snr))} draws at a scale, "
                                              r"max\(target_sd, target_sd / snr\), outside "
                                              r"\[1e-100, 1e\+100\]$"):
            StudyConfig(functions=("bumps",), sizes=(64,), snrs=snrs, replications=2,
                        rules=("esr", "soft"), target_sd=target_sd)

    @pytest.mark.parametrize("field, value, message", [
        ("functions", ("nonsense",), "unknown test function 'nonsense'"),
        ("functions", (3,), "unknown test function 3"),
        ("rules", ("median",), "cannot parse rule 'median'"),
        ("rules", (None,), "a rule is a RuleSpec or its text, got None"),
        ("sizes", (64.0,), "size must be a whole number, got 64.0"),
        ("replications", 2.5, "replications must be a whole number, got 2.5"),
        ("wavelet_order", 10.0, "wavelet_order must be a whole number"),
        ("seed", "7", "seed must be a whole number"),
        ("elicitation", None, "elicitation must be an ElicitationConfig, got None"),
    ])
    def test_a_field_of_the_wrong_kind_is_a_config_error(self, field, value, message):
        kwargs = dict(functions=(TestFunctionKind.BUMPS,), sizes=(64,),
                      snrs=(1.0,), replications=1, rules=(RuleSpec("esr"),))
        kwargs[field] = value
        with pytest.raises(ConfigError, match=re.escape(message)):
            StudyConfig(**kwargs)


    @pytest.mark.parametrize("field, value", [
        ("functions", "bumps"), ("rules", "esr"), ("sizes", 64), ("snrs", 1.0),
    ])
    def test_a_bare_value_for_a_sequence_field_is_a_config_error(self, field, value):
        # a bare string is not read as the sequence of its characters
        kwargs = dict(functions=(TestFunctionKind.BUMPS,), sizes=(64,),
                      snrs=(1.0,), replications=1, rules=(RuleSpec("esr"),))
        kwargs[field] = value
        with pytest.raises(ConfigError, match=re.escape(f"{field} takes a sequence, "
                                                        f"got {value!r}")):
            StudyConfig(**kwargs)

    def test_snrs_are_stored_as_a_tuple(self):
        # a list given for snrs leaves the frozen config hashable, and what
        # is appended to it afterwards does not reach the study
        snrs = [1.0, 3.0]
        config = StudyConfig(functions=("bumps",), sizes=(64,), snrs=snrs, replications=2,
                             rules=("soft",))
        assert config.snrs == (1.0, 3.0)
        assert hash(config) == hash(replace(config, snrs=(1.0, 3.0)))
        snrs.append(-5.0)
        assert [cell.snr for cell in run_study(config).cells] == [1.0, 3.0]
        assert replace(config, snrs=np.array(snrs[:2])).snrs == (1.0, 3.0)


def _config(**fields):
    return StudyConfig(**{**dict(functions=(TestFunctionKind.BUMPS,), sizes=(64,), snrs=(1.0,),
                                 replications=1, rules=(RuleSpec("esr"),)), **fields})


@pytest.mark.parametrize("call, error, message", [
    (lambda: RuleSpec("bogus"), ConfigError, "unknown rule kind 'bogus'"),
    (lambda: RuleSpec("soft", -1.0), ConfigError, "threshold must be >= 0, got -1.0"),
    (lambda: _config(functions=()), ConfigError, "functions must not be empty"),
    (lambda: _config(sizes=()), ConfigError, "sizes must not be empty"),
    (lambda: _config(replications=0), ConfigError, "replications must be >= 1"),
    (lambda: lambda_from_s(1.0, c=0), DomainError, "c and tau must be positive"),
    (lambda: shrink_pyramid(WaveletPyramid(0, np.array([1.0, np.nan] * 32)), RuleSpec("esr"),
                            ElicitationConfig(), 64),
     NumericError, "wavelet coefficients are not finite"),
    (lambda: shrink_pyramid(WaveletPyramid(0, np.zeros((2, 2, 64))), RuleSpec("soft"),
                            ElicitationConfig(), 64),
     InputError, "cannot shrink a pyramid of shape (2, 2, 64)"),
    (lambda: generate_test_function("bogus", 64), DomainError,
     "unknown test function 'bogus'; available: ['bumps', 'blocks', 'doppler', 'heavisine']"),
    (lambda: estimate_sigma(np.ones(4), "bogus"), DomainError,
     "unknown sigma_estimator 'bogus'; available: ['sd', 'mad']"),
], ids=["unknown rule kind", "negative threshold", "no functions", "no sizes",
        "no replications", "zero c", "nan coefficient", "3-D pyramid", "unknown test function",
        "unknown sigma estimator"])
def test_a_documented_rejection_is_its_error(call, error, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    assert not caught


def _tiny_config(rules, replications=3, seed=77):
    return StudyConfig(
        functions=(TestFunctionKind.HEAVISINE,),
        sizes=(128,),
        snrs=(1.0,),
        replications=replications,
        rules=rules,
        elicitation=benchmark_elicitation(),
        seed=seed,
    )


class TestRunStudy:
    def test_single_replication_degenerate_sd(self):
        report = run_study(_tiny_config((RuleSpec("esr"),), replications=1))
        cell = report.cells[0]
        assert cell.mse_samples.size == 1
        assert cell.amse == cell.mse_samples[0]
        assert cell.mse_sd == 0.0
        assert cell.degenerate_sd

    def test_report_invariants(self):
        report = run_study(_tiny_config((RuleSpec("esr"), RuleSpec("soft"))))
        for cell in report.cells:
            assert cell.amse == pytest.approx(np.mean(cell.mse_samples), rel=1e-12)
            assert cell.mse_sd == pytest.approx(
                np.std(cell.mse_samples, ddof=1), rel=1e-12
            )

    def test_bit_identical_reruns(self):
        cfg = _tiny_config((RuleSpec("esr"), RuleSpec("soft")))
        a = run_study(cfg)
        b = run_study(cfg)
        for ca, cb in zip(a.cells, b.cells):
            np.testing.assert_array_equal(ca.mse_samples, cb.mse_samples)

    def test_noise_paired_across_rules(self):
        # the esr samples must not depend on which other rules ran
        solo = run_study(_tiny_config((RuleSpec("esr"),)))
        pair = run_study(_tiny_config((RuleSpec("esr"), RuleSpec("soft"))))
        np.testing.assert_array_equal(
            solo.cell("heavisine", 128, 1.0, "esr").mse_samples,
            pair.cell("heavisine", 128, 1.0, "esr").mse_samples,
        )

    def test_seed_changes_samples(self):
        a = run_study(_tiny_config((RuleSpec("esr"),), seed=1))
        b = run_study(_tiny_config((RuleSpec("esr"),), seed=2))
        assert np.max(np.abs(a.cells[0].mse_samples - b.cells[0].mse_samples)) > 0

    def test_wall_time_is_per_rule(self):
        t0 = time.perf_counter()
        report = run_study(_tiny_config((RuleSpec("esr"), RuleSpec("soft"))))
        total = time.perf_counter() - t0
        esr_time = report.cell("heavisine", 128, 1.0, "esr").wall_time_s
        soft_time = report.cell("heavisine", 128, 1.0, "soft-universal").wall_time_s
        assert esr_time > 0 and soft_time > 0
        assert esr_time != soft_time
        assert esr_time + soft_time <= total

    def test_cell_lookup(self):
        report = run_study(_tiny_config((RuleSpec("esr"),)))
        assert report.cell(TestFunctionKind.HEAVISINE, 128, 1.0, "esr")
        assert report.cell("heavisine", 128, 1.0, "esr") is report.cells[0]
        # an unknown function name is a missing cell like any other
        for key, shown in ((("heavisine", 128, 1.0, "soft-universal"), "heavisine"),
                           (("bogus", 128, 1.0, "esr"), "bogus"),
                           ((TestFunctionKind.BUMPS, 128, 1.0, "esr"), "bumps"),
                           (("heavisine", 64, 1.0, "esr"), "heavisine"),
                           (("heavisine", 128, 3.0, "esr"), "heavisine")):
            _, n, snr, rule = key
            with pytest.raises(KeyError, match=re.escape(f"no cell ({shown}, {n}, {snr}, "
                                                          f"{rule})")):
                report.cell(*key)

    def test_to_dict_round_trips_through_json(self):
        import json

        report = run_study(_tiny_config((RuleSpec("esr"),), replications=2))
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["config"]["seed"] == 77
        assert len(parsed["cells"]) == 1
        assert len(parsed["cells"][0]["mse_samples"]) == 2

    def test_config_to_dict_schema(self):
        """The config block of summary.json, key order included."""
        import json

        config = StudyConfig(
            functions=(TestFunctionKind.BUMPS, TestFunctionKind.DOPPLER),
            sizes=(64, 256),
            snrs=(0.5, 3.0),
            replications=2,
            rules=(RuleSpec("esr"), RuleSpec("soft"), RuleSpec("hard", 2.0)),
            elicitation=ElicitationConfig(gamma=2.0, l=1.0, c=0.5, tau=3.0,
                                          sigma_estimator=SigmaEstimator.SAMPLE_SD,
                                          coarse_level=1),
            wavelet_order=6,
            seed=12,
            target_sd=5.0,
        )
        d = config.to_dict()
        assert list(d) == ["functions", "sizes", "snrs", "replications", "rules",
                           "elicitation", "wavelet_order", "seed", "target_sd"]
        assert list(d["elicitation"]) == ["gamma", "l", "c", "tau",
                                          "sigma_estimator", "coarse_level"]
        assert json.loads(json.dumps(d)) == {
            "functions": ["bumps", "doppler"],
            "sizes": [64, 256],
            "snrs": [0.5, 3.0],
            "replications": 2,
            "rules": ["esr", "soft-universal", "hard:2"],
            "elicitation": {"gamma": 2.0, "l": 1.0, "c": 0.5, "tau": 3.0,
                            "sigma_estimator": "sd", "coarse_level": 1},
            "wavelet_order": 6,
            "seed": 12,
            "target_sd": 5.0,
        }

    def test_cell_to_dict_schema(self):
        """The cell records of summary.json, key order included."""
        import json

        cell = run_study(_tiny_config((RuleSpec("esr"),), replications=2)).cells[0]
        d = cell.to_dict()
        assert list(d) == ["function", "n", "snr", "rule", "amse", "mse_sd",
                           "mse_samples", "wall_time_s", "degenerate_sd"]
        parsed = json.loads(json.dumps(d))
        assert parsed["function"] == "heavisine"
        assert (parsed["n"], parsed["snr"], parsed["rule"]) == (128, 1.0, "esr")
        assert parsed["mse_samples"] == cell.mse_samples.tolist()
        assert parsed["degenerate_sd"] is False


class TestPresets:
    def test_known_presets(self):
        smoke = study_preset("smoke")
        assert smoke.replications == 1
        desk = study_preset("heavisine-desk", seed=5)
        assert desk.seed == 5
        assert desk.replications == 100
        assert TestFunctionKind.HEAVISINE in desk.functions

    @pytest.mark.parametrize("name,functions,sizes,snrs,replications,rules", [
        ("smoke", ["heavisine"], (512,), (1.0,), 1, ["esr"]),
        ("heavisine-desk", ["heavisine"], (512, 1024, 2048), (1.0, 3.0), 100,
         ["esr", "soft-universal"]),
        ("acceptance-desk", ["bumps", "blocks", "doppler", "heavisine"],
         (512, 1024, 2048), (0.2, 1.0, 3.0), 100, ["esr", "soft-universal"]),
    ])
    def test_preset_grid(self, name, functions, sizes, snrs, replications, rules):
        config = study_preset(name)
        assert [f.value for f in config.functions] == functions
        assert (config.sizes, config.snrs) == (sizes, snrs)
        assert config.replications == replications
        assert [r.label for r in config.rules] == rules
        assert config.elicitation == benchmark_elicitation()
        assert (config.wavelet_order, config.target_sd) == (10, 7.0)
        assert config.seed == 20250810

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            study_preset("nope")

    def test_smoke_preset_runs_fast(self):
        import time

        t0 = time.perf_counter()
        report = run_study(study_preset("smoke"))
        assert time.perf_counter() - t0 < 10.0
        assert len(report.cells) == 1


def _per_draw_oracle(config: StudyConfig, time_domain: bool = False) -> dict:
    """The per-draw study loop: one denoise per replication and rule, each
    scored with mse, its shrunk coefficients against the transform of the
    truth or, with time_domain, its estimate against the truth. Returns
    {(function, n, snr, rule label): samples}."""
    filt = make_daubechies_filter(config.wavelet_order)
    samples = {}
    for function in config.functions:
        for n in config.sizes:
            truth = generate_test_function(function, n, config.target_sd)
            truth_coeffs = dwt_forward(truth.samples, filt, config.elicitation.coarse_level).coeffs
            for snr in config.snrs:
                for rule in config.rules:
                    samples[(function, n, snr, rule.label)] = np.empty(config.replications)
                for rep in range(config.replications):
                    key = _noise_key(config.seed, function, n, snr, rep)
                    noisy = add_noise(truth, snr, key)
                    for rule in config.rules:
                        out = denoise(noisy, rule, config.elicitation, config.wavelet_order)
                        samples[(function, n, snr, rule.label)][rep] = (
                            mse(out.samples, truth.samples) if time_domain
                            else mse(out.shrunk.coeffs, truth_coeffs))
    return samples


@pytest.mark.parametrize("replications", [1, 3])
@pytest.mark.parametrize("coarse_level", [0, 2])
@pytest.mark.parametrize("sigma", list(SigmaEstimator))
def test_run_study_matches_per_draw_oracle(sigma, coarse_level, replications):
    config = StudyConfig(
        functions=(TestFunctionKind.BUMPS, TestFunctionKind.DOPPLER),
        sizes=(64, 256),
        snrs=(0.5, 3.0),
        replications=replications,
        rules=tuple(RuleSpec.parse(r) for r in
                    ("esr", "soft-universal", "hard-universal", "soft:2.5")),
        elicitation=ElicitationConfig(gamma=2.0, l=1.0, sigma_estimator=sigma,
                                      coarse_level=coarse_level),
        seed=31,
    )
    oracle = _per_draw_oracle(config)
    report = run_study(config)
    assert [(c.function, c.n, c.snr, c.rule) for c in report.cells] == list(oracle)
    for cell in report.cells:
        want = oracle[(cell.function, cell.n, cell.snr, cell.rule)]
        assert np.array_equal(cell.mse_samples, want)
        assert cell.amse == float(np.mean(want))
        assert cell.mse_sd == (0.0 if replications == 1 else float(np.std(want, ddof=1)))


@settings(max_examples=30, deadline=None)
@given(
    function=st.sampled_from(list(TestFunctionKind)),
    n=st.sampled_from([8, 64, 512, 2048]),
    snr=st.floats(0.1, 10.0),
    sigma=st.sampled_from(list(SigmaEstimator)),
    coarse_level=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_coefficient_domain_scores_are_the_time_domain_mse(function, n, snr, sigma,
                                                           coarse_level, seed):
    # the transform is orthogonal, so each study sample, taken over the
    # coefficients, is the time-domain MSE of the draw's denoise up to
    # the rounding of the transforms
    config = StudyConfig(
        functions=(function,), sizes=(n,), snrs=(snr,), replications=2,
        rules=(RuleSpec("esr"), RuleSpec("soft"), RuleSpec("hard", 2.0)),
        elicitation=ElicitationConfig(gamma=2.0, l=1.0, sigma_estimator=sigma,
                                      coarse_level=coarse_level),
        seed=seed,
    )
    oracle = _per_draw_oracle(config, time_domain=True)
    for cell in run_study(config).cells:
        np.testing.assert_allclose(cell.mse_samples,
                                   oracle[(cell.function, cell.n, cell.snr, cell.rule)],
                                   rtol=1e-12, atol=0.0)


def _stacked_test_pyramid():
    """A three-row pyramid: row 0 ordinary noise; row 1 with every level
    but the finest 1e-4 of the noise scale, so its esr runs on the series
    branch there while row 0 does not; row 2 with an all-zero level."""
    rng = np.random.default_rng(8)
    filt = make_daubechies_filter(10)
    pyramid = dwt_forward(rng.standard_normal((3, 256)), filt)
    for j in pyramid.levels()[:-1]:
        pyramid.details[j][1] *= 1e-4
    pyramid.details[5][2] = 0.0
    return pyramid


@pytest.mark.parametrize("rule", ["esr", "soft", "hard", "hard:4"])
@pytest.mark.parametrize("sigma", list(SigmaEstimator))
def test_shrink_pyramid_on_stack_matches_rows(rule, sigma):
    spec = RuleSpec.parse(rule)
    cfg = ElicitationConfig(sigma_estimator=sigma)
    stacked = _stacked_test_pyramid()
    rows = [WaveletPyramid(0, stacked.coeffs[r].copy()) for r in range(3)]
    floored = beta_level(stacked.details[5][2])
    diag = shrink_pyramid(stacked, spec, cfg, 256)
    for r, row in enumerate(rows):
        want = shrink_pyramid(row, spec, cfg, 256)
        assert np.array_equal(stacked.coeffs[r], row.coeffs)
        assert diag["sigma_hat"][r] == want["sigma_hat"]
        for got, expected in zip(diag["levels"], want["levels"]):
            assert got["alpha"] == expected["alpha"]
            assert got["beta"][r] == expected["beta"]
        key = "lambda" if spec.kind == "esr" else "eta"
        assert np.ndim(diag[key]) == (spec.threshold is None)
        assert (diag[key][r] if np.ndim(diag[key]) else diag[key]) == want[key]
    # the beta floor, which shows only as its value
    assert _bits(diag["levels"][5]["beta"][2]) == _bits(floored) == _bits(BETA_FLOOR)
    if spec.kind == "esr":
        # a * beta of the rule per row: some level straddles the series seam
        v = [np.sqrt(2.0 * diag["lambda"]) * level["beta"] for level in diag["levels"]]
        assert any(row_v[1] < 0.05 <= row_v[0] for row_v in v)


def _assert_esr_shrink_matches_per_level_oracle(pyramid, cfg):
    """shrink_pyramid's mixture rule equals, bit for bit, the per-level
    unblocked oracle on a copy of the pyramid. Returns the diagnostics."""
    want = pyramid.copy()
    per_level_esr_shrink(want, cfg)
    diag = shrink_pyramid(pyramid, RuleSpec("esr"), cfg, pyramid.n)
    assert np.array_equal(pyramid.coeffs, want.coeffs)
    return diag


@pytest.mark.parametrize("sigma", list(SigmaEstimator))
@pytest.mark.parametrize("n, coarse_level", [(n, j0) for n in (8, 512, 8192, 16384, 65536)
                                             for j0 in (0, 3) if 2**j0 < n])
def test_esr_shrink_matches_per_level_oracle(n, coarse_level, sigma):
    cfg = ElicitationConfig(sigma_estimator=sigma, coarse_level=coarse_level)
    y = add_noise(generate_test_function(TestFunctionKind.DOPPLER, n), 3.0, (n, coarse_level))
    pyramid = dwt_forward(y.samples, make_daubechies_filter(10), coarse_level)
    _assert_esr_shrink_matches_per_level_oracle(pyramid, cfg)


@pytest.mark.parametrize("shape", [(6, 2048), (300, 256)])
@pytest.mark.parametrize("sigma", list(SigmaEstimator))
def test_esr_shrink_of_a_stack_matches_per_level_oracle(shape, sigma):
    # rows of different scales; the longer levels of the (300, 256) stack
    # go in groups of rows that cut across it
    rng = np.random.default_rng(shape[0])
    rows = rng.standard_normal(shape) * np.exp(rng.uniform(-3.0, 3.0, (shape[0], 1)))
    pyramid = dwt_forward(rows, make_daubechies_filter(10))
    _assert_esr_shrink_matches_per_level_oracle(pyramid, ElicitationConfig(sigma_estimator=sigma))


@pytest.mark.parametrize("sigma", list(SigmaEstimator))
def test_esr_shrink_across_the_seam_in_one_block_matches_per_level_oracle(sigma):
    # the whole stack is small enough to be one block of all its levels,
    # with some rows on the series side of the seam and some not
    pyramid = _stacked_test_pyramid()
    cfg = ElicitationConfig(sigma_estimator=sigma)
    diag = _assert_esr_shrink_matches_per_level_oracle(pyramid, cfg)
    v = [np.sqrt(2.0 * diag["lambda"]) * level["beta"] for level in diag["levels"]]
    assert any(row_v[1] < 0.05 <= row_v[0] for row_v in v)


@pytest.mark.parametrize("sigma", list(SigmaEstimator))
def test_esr_shrink_across_the_seam_at_a_block_boundary_matches_per_level_oracle(sigma):
    # level 7 of a (70, 512) stack is 128 wide, so it goes in groups of
    # 64 rows. Its coefficients in the even rows, scaled down, put those
    # rows on the series side of the seam and the odd rows on the direct
    # side, so rows 63 and 64, on either side of the block boundary, are
    # on either side of the seam too
    rows = np.random.default_rng(70).standard_normal((70, 512))
    pyramid = dwt_forward(rows, make_daubechies_filter(10))
    pyramid.details[7][::2] *= 1e-4
    assert _BLOCK_COEFFS // 128 == 64
    cfg = ElicitationConfig(sigma_estimator=sigma)
    diag = _assert_esr_shrink_matches_per_level_oracle(pyramid, cfg)
    v = np.sqrt(2.0 * diag["lambda"]) * diag["levels"][7]["beta"]
    assert v[64] < 0.05 <= v[63]


@pytest.mark.parametrize("sigma", list(SigmaEstimator))
def test_esr_shrink_of_a_floored_level_at_a_huge_scale_matches_per_level_oracle(sigma):
    # an all-zero level gets the slab support 1e-8 while the noise scale is
    # about 1e150, so its b = a * beta is about 1e-158, whose 1/b^2 would
    # overflow: the direct side must never see a set of the series side
    rows = np.random.default_rng(5).standard_normal((2, 256)) * 1e150
    pyramid = dwt_forward(rows, make_daubechies_filter(10))
    pyramid.details[6][0] = 0.0
    diag = _assert_esr_shrink_matches_per_level_oracle(pyramid, ElicitationConfig(
        sigma_estimator=sigma))
    betas = diag["levels"][6 - pyramid.coarse_level]["beta"]
    assert _bits(betas[0]) == _bits(beta_level(np.zeros(64))) == _bits(BETA_FLOOR)
    v = np.sqrt(2.0 * diag["lambda"]) * betas
    assert v[0] < 1e-154 < v[1]
    assert np.isfinite(pyramid.coeffs).all() and not pyramid.details[6][0].any()


@pytest.mark.parametrize("sigma", list(SigmaEstimator))
def test_esr_shrink_memory_does_not_grow_with_n(sigma, monkeypatch):
    # the rule works in blocks of bounded size: from n = 65536 to 262144
    # the traced peak of the rule, elicitation left out, grows by less than
    # 1 MB (with temporaries the size of a level it grew by 9 MB)
    import epashrink.study as study_mod

    peaks = []

    def traced_esr_levels(*args):
        tracemalloc.start()
        try:
            esr_levels(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    esr_levels = study_mod._esr_levels
    monkeypatch.setattr(study_mod, "_esr_levels", traced_esr_levels)
    cfg = ElicitationConfig(sigma_estimator=sigma)
    filt = make_daubechies_filter(10)
    for n in (65536, 262144):
        pyramid = dwt_forward(np.random.default_rng(n).standard_normal(n), filt)
        shrink_pyramid(pyramid, RuleSpec("esr"), cfg, n)
    assert len(peaks) == 2
    assert peaks[1] - peaks[0] < 1e6


def test_run_study_wall_times_sum_to_at_most_the_run():
    config = StudyConfig(
        functions=(TestFunctionKind.BUMPS, TestFunctionKind.BLOCKS),
        sizes=(128, 512),
        snrs=(1.0, 3.0),
        replications=3,
        rules=(RuleSpec("esr"), RuleSpec("soft"), RuleSpec("hard", 2.0)),
        elicitation=benchmark_elicitation(),
        seed=3,
    )
    t0 = time.perf_counter()
    report = run_study(config)
    total = time.perf_counter() - t0
    times = [cell.wall_time_s for cell in report.cells]
    assert all(t > 0 for t in times)
    assert sum(times) <= total


def test_an_injected_non_finite_draw_fails_its_batch(monkeypatch):
    # no config StudyConfig accepts draws a non-finite sample; one injected
    # into the draw at snr 3, replication 1 fails the forward transform, and
    # its chunk raises the batch error, the cause chained, with no warning
    import epashrink.study as study_mod

    config = replace(_tiny_config((RuleSpec("soft"), RuleSpec("esr"))), snrs=(1.0, 3.0))
    bad_key = _noise_key(config.seed, TestFunctionKind.HEAVISINE, 128, 3.0, 1)
    draw_eps = study_mod._draw_eps

    def eps_with_a_nan(keys, rows):
        draw_eps(keys, rows)
        rows[keys.index(bad_key), 5] = np.nan

    monkeypatch.setattr(study_mod, "_draw_eps", eps_with_a_nan)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as got:
            run_study(config)
    assert not caught
    assert str(got.value) == ("batch (function=heavisine, n=128) failed: "
                              "forward transform: result is not finite")
    assert type(got.value.__cause__) is NumericError


def test_large_signal_study_has_finite_scores_without_warnings():
    config = StudyConfig(
        functions=(TestFunctionKind.HEAVISINE,),
        sizes=(128,),
        snrs=(1.0,),
        replications=3,
        rules=(RuleSpec("esr"), RuleSpec("soft")),
        elicitation=benchmark_elicitation(),
        seed=1,
        target_sd=7e99,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_study(config)
    assert not caught
    # at a noise scale of 7e3 lambda(s) * s^2 is already scale-free (see
    # test_scale_equivariance), so the scores scale with the signal squared
    ref = run_study(replace(config, target_sd=7e3))
    for big, small in zip(report.cells, ref.cells):
        assert np.isfinite(big.mse_sd) and big.mse_sd > 0
        assert big.amse == pytest.approx(1e192 * small.amse, rel=1e-9)
        assert big.mse_sd == pytest.approx(1e192 * small.mse_sd, rel=1e-9)


def test_amse_at_the_largest_draw_scale_is_the_mean_of_its_samples():
    # at the top of DRAW_SCALES the sum of 200 squared errors is far below
    # the largest double, so each AMSE is the plain mean of its samples
    config = StudyConfig(functions=(TestFunctionKind.HEAVISINE,), sizes=(64,), snrs=(1.0,),
                         replications=200, rules=(RuleSpec("soft"),), seed=1,
                         target_sd=DRAW_SCALES[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cell = run_study(config).cells[0]
    assert cell.amse == float(np.mean(cell.mse_samples)) > 1e199
    assert np.isfinite(cell.mse_sd) and cell.mse_sd > 0


@st.composite
def _accepted_scales(draw):
    """A target_sd and one or two SNRs at which every draw's scale,
    max(target_sd, target_sd / snr), lies within DRAW_SCALES: both edges,
    a target_sd of 1e-300 at an SNR of 1e-200, and SNRs up to 1e300, at
    which the noise underflows to 0, among them."""
    low, high = DRAW_SCALES
    edges = [(low, (1.0,)), (high, (1.0, 1e300)), (low, (1e300,)), (1e-300, (1e-200,)),
             (7.0, (1e300, 7e-100))]
    if draw(st.booleans()):
        return draw(st.sampled_from(edges))
    a = draw(st.integers(-300, 100))
    top = 300 if a >= -100 else a + 100
    snrs = draw(st.lists(st.integers(max(a - 100, -300), top), min_size=1, max_size=2,
                         unique=True))
    return float(f"1e{a}"), tuple(float(f"1e{b}") for b in snrs)


_POWERS = st.one_of(st.sampled_from([-300, -150, -8, 0, 8, 150, 154, 300]),
                    st.integers(-300, 300)).map(lambda e: float(f"1e{e}"))


@settings(max_examples=60, deadline=None)
@given(
    scales=_accepted_scales(),
    functions=st.lists(st.sampled_from(list(TestFunctionKind)), min_size=1, max_size=4,
                       unique=True),
    sizes=st.lists(st.sampled_from([4, 8, 64, 512]), min_size=1, max_size=2, unique=True),
    replications=st.integers(1, 3),
    rules=st.lists(st.sampled_from(["esr", "soft", "hard", "soft:0", "hard:inf", "soft:2.5"]),
                   min_size=1, max_size=6, unique=True),
    sigma=st.sampled_from(list(SigmaEstimator)),
    wavelet_order=st.integers(1, 10),
    coarse_level=st.integers(0, 1),
    c_tau=st.one_of(st.just((1.0, 2.0)), st.tuples(_POWERS, _POWERS)),
    seed=st.integers(0, 2**16),
)
def test_every_accepted_study_ends_in_finite_cells(scales, functions, sizes, replications,
                                                   rules, sigma, wavelet_order, coarse_level,
                                                   c_tau, seed):
    # StudyConfig and ElicitationConfig decide whether a study can fail: a
    # config they accept runs to the end in finite cells, under every rule,
    # estimator and wavelet order, at the default c and tau and at every
    # accepted power of ten, with no numpy warning
    target_sd, snrs = scales
    try:
        elicitation = ElicitationConfig(c=c_tau[0], tau=c_tau[1],
                                        sigma_estimator=sigma, coarse_level=coarse_level)
        config = StudyConfig(functions=functions, sizes=sizes, snrs=snrs,
                             replications=replications, rules=rules, elicitation=elicitation,
                             wavelet_order=wavelet_order, seed=seed, target_sd=target_sd)
    except (ConfigError, DomainError):
        assume(False)  # c and tau that overflow the rate, or SNRs that share a key
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_study(config)
    assert len(report.cells) == len(functions) * len(sizes) * len(snrs) * len(rules)
    for cell in report.cells:
        assert math.isfinite(cell.amse) and math.isfinite(cell.mse_sd)
        assert np.isfinite(cell.mse_samples).all() and (cell.mse_samples >= 0.0).all()


@pytest.mark.parametrize("function", list(TestFunctionKind))
def test_no_truth_of_a_study_is_constant(function):
    # a study's sizes are powers of two from 4 up, and the grid x_i = i/n at
    # n holds the grid at n/2: a function with a nonzero SD at n = 4 has one
    # at every size, so every draw's noise scale sd / snr is positive
    assert np.std(signals_mod._raw_test_function(function, np.arange(1, 5) / 4)) > 0


# ---------------------------------------------------------------------------
# the batch path of run_study against its per-draw and per-level oracles


def _draw_config(target_sd, snrs=(0.5, 3.0), replications=3):
    return StudyConfig(functions=(TestFunctionKind.BUMPS,), sizes=(64,), snrs=snrs,
                       replications=replications, rules=(RuleSpec("soft"),), seed=5,
                       target_sd=target_sd)


def _coords(config):
    return [(snr, rep) for snr in config.snrs for rep in range(config.replications)]


# the draws' scale at SNR 0.5 is twice target_sd: 1e100 at 5e99
@pytest.mark.parametrize("target_sd", [7.0, 1e-100, 5e99])
def test_every_draw_of_a_batch_is_add_noise_bit_for_bit(target_sd):
    # the draws of two functions in one stack, each row with its own truth
    config = replace(_draw_config(target_sd),
                     functions=(TestFunctionKind.BUMPS, TestFunctionKind.HEAVISINE))
    n = config.sizes[0]
    truths = [generate_test_function(function, n, target_sd) for function in config.functions]
    stack = (np.array([truth.samples for truth in truths]), None,
             tuple(truth.sd() for truth in truths))
    # the batch rows from 1 on: every draw of both functions but the first
    per = len(_coords(config))
    rows = _noisy_rows(config, stack, range(1, 2 * per))
    assert rows.shape == (2 * per - 1, n)
    wanted = [(function, truth, c) for function, truth in zip(config.functions, truths)
              for c in _coords(config)][1:]
    for row, (function, truth, (snr, rep)) in zip(rows, wanted, strict=True):
        want = add_noise(truth, snr, _noise_key(config.seed, function, n, snr, rep))
        assert np.array_equal(row, want.samples)


@settings(max_examples=25, deadline=None)
@given(keys=st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 3), st.integers(2, 16),
                               st.integers(0, 10**12), st.integers(0, 2**33)),
                     min_size=1, max_size=6),
       n=st.sampled_from([1, 3, 64]))
def test_draw_eps_draws_each_keys_noise_rng_stream(keys, n):
    import epashrink.study as study_mod

    rows = np.empty((len(keys), n))
    study_mod._draw_eps(keys, rows)
    for key, row in zip(keys, rows):
        assert np.array_equal(row, signals_mod.noise_rng(key).standard_normal(n))


@pytest.fixture
def cold_truths():
    """An empty truth memo, emptied again afterwards: for tests that count
    the work of making a truth, or that replace generate_test_function."""
    import epashrink.study as study_mod

    study_mod._truths.cache_clear()
    yield
    study_mod._truths.cache_clear()


@pytest.mark.parametrize("coarse_level", [0, 3])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_slab_supports_are_beta_level_per_level(coarse_level, scale):
    # a stack with an all-zero level in one row, and a single signal: the
    # floored level is BETA_FLOOR, as beta_level gives it
    stacked = _stacked_test_pyramid()
    stacked.coeffs[0] *= scale
    pyramid = WaveletPyramid(coarse_level, stacked.coeffs)
    for p in (pyramid, WaveletPyramid(coarse_level, pyramid.coeffs[2].copy())):
        want = [beta_level(block) for block in p.details.values()]
        betas = _slab_supports(p)
        assert betas.shape == (*p.coeffs.shape[:-1], len(want))
        for i, beta in enumerate(want):
            assert np.array_equal(_bits(betas[..., i]), _bits(beta))
        assert _bits(betas[..., 5 - coarse_level].reshape(-1)[-1]) == _bits(BETA_FLOOR)
        assert np.count_nonzero(betas == BETA_FLOOR) == 1


@pytest.mark.parametrize("rule", ["esr", "soft", "hard"])
@pytest.mark.parametrize("sigma", list(SigmaEstimator))
def test_subnormal_signal_is_an_input_error(rule, sigma):
    # at a peak of 1e-317 the sigma_hat floor, 1e-8 of the largest detail
    # coefficient, underflows to 0; every rule rejects the signal alone
    spike = np.zeros(512)
    spike[100] = 1e-317
    cfg = ElicitationConfig(sigma_estimator=sigma)
    for y in (spike, 1e-317 / 7.0 * generate_test_function("heavisine", 512).samples):
        with pytest.raises(InputError, match=r"largest detail coefficient, .*e-31\d, "
                                             r"is subnormal"):
            denoise(Signal(y), RuleSpec(rule), cfg)
    # one subnormal row fails a stack; all-zero and normal rows do not
    rows = np.zeros((3, 512))
    rows[1] = 1e-100 * np.random.default_rng(1).standard_normal(512)
    shrink_pyramid(dwt_forward(rows, make_daubechies_filter(10)), RuleSpec(rule), cfg, 512)
    rows[2] = spike
    with pytest.raises(InputError):
        shrink_pyramid(dwt_forward(rows, make_daubechies_filter(10)), RuleSpec(rule), cfg, 512)


def test_chunked_batches_match_per_draw_oracle(monkeypatch):
    # chunks of 4 rows at n = 64, which cut the draws of an SNR in two and
    # put both functions in the middle chunk, and of one row at n = 256
    import epashrink.study as study_mod

    chunks = []

    def counted_score_chunk(config, truths, rows, scores, seconds):
        per = len(config.snrs) * config.replications
        chunks.append((truths[0].shape[-1], [(config.functions[k].value, len(list(group)))
                                             for k, group
                                             in itertools.groupby(i // per for i in rows)]))
        return score_chunk(config, truths, rows, scores, seconds)

    score_chunk = study_mod._score_chunk
    monkeypatch.setattr(study_mod, "_score_chunk", counted_score_chunk)
    monkeypatch.setattr(study_mod, "_CHUNK", 256)
    config = StudyConfig(
        functions=(TestFunctionKind.BLOCKS, TestFunctionKind.DOPPLER),
        sizes=(64, 256),
        snrs=(0.5, 3.0),
        replications=3,
        rules=(RuleSpec("esr"), RuleSpec("hard")),
        elicitation=benchmark_elicitation(),
        seed=12,
    )
    report = run_study(config)
    assert chunks == ([(64, [("blocks", 4)]), (64, [("blocks", 2), ("doppler", 2)]),
                       (64, [("doppler", 4)])]
                      + [(256, [("blocks", 1)])] * 6 + [(256, [("doppler", 1)])] * 6)
    oracle = _per_draw_oracle(config)
    assert [(c.function, c.n, c.snr, c.rule) for c in report.cells] == list(oracle)
    for cell in report.cells:
        want = oracle[(cell.function, cell.n, cell.snr, cell.rule)]
        assert np.array_equal(cell.mse_samples, want)
        assert cell.amse == float(np.mean(want))
        assert cell.mse_sd == float(np.std(want, ddof=1))
        assert cell.wall_time_s > 0


def test_the_chunk_cap_cuts_acceptance_desk_into_chunks_of_at_most_2_19_samples(monkeypatch):
    # one batch per n of all 4 x 3 x 100 draws, in chunks of whole rows of
    # at most 2^19 samples: 2 at n = 512, 3 at 1024 and 5 at 2048, most of
    # them holding the draws of two functions or more
    import epashrink.study as study_mod

    chunks = []

    def counted_score_chunk(config, truths, rows, scores, seconds):
        chunks.append((truths[0].shape[-1], len(rows)))
        scores[...] = 1.0

    monkeypatch.setattr(study_mod, "_score_chunk", counted_score_chunk)
    run_study(study_preset("acceptance-desk"))
    assert chunks == [(512, 1024), (512, 176), (1024, 512), (1024, 512), (1024, 176),
                      (2048, 256), (2048, 256), (2048, 256), (2048, 256), (2048, 176)]
    assert all(n * rows <= study_mod._CHUNK for n, rows in chunks)


@pytest.mark.usefixtures("cold_truths")
def test_a_batch_does_its_bookkeeping_once(monkeypatch):
    # per (function, n), the first time: one truth; per n: one SD for the
    # stack of its truths, the first time, and one reduction for the mse_sd
    # of all its cells; per n, in its one chunk: one reduction for the slab
    # supports and one shrink per rule; no inverse transform at all. A
    # second run takes every truth and its SD from the memo
    import epashrink.study as study_mod

    calls = {"generate": 0, "truth sd": 0, "mse_sd": 0, "supports": 0, "shrinks": 0,
             "inverses": 0}

    def counting(name, fn, key=None):
        def wrapper(*args, **kwargs):
            calls[key(*args) if key else name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def which_std(values, *args):
        return {2: "truth sd", 4: "mse_sd"}[np.ndim(values)]

    monkeypatch.setattr(study_mod, "scaled_std", counting(None, study_mod.scaled_std, which_std))
    for name, attr in (("generate", "generate_test_function"),
                       ("supports", "_slab_supports"), ("shrinks", "shrink_pyramid"),
                       ("inverses", "dwt_inverse")):
        monkeypatch.setattr(study_mod, attr, counting(name, getattr(study_mod, attr)))
    config = StudyConfig(
        functions=(TestFunctionKind.BUMPS, TestFunctionKind.DOPPLER),
        sizes=(128, 512),
        snrs=(0.5, 1.0, 3.0),
        replications=4,
        rules=(RuleSpec("esr"), RuleSpec("soft"), RuleSpec("hard", 2.0)),
        elicitation=benchmark_elicitation(),
        seed=2,
    )
    run_study(config)
    assert calls == {"generate": 4, "truth sd": 2, "mse_sd": 2, "supports": 2, "shrinks": 6,
                     "inverses": 0}
    calls.update(dict.fromkeys(calls, 0))
    run_study(config)
    assert calls == {"generate": 0, "truth sd": 0, "mse_sd": 2, "supports": 2, "shrinks": 6,
                     "inverses": 0}


@pytest.mark.usefixtures("cold_truths")
@pytest.mark.parametrize("chunk", [2**20, 5 * 128])
def test_a_batch_keys_its_streams_once_per_chunk(chunk, monkeypatch):
    # on the success path a chunk hashes all its rows' keys in one pass and
    # re-keys one Philox: no SeedSequence, Philox or Generator per row, and
    # no noise_rng call. Each truth is generated once, the first time, and
    # the truths at each n are transformed together: one forward transform
    # per n besides one per chunk, and on a second run one per chunk alone
    import epashrink.study as study_mod

    calls = {"SeedSequence": 0, "Philox": 0, "Generator": 0, "noise_rng": 0,
             "seed_states": 0, "generate": 0, "forward": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("SeedSequence", "Philox", "Generator"):
        monkeypatch.setattr(np.random, name, counting(name, getattr(np.random, name)))
    monkeypatch.setattr(signals_mod, "noise_rng", counting("noise_rng", signals_mod.noise_rng))
    monkeypatch.setattr(study_mod, "_seed_states", counting("seed_states", study_mod._seed_states))
    # a chunk transforms into the kept buffers (_forward), a truth stack
    # into fresh ones (dwt_forward)
    for name in ("dwt_forward", "_forward"):
        monkeypatch.setattr(study_mod, name, counting("forward", getattr(study_mod, name)))
    monkeypatch.setattr(study_mod, "generate_test_function",
                        counting("generate", study_mod.generate_test_function))
    monkeypatch.setattr(study_mod, "_CHUNK", chunk)
    config = StudyConfig(functions=(TestFunctionKind.BUMPS, TestFunctionKind.DOPPLER),
                         sizes=(128, 256), snrs=(0.5, 3.0), replications=3,
                         rules=(RuleSpec("esr"), RuleSpec("soft")), seed=2)
    # 12 rows at each n: one chunk each, or chunks of 5 rows at n = 128 and
    # of 2 at n = 256
    chunks = 2 if chunk == 2**20 else 3 + 6
    for truths, stacks in ((4, 2), (0, 0)):
        calls.update(dict.fromkeys(calls, 0))
        report = run_study(config)
        assert all(np.isfinite(cell.mse_samples).all() for cell in report.cells)
        assert calls == {"SeedSequence": 0, "Philox": chunks, "Generator": chunks,
                         "noise_rng": 0, "seed_states": chunks, "generate": truths,
                         "forward": chunks + stacks}


def _values(report):
    """Every value of a report's cells but wall_time_s, bit for bit."""
    return [(c.function, c.n, c.snr, c.rule, c.amse.hex(), c.mse_sd.hex(),
             c.mse_samples.tobytes(), c.degenerate_sd) for c in report.cells]


@settings(max_examples=20, deadline=None)
@given(
    functions=st.lists(st.sampled_from(list(TestFunctionKind)), min_size=1, max_size=4,
                       unique=True),
    sizes=st.lists(st.sampled_from([4, 8, 64, 1024, 2048]), min_size=1, max_size=3,
                   unique=True),
    replications=st.integers(1, 3),
    target_sd=st.sampled_from([7.0, *DRAW_SCALES]),
    seed=st.integers(0, 2**16),
)
def test_a_warm_truth_memo_gives_the_report_of_a_cleared_one(functions, sizes, replications,
                                                             target_sd, seed):
    # functions and sizes in any order. The warm runs come after studies
    # that differ in one part of a truth's key have filled the memo with
    # truths of the same functions and sizes, and then on the memo of
    # config's own truths, after every sample of a report was overwritten
    import epashrink.study as study_mod

    config = StudyConfig(functions=tuple(functions), sizes=tuple(sizes), snrs=(1.0, 3.0),
                         replications=replications, rules=(RuleSpec("esr"), RuleSpec("soft")),
                         seed=seed, target_sd=target_sd)

    def outcome():
        report = run_study(config)
        values = _values(report)
        for cell in report.cells:
            cell.mse_samples[...] = -1.0
        return values

    study_mod._truths.cache_clear()
    cold = outcome()
    study_mod._truths.cache_clear()
    for other in (replace(config, target_sd=3.0), replace(config, wavelet_order=4),
                  replace(config, elicitation=ElicitationConfig(coarse_level=1))):
        run_study(other)
    assert outcome() == cold
    assert outcome() == cold
    for n in config.sizes:
        memoised = study_mod._truths(config.functions, n, config.target_sd,
                                     config.wavelet_order, config.elicitation.coarse_level)
        for values in memoised[:2]:
            assert values.base is None  # each memoised stack owns its memory
            with pytest.raises(ValueError):
                values[0] = 0.0


def test_noise_keys_are_the_log2_of_n_and_the_function_s_place():
    order = tuple(TestFunctionKind)
    for function in TestFunctionKind:
        for n in (2**j for j in range(2, 63)):
            assert _noise_key(3, function, n, 0.5, 7) == (
                3, order.index(function), int(np.log2(n)), 500_000_000, 7)


_BATCH_RULES = (RuleSpec("esr"), RuleSpec("soft"), RuleSpec("hard"), RuleSpec("hard", 2.0))


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([4, 64, 128, 512, 2048]),
    draws=st.integers(1, 4),
    coarse_level=st.integers(0, 1),
    sigma=st.sampled_from(list(SigmaEstimator)),
    zero_row=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_multi_rule_batch_matches_one_denoise_per_draw_and_rule(
        n, draws, coarse_level, sigma, zero_row, seed):
    # the rules share the forward transform and the elicitation, and each
    # shrinks its copy in the one work array; each (draw, rule), checked
    # before the next rule overwrites it, is still what a denoise of that
    # draw under that rule alone gives, bit for bit, and that denoise's
    # estimate is the inverse of its shrunk coefficients
    cfg = ElicitationConfig(sigma_estimator=sigma, coarse_level=coarse_level)
    filt = make_daubechies_filter(10)
    truth = generate_test_function("bumps", n).samples
    rows = truth + np.random.default_rng(seed).standard_normal((draws, n))
    if zero_row:
        rows[0] = 0.0
    empirical, each_rule = _denoise_stack(rows, _BATCH_RULES, cfg, filt)
    # strict: the generator yields one result per rule
    for (diagnostics, shrunk, seconds), rule in zip(each_rule, _BATCH_RULES, strict=True):
        assert shrunk.coeffs.shape == (draws, n)
        assert seconds > 0
        for r in range(draws):
            one = denoise(Signal(rows[r]), rule, cfg)
            assert np.array_equal(shrunk.coeffs[r], one.shrunk.coeffs)
            assert np.array_equal(one.samples, dwt_inverse(one.shrunk, filt))
            assert np.array_equal(empirical.coeffs[r], one.empirical.coeffs)
            want = one.diagnostics
            assert diagnostics.keys() == want.keys()
            assert diagnostics["sigma_hat"][r] == want["sigma_hat"]
            for key in ("lambda", "eta"):
                if key in want:
                    assert np.broadcast_to(diagnostics[key], draws)[r] == want[key]
            assert [(level["level"], level["alpha"], level["beta"][r])
                    for level in diagnostics["levels"]] == [
                (level["level"], level["alpha"], level["beta"]) for level in want["levels"]]


# ---------------------------------------------------------------------------
# one batch per n against one study per (function, n)


def _studies_per_pair(config):
    """The cells of one run_study per (function, n) of the grid, function by
    function and size by size."""
    return [cell for function in config.functions for n in config.sizes
            for cell in run_study(replace(config, functions=(function,), sizes=(n,))).cells]


@settings(max_examples=20, deadline=None)
@given(
    functions=st.lists(st.sampled_from(list(TestFunctionKind)), min_size=1, max_size=4,
                       unique=True),
    sizes=st.lists(st.sampled_from([8, 32, 64, 128]), min_size=1, max_size=4, unique=True),
    snrs=st.lists(st.sampled_from([0.2, 1.0, 3.0]), min_size=1, max_size=2, unique=True),
    replications=st.integers(1, 3),
    chunk=st.sampled_from([8, 96, 200, 2**20]),
    seed=st.integers(0, 2**16),
)
def test_one_batch_per_n_matches_one_study_per_function_and_n(
        functions, sizes, snrs, replications, chunk, seed):
    # functions and sizes in any order; small chunks cut across the
    # functions of a batch
    import epashrink.study as study_mod

    config = StudyConfig(functions=tuple(functions), sizes=tuple(sizes), snrs=tuple(snrs),
                         replications=replications, rules=(RuleSpec("esr"), RuleSpec("soft")),
                         elicitation=benchmark_elicitation(), seed=seed)
    with mock.patch.object(study_mod, "_CHUNK", chunk):
        t0 = time.perf_counter()
        report = run_study(config)
        total = time.perf_counter() - t0
        want = _studies_per_pair(config)
    assert sum(cell.wall_time_s for cell in report.cells) <= total
    # every cell owns its samples
    assert len({id(cell.mse_samples) for cell in report.cells}) == len(report.cells)
    assert all(cell.mse_samples.base is None for cell in report.cells)
    assert len(report.cells) == len(want)
    for got, cell in zip(report.cells, want):
        assert (got.function, got.n, got.snr, got.rule, got.degenerate_sd) == (
            cell.function, cell.n, cell.snr, cell.rule, cell.degenerate_sd)
        assert np.array_equal(got.mse_samples, cell.mse_samples)
        assert (got.amse, got.mse_sd) == (cell.amse, cell.mse_sd)
        assert got.wall_time_s > 0


def test_study_desk_batch_memory_is_bounded():
    # the study-desk grid at n = 2048 in one batch of 24 rows (393 kB per
    # array): with every rule shrunk and scored in the array of the draws,
    # no estimate ever made, the truths taken from the memo and the draws,
    # coefficients and scratch taken from the thread's kept buffers, a
    # second run's traced peak is about 0.58 MB, the esr kernel's work
    # arrays and numpy's ufunc buffers (1.63 MB when each chunk made fresh
    # arrays, 1.77 MB on an empty memo, which makes the truths as one stack;
    # 1.85 MB when that stack was made on every run, 2.2 MB when each
    # rule's estimates were made, 3.9 MB when all rules' copies were
    # inverted together)
    config = StudyConfig(functions=tuple(TestFunctionKind), sizes=(2048,),
                         snrs=(0.2, 1.0, 3.0), replications=2,
                         rules=(RuleSpec("esr"), RuleSpec("soft")),
                         elicitation=benchmark_elicitation(), seed=4)
    run_study(config)  # fills the filter and step-matrix caches
    tracemalloc.start()
    try:
        run_study(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.8e6


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_every_rule_shrinks_and_is_scored_in_the_chunk_s_draws(monkeypatch):
    # the draws are dead once transformed: every rule's coefficients are
    # copied into their array and shrunk there, and scored there in place
    # to what mse of the shrunk coefficients against the row's truth's
    # gives, bit for bit; the chunk's rows span two functions
    import epashrink.study as study_mod

    config = StudyConfig(functions=("bumps", "doppler"), sizes=(64,), snrs=(0.5, 3.0),
                         replications=3, rules=("esr", "soft", "hard:2"), seed=5)
    truths = study_mod._truths(config.functions, 64, config.target_sd, config.wavelet_order,
                               config.elicitation.coarse_level)
    draws, shrunk = [], []
    noisy_rows, shrink = study_mod._noisy_rows, study_mod.shrink_pyramid

    def recorded_noisy_rows(*args):
        draws.append(noisy_rows(*args))
        return draws[-1]

    def recorded_shrink(pyramid, *args, **kwargs):
        diagnostics = shrink(pyramid, *args, **kwargs)
        shrunk.append((pyramid.coeffs, pyramid.coeffs.copy()))
        return diagnostics

    monkeypatch.setattr(study_mod, "_noisy_rows", recorded_noisy_rows)
    monkeypatch.setattr(study_mod, "shrink_pyramid", recorded_shrink)
    rows = range(3, 12)
    scores = np.empty((len(config.rules), len(rows)))
    study_mod._score_chunk(config, truths, rows, scores, [0.0] * len(config.rules))
    [chunk] = draws
    assert len(shrunk) == len(config.rules)
    parts = list(study_mod._parts(config, rows))
    assert [k for k, _ in parts] == [0, 1]
    for i, (coeffs, copy) in enumerate(shrunk):
        assert np.shares_memory(coeffs, chunk)
        for k, part in parts:
            assert np.array_equal(_bits(scores[i, part]), _bits(mse(copy[part], truths[1][k])))


class TestPlainNumbers:
    def test_a_float32_scale_is_the_equal_float(self):
        # SNRs, the target SD and the elicitation's numbers are stored as
        # Python floats and ints, and its estimator as a SigmaEstimator, so
        # numpy scalars give the report of the equal plain values, bit for bit
        grid = dict(functions=("bumps",), sizes=(64,), replications=2,
                    rules=("esr", "soft"), seed=3)
        elicitation = ElicitationConfig(gamma=np.float32(2), l=np.float64(1), c=np.int64(3),
                                        tau=5, sigma_estimator="sd", coarse_level=np.int64(1))
        config = StudyConfig(**grid, snrs=(np.float32(0.5),), target_sd=np.float32(7.0),
                             elicitation=elicitation)
        assert type(config.snrs[0]) is float and type(config.target_sd) is float
        assert [type(getattr(elicitation, name)) for name in ("gamma", "l", "c", "tau")] == \
            [float] * 4
        assert type(elicitation.coarse_level) is int
        assert elicitation.sigma_estimator is SigmaEstimator.SAMPLE_SD
        plain = ElicitationConfig(gamma=2.0, l=1.0, c=3.0, tau=5.0,
                                  sigma_estimator=SigmaEstimator.SAMPLE_SD, coarse_level=1)
        assert _values(run_study(config)) == _values(
            run_study(StudyConfig(**grid, snrs=(0.5,), target_sd=7.0, elicitation=plain)))

    @settings(max_examples=15, deadline=None)
    @given(
        sizes=st.lists(st.sampled_from([8, 16, 64]), min_size=1, max_size=2, unique=True),
        snrs=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=2, unique_by=_snr_key),
        target_sd=st.floats(0.1, 100.0),
        replications=st.integers(1, 3),
        seed=st.integers(0, 1000),
        real=st.sampled_from([float, np.float16, np.float32, np.float64]),
        whole=st.sampled_from([int, np.int32, np.int64, np.uint16]),
        gamma=st.floats(0.5, 4.0),
        coarse_level=st.integers(0, 2),
    )
    def test_a_report_of_numpy_scalar_fields_dumps_to_json(self, sizes, snrs, target_sd,
                                                           replications, seed, real, whole,
                                                           gamma, coarse_level):
        import json

        # each SNR once, and one noise key each
        assume(len({_snr_key(real(snr)) for snr in snrs}) == len(snrs))
        elicitation = ElicitationConfig(gamma=real(gamma), l=real(1.5), c=real(1.0),
                                        tau=real(2.0), sigma_estimator="sd",
                                        coarse_level=whole(coarse_level))
        config = StudyConfig(functions=("bumps", "blocks"), sizes=[whole(n) for n in sizes],
                             snrs=np.array(snrs, dtype=real), replications=whole(replications),
                             rules=("esr", "soft"), elicitation=elicitation,
                             wavelet_order=whole(4), seed=whole(seed), target_sd=real(target_sd))
        parsed = json.loads(json.dumps(run_study(config).to_dict()))
        assert parsed["config"]["snrs"] == [float(real(snr)) for snr in snrs]
        assert parsed["config"]["target_sd"] == float(real(target_sd))
        assert parsed["config"]["sizes"] == sizes
        assert parsed["config"]["elicitation"] == {
            "gamma": float(real(gamma)), "l": 1.5, "c": 1.0, "tau": 2.0,
            "sigma_estimator": "sd", "coarse_level": coarse_level}

    @settings(max_examples=15, deadline=None)
    @given(
        functions=st.lists(st.sampled_from(list(TestFunctionKind)), min_size=1, max_size=2,
                           unique=True),
        sizes=st.lists(st.sampled_from([8, 16, 32]), min_size=1, max_size=2, unique=True),
        snrs=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=2, unique_by=_snr_key),
        target_sd=st.floats(0.1, 100.0),
        real=st.sampled_from([np.float32, np.float64]),
        rules=st.lists(st.sampled_from(["esr", "soft", "hard-universal", "soft:2.123456789",
                                        "hard:0.1", "soft:inf"]),
                       min_size=1, max_size=3, unique=True),
        sigma=st.sampled_from(list(SigmaEstimator)),
        replications=st.integers(1, 2),
        seed=st.integers(0, 1000),
    )
    def test_a_study_replays_from_its_summary(self, functions, sizes, snrs, target_sd, real,
                                              rules, sigma, replications, seed):
        # the config summary.json records rebuilds the config, and that
        # config reruns the study to the same cells, bit for bit
        import json

        # each SNR once, and one noise key each
        assume(len({_snr_key(real(snr)) for snr in snrs}) == len(snrs))
        config = StudyConfig(functions=functions, sizes=sizes,
                             snrs=[real(snr) for snr in snrs], replications=replications,
                             rules=rules, elicitation=ElicitationConfig(sigma_estimator=sigma),
                             seed=seed, target_sd=real(target_sd))
        report = run_study(config)
        recorded = json.loads(json.dumps(report.to_dict()))["config"]
        replayed = StudyConfig(**{**recorded,
                                  "elicitation": ElicitationConfig(**recorded["elicitation"])})
        assert replayed == config
        assert _values(run_study(replayed)) == _values(report)


@pytest.mark.parametrize("call, error, field", [
    (lambda: esr(10**400, MixturePriorParams(0.9, 6.0, 3.0)), InputError, "coefficient values"),
    (lambda: marginal_m(10**400, MixturePriorParams(0.9, 6.0, 3.0)), InputError,
     "coefficient values"),
    (lambda: hard_threshold(np.ones(4), 10**400), DomainError, "threshold"),
    (lambda: soft_threshold(np.ones(4), 10**400), DomainError, "threshold"),
    (lambda: hard_threshold(np.ones(4), "1"), DomainError, "threshold"),
    (lambda: soft_threshold(np.ones(4), "1"), DomainError, "threshold"),
    (lambda: universal_threshold(10**400, 8), DomainError, "sigma_hat"),
    (lambda: lambda_from_s(1.0, 10**400), DomainError, "c and tau"),
    (lambda: rule_statistics(10**400, MixturePriorParams(0.9, 6.0, 3.0)), InputError, "theta"),
    (lambda: alpha_level(3, 0, 10**400, 2.0), DomainError, "j, J0, gamma and l"),
    (lambda: alpha_level(3, 0, 2.0, 10**400), DomainError, "j, J0, gamma and l"),
    (lambda: alpha_level(10**400, 0, 2.0, 2.0), DomainError, "j, J0, gamma and l"),
    (lambda: RuleSpec("soft", 10**400), ConfigError, "threshold"),
], ids=["esr", "marginal_m", "hard", "soft", "hard text", "soft text", "universal",
        "lambda_from_s", "rule_statistics", "alpha_level gamma", "alpha_level l", "alpha_level j",
        "RuleSpec"])
def test_a_number_past_the_double_range_or_text_is_the_error_its_docstring_names(call, error,
                                                                                 field):
    with pytest.raises(error, match=f"^{re.escape(field)} "):
        call()


@pytest.mark.parametrize("text", ["2", b"2", ["1", "2"], np.array(["2"]),
                                  np.array([1.0, "2"], dtype=object)],
                         ids=["str", "bytes", "list", "str array", "object array"])
@pytest.mark.parametrize("call, error, field", [
    (lambda v: esr(v, MixturePriorParams(0.9, 6.0, 3.0)), InputError, "coefficient values"),
    (lambda v: marginal_m(v, MixturePriorParams(0.9, 6.0, 3.0)), InputError,
     "coefficient values"),
    (lambda v: lambda_from_s(v), DomainError, "s"),
    (lambda v: universal_threshold(v, 64), DomainError, "sigma_hat"),
    (lambda v: hard_threshold(np.ones(4), v), DomainError, "threshold"),
], ids=["esr", "marginal_m", "lambda_from_s", "universal", "hard"])
def test_text_is_not_read_as_numbers(call, error, field, text):
    # numpy would parse "2" as 2.0
    with pytest.raises(error, match=f"^{re.escape(field)} must be real numbers, not text"):
        call(text)


_PARAMETERS = {
    "MixturePriorParams.alpha": lambda v: MixturePriorParams(v, 6.0, 3.0).alpha,
    "MixturePriorParams.beta": lambda v: MixturePriorParams(0.9, v, 3.0).beta,
    "MixturePriorParams.lam": lambda v: MixturePriorParams(0.9, 6.0, v).lam,
    "DoubleExponential.lam": lambda v: DoubleExponential(v).lam,
    "Gaussian.sigma": lambda v: Gaussian(v).sigma,
    "RuleSpec.threshold": lambda v: RuleSpec("soft", v).threshold,
}


@pytest.mark.parametrize("parameter", list(_PARAMETERS))
def test_a_parameter_is_stored_as_a_float_or_rejected_by_name(parameter):
    make, field = _PARAMETERS[parameter], parameter.split(".")[1]
    for value in (10**400, "2", (1.5,)):
        with pytest.raises(EpashrinkError, match={"lam": "lambda"}.get(field, field)):
            make(value)
    for value in (np.float32(0.5),) if field == "alpha" else (np.float32(0.5), True, 2):
        stored = make(value)
        assert type(stored) is float and stored == float(value)


def _desk(sizes, seed: int) -> StudyConfig:
    """The study-desk grid at the given sizes: 24 rows per n."""
    return StudyConfig(functions=tuple(TestFunctionKind), sizes=sizes, snrs=(0.2, 1.0, 3.0),
                       replications=2, rules=(RuleSpec("esr"), RuleSpec("soft")),
                       elicitation=benchmark_elicitation(), seed=seed)


def _fresh_values(config, monkeypatch) -> list:
    """The _values of a study whose chunks take fresh arrays, not the
    thread's kept buffers, with an emptied truth memo."""
    import epashrink.study as study_mod

    study_mod._truths.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(study_mod, "_kept", lambda name, size: np.empty(size))
        values = _values(run_study(config))
    study_mod._truths.cache_clear()
    return values


def _in_fresh_thread(fn):
    """fn() in a new thread, which starts with no kept buffers."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


@pytest.mark.usefixtures("cold_truths")
def test_kept_buffers_give_the_reports_of_fresh_ones_whatever_the_order_of_sizes(monkeypatch):
    # a thread's kept buffers grow to the largest chunk and are then cut
    # to smaller ones, with truths memoised in between: sizes largest
    # first, then sizes interleaved across calls, each bit for bit the
    # study of fresh arrays, mse_samples included
    largest_first = _desk((2048, 512, 1024), 3)
    interleaved = [_desk((n,), seed) for seed, n in enumerate((512, 2048, 64, 1024, 2048, 512))]
    want = [_fresh_values(config, monkeypatch) for config in [largest_first, *interleaved]]
    got = _in_fresh_thread(lambda: [_values(run_study(config))
                                    for config in [largest_first, *interleaved]])
    assert got == want


@pytest.mark.usefixtures("cold_truths")
def test_acceptance_desk_on_kept_buffers_is_its_study_on_fresh_arrays(monkeypatch):
    # several chunks per size, the last of each size the smallest
    config = study_preset("acceptance-desk")
    want = _fresh_values(config, monkeypatch)
    assert _in_fresh_thread(lambda: _values(run_study(config))) == want


@pytest.mark.usefixtures("cold_truths")
def test_threads_running_studies_at_once_keep_their_own_buffers(monkeypatch):
    # three threads on two cores or fewer, switching often, each with its
    # own sizes in its own order: every report is the one of fresh arrays
    import sys
    import threading

    configs = {0: [_desk((2048, 512), 5), _desk((1024,), 6)],
               1: [_desk((512, 1024, 2048), 7), _desk((2048,), 8)],
               2: [_desk((64, 2048), 10), _desk((512, 64), 11)]}
    want = {i: [_fresh_values(config, monkeypatch) for config in runs]
            for i, runs in configs.items()}
    got = {}
    start = threading.Barrier(len(configs))

    def run(i):
        start.wait()
        got[i] = [_values(run_study(config)) for config in configs[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in configs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


def test_nothing_a_study_returns_or_memoises_shares_a_kept_buffer():
    import epashrink.study as study_mod

    def check():
        report = run_study(_desk((2048, 64), 9))
        kept = list(vars(study_mod._KEPT).values())
        assert sorted(vars(study_mod._KEPT)) == ["coeffs", "draws", "scratch"]
        truths = [array for n in (2048, 64)
                  for array in study_mod._truths(tuple(TestFunctionKind), n, 7.0, 10, 0)[:2]]
        for array in [cell.mse_samples for cell in report.cells] + truths:
            assert not any(np.shares_memory(array, buffer) for buffer in kept)
        # the draws and coefficients grew to the largest chunk, 24 rows of
        # 2048 samples; the scratch to the larger of half its rows and the
        # 11 constants of the pooled levels 0..6, 127 coefficients a row
        assert [buffer.size for buffer in kept] == [24 * 2048, 24 * 2048, 11 * 24 * 127]

    _in_fresh_thread(check)

