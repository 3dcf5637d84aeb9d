import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epashrink import (
    ConfigError,
    Denoised,
    InputError,
    ElicitationConfig,
    NumericError,
    RuleSpec,
    SigmaEstimator,
    Signal,
    StudyConfig,
    TestFunctionKind,
    add_noise,
    benchmark_elicitation,
    denoise,
    dwt_forward,
    generate_test_function,
    make_daubechies_filter,
    mse,
    run_study,
    shrink_pyramid,
    study_preset,
)


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
        assert out.diagnostics == shrink_pyramid(pyramid, spec, cfg, 512)

    def test_non_finite_input_raises_numeric_error(self):
        samples = np.zeros(64)
        samples[10] = np.nan
        with pytest.raises(NumericError):
            denoise(Signal(samples), RuleSpec("esr"))


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
    """Finite output or NumericError; odd symmetry bit for bit; the scaling
    block passes through untouched."""
    spec = RuleSpec(rule)
    cfg = ElicitationConfig(sigma_estimator=sigma, coarse_level=coarse_level)
    try:
        out = denoise(Signal(y), spec, cfg)
    except NumericError:
        return
    assert np.isfinite(out.samples).all()
    assert np.array_equal(denoise(Signal(-y), spec, cfg).samples, -out.samples)
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
        with pytest.raises(KeyError):
            report.cell("heavisine", 128, 1.0, "soft-universal")

    def test_to_dict_round_trips_through_json(self):
        import json

        report = run_study(_tiny_config((RuleSpec("esr"),), replications=2))
        blob = json.dumps(report.to_dict())
        parsed = json.loads(blob)
        assert parsed["config"]["seed"] == 77
        assert len(parsed["cells"]) == 1
        assert len(parsed["cells"][0]["mse_samples"]) == 2


class TestPresets:
    def test_known_presets(self):
        smoke = study_preset("smoke")
        assert smoke.replications == 1
        desk = study_preset("heavisine-desk", seed=5)
        assert desk.seed == 5
        assert desk.replications == 100
        assert TestFunctionKind.HEAVISINE in desk.functions

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            study_preset("nope")

    def test_smoke_preset_runs_fast(self):
        import time

        t0 = time.perf_counter()
        report = run_study(study_preset("smoke"))
        assert time.perf_counter() - t0 < 10.0
        assert len(report.cells) == 1
