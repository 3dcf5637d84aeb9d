import math
import time
import warnings
from dataclasses import replace

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
from epashrink.dwt import WaveletPyramid
from epashrink.study import _noise_key


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
        assert np.array_equal(out.empirical.coeffs, pyramid.coeffs)
        assert out.diagnostics == shrink_pyramid(pyramid, spec, cfg, 512)
        assert np.array_equal(out.shrunk.coeffs, pyramid.coeffs)
        assert out.shrunk.coeffs is not out.empirical.coeffs

    def test_non_finite_input_raises_input_error(self):
        samples = np.zeros(64)
        samples[10] = np.nan
        with pytest.raises(InputError, match=r"samples\[10\]"):
            denoise(Signal(samples), RuleSpec("esr"))

    @pytest.mark.parametrize("c", [1e-120, 1e90, 1e100])
    @pytest.mark.parametrize("rule", ["esr", "soft", "hard"])
    def test_scale_equivariance(self, rule, c):
        # lambda(s) = 1/s^2 + (c/tau) exp(-s/tau) carries the scale tau, so
        # lambda * s^2 is scale-free only once the second term is below
        # rounding; at a noise scale of 7e3 it is exp(-3500) and the esr
        # pipeline is equivariant like the thresholding ones
        truth = generate_test_function("bumps", 256, 7e3)
        y = add_noise(truth, snr=1.0, seed=5).samples
        spec = RuleSpec(rule)
        ref = denoise(Signal(y), spec)
        out = denoise(Signal(c * y), spec)
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

    @pytest.mark.parametrize("field,value", [
        ("snrs", (math.inf,)), ("snrs", (1.0, math.nan)),
        ("target_sd", math.inf), ("target_sd", math.nan), ("target_sd", 0.0),
    ])
    def test_non_finite_or_non_positive_scale_rejected(self, field, value):
        kwargs = dict(functions=(TestFunctionKind.BUMPS,), sizes=(64,),
                      snrs=(1.0,), replications=1, rules=(RuleSpec("esr"),))
        kwargs[field] = value
        with pytest.raises(ConfigError, match=field):
            StudyConfig(**kwargs)


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


def _per_draw_oracle(config: StudyConfig) -> dict:
    """The per-draw study loop: one denoise per replication and rule, each
    scored with mse. Returns {(function, n, snr, rule label): samples}."""
    samples = {}
    for function in config.functions:
        for n in config.sizes:
            truth = generate_test_function(function, n, config.target_sd)
            for snr in config.snrs:
                for rule in config.rules:
                    samples[(function, n, snr, rule.label)] = np.empty(config.replications)
                for rep in range(config.replications):
                    key = _noise_key(config.seed, function, n, snr, rep)
                    noisy = add_noise(truth, snr, key)
                    for rule in config.rules:
                        out = denoise(noisy, rule, config.elicitation, config.wavelet_order)
                        samples[(function, n, snr, rule.label)][rep] = mse(out.samples,
                                                                           truth.samples)
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
def test_shrink_pyramid_on_stack_matches_rows(rule, sigma, caplog):
    spec = RuleSpec.parse(rule)
    cfg = ElicitationConfig(sigma_estimator=sigma)
    stacked = _stacked_test_pyramid()
    rows = [WaveletPyramid(0, stacked.coeffs[r].copy()) for r in range(3)]
    with caplog.at_level("WARNING"):
        diag = shrink_pyramid(stacked, spec, cfg, 256)
    assert "all-zero" in caplog.text
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
    assert diag["levels"][5]["beta"][2] == 1e-8  # the beta floor
    if spec.kind == "esr":
        # a * beta of the rule per row: some level straddles the series seam
        v = [np.sqrt(2.0 * diag["lambda"]) * level["beta"] for level in diag["levels"]]
        assert any(row_v[1] < 0.05 <= row_v[0] for row_v in v)


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


def test_failure_in_a_batch_names_the_first_failing_draw(monkeypatch):
    # one draw of the batch (snr 3, replication 1) overflows the transform
    import epashrink.study as study_mod

    def add_noise_with_one_bad_draw(truth, snr, key):
        noisy = add_noise(truth, snr, key)
        if snr == 3.0 and key[-1] == 1:
            noisy.samples[:] = 1.7e308
        return noisy

    monkeypatch.setattr(study_mod, "add_noise", add_noise_with_one_bad_draw)
    config = replace(_tiny_config((RuleSpec("soft"), RuleSpec("esr"))), snrs=(1.0, 3.0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match=r"function=heavisine, n=128, snr=3.0, "
                                               r"rep=1\) rule=soft-universal failed"):
            run_study(config)
    assert not caught


def test_huge_signal_study_fails_with_cell_and_no_warning():
    # at a signal scale of 1e300 the draws are finite, but the squared
    # errors overflow: a NumericError naming the first cell, no warning
    config = StudyConfig(
        functions=(TestFunctionKind.BUMPS,),
        sizes=(64,),
        snrs=(1.0,),
        replications=2,
        rules=(RuleSpec("soft"),),
        seed=1,
        target_sd=1e300,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match=r"cell \(function=bumps, n=64, snr=1.0, "
                                               r"rep=0\) rule=soft-universal failed"):
            run_study(config)
    assert not caught


def test_large_signal_study_has_finite_scores_without_warnings():
    config = StudyConfig(
        functions=(TestFunctionKind.HEAVISINE,),
        sizes=(128,),
        snrs=(1.0,),
        replications=3,
        rules=(RuleSpec("esr"), RuleSpec("soft")),
        elicitation=benchmark_elicitation(),
        seed=1,
        target_sd=7e150,
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
        assert big.amse == pytest.approx(1e294 * small.amse, rel=1e-9)
        assert big.mse_sd == pytest.approx(1e294 * small.mse_sd, rel=1e-9)


def test_amse_whose_sum_overflows_is_finite():
    # each squared error and each MSE sample is finite at this scale, but
    # the sum of 200 samples is not
    config = StudyConfig(
        functions=(TestFunctionKind.HEAVISINE,),
        sizes=(64,),
        snrs=(1.0,),
        replications=200,
        rules=(RuleSpec("soft"),),
        seed=1,
        target_sd=1.7e153,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cell = run_study(config).cells[0]
    assert not caught
    assert np.sum(cell.mse_samples / 2.0) > np.finfo(float).max / 2.0
    assert cell.amse == pytest.approx(np.mean(cell.mse_samples / 1e300) * 1e300, rel=1e-12)
    assert np.isfinite(cell.mse_sd) and cell.mse_sd > 0
