import json
import math
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import epashrink
from epashrink.cli import main, parse_study_config, read_signal_csv, write_signal_csv
from epashrink import (
    ConfigError,
    ElicitationConfig,
    RuleSpec,
    Signal,
    add_noise,
    denoise,
    generate_test_function,
)


@pytest.fixture
def runner():
    return CliRunner()


def _write_noisy_signal(path, kind="heavisine", n=512, snr=1.0, seed=3):
    truth = generate_test_function(kind, n, 7.0)
    noisy = add_noise(truth, snr, seed)
    write_signal_csv(path, noisy.samples)
    return noisy


class TestSignalIO:
    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "sig.csv"
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(64) * 1e3
        write_signal_csv(path, samples)
        back, truth = read_signal_csv(path)
        np.testing.assert_array_equal(back, samples)
        assert truth is None

    def test_two_column_round_trip(self, tmp_path):
        path = tmp_path / "sig.csv"
        rng = np.random.default_rng(1)
        y, f = rng.standard_normal((2, 32))
        write_signal_csv(path, y, f)
        back_y, back_f = read_signal_csv(path)
        np.testing.assert_array_equal(back_y, y)
        np.testing.assert_array_equal(back_f, f)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5\n-2.0\n3.25\n0.0\n")
        samples, _ = read_signal_csv(path)
        np.testing.assert_array_equal(samples, [1.5, -2.0, 3.25, 0.0])

    def test_non_numeric_row_reports_line(self, tmp_path):
        from epashrink import InputError

        path = tmp_path / "bad.csv"
        path.write_text("y\n1.0\nbogus\n2.0\n")
        with pytest.raises(InputError, match="line 3"):
            read_signal_csv(path)

    def test_missing_file(self):
        from epashrink import InputError

        with pytest.raises(InputError):
            read_signal_csv("/nonexistent/file.csv")


class TestConfigParser:
    GOOD = """
    # comment
    functions = heavisine, doppler
    sizes = 128, 256
    snrs = 1, 3
    replications = 2
    rules = esr, soft-universal
    gamma = 2
    l = 1
    seed = 42
    """

    def test_parse_good(self):
        cfg = parse_study_config(self.GOOD)
        assert [f.value for f in cfg.functions] == ["heavisine", "doppler"]
        assert cfg.sizes == (128, 256)
        assert cfg.replications == 2
        assert cfg.seed == 42
        assert cfg.elicitation.gamma == 2.0

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_study_config("functions = bumps\nwhat = 1\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="replications"):
            parse_study_config("functions = bumps\nsizes = 64\nsnrs = 1\nrules = esr\n")

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError):
            parse_study_config(
                "functions = bumps\nsizes = sixty\nsnrs = 1\n"
                "replications = 1\nrules = esr\n"
            )

    def test_empty_rules_rejected(self):
        with pytest.raises(ConfigError):
            parse_study_config(
                "functions = bumps\nsizes = 64\nsnrs = 1\n"
                "replications = 1\nrules =\n"
            )


class TestGenerate:
    def test_clean_signal(self, runner, tmp_path):
        out = tmp_path / "f.csv"
        result = runner.invoke(main, [
            "generate", "--kind", "heavisine", "--n", "256", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        samples, truth = read_signal_csv(out)
        assert samples.size == 256
        assert truth is None
        assert np.std(samples) == pytest.approx(7.0, abs=1e-6)

    def test_noisy_signal_has_truth_column(self, runner, tmp_path):
        out = tmp_path / "y.csv"
        result = runner.invoke(main, [
            "generate", "--kind", "doppler", "--n", "128", "--snr", "3",
            "--seed", "7", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        samples, truth = read_signal_csv(out)
        assert truth is not None
        assert np.std(samples - truth) == pytest.approx(7.0 / 3.0, rel=0.3)

    def test_non_dyadic_rejected_with_input_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "generate", "--kind", "bumps", "--n", "100",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flag,name", [("--target-sd", "target_sd"),
                                           ("--snr", "snr")])
    def test_infinite_scale_domain_code(self, runner, tmp_path, flag, name):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "generate", "--kind", "bumps", "--n", "64", flag, "inf", "--out", str(out),
        ])
        assert result.exit_code == 4
        assert f"{name} must be positive and finite, got inf" in result.output
        assert not out.exists()


class TestDenoiseCommand:
    def test_basic_run_and_sidecar(self, runner, tmp_path):
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [
            "denoise", str(inp), "--gamma", "2", "--l", "1", "--sigma", "sd",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        denoised, _ = read_signal_csv(out)
        assert denoised.size == 512
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert report["rule"] == "esr"
        assert report["lambda"] > 0
        assert report["sigma_hat"] > 0
        assert len(report["levels"]) == 9
        for entry in report["levels"]:
            assert 0.0 < entry["alpha"] < 1.0 or entry["alpha"] == 1e-12
            assert entry["beta"] > 0

    def test_constant_input_identity(self, runner, tmp_path):
        inp = tmp_path / "const.csv"
        write_signal_csv(inp, np.full(1024, 2.5))
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["denoise", str(inp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        denoised, _ = read_signal_csv(out)
        assert np.max(np.abs(denoised - 2.5)) < 1e-8

    def test_white_noise_sd_reduced(self, runner, tmp_path):
        inp = tmp_path / "noise.csv"
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(1024)
        write_signal_csv(inp, noise)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["denoise", str(inp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        denoised, _ = read_signal_csv(out)
        assert np.std(denoised) < np.std(noise)

    def test_soft_universal_rule(self, runner, tmp_path):
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [
            "denoise", str(inp), "--rule", "soft", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert report["rule"] == "soft-universal"
        assert report["eta"] > 0

    def test_fixed_threshold(self, runner, tmp_path):
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [
            "denoise", str(inp), "--rule", "hard", "--threshold", "4.5",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert report["eta"] == 4.5

    def test_non_dyadic_needs_pad_policy(self, runner, tmp_path):
        inp = tmp_path / "odd.csv"
        write_signal_csv(inp, np.sin(np.arange(1000) / 50.0))
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["denoise", str(inp), "--out", str(out)])
        assert result.exit_code == 2
        assert "pad" in result.output

    @pytest.mark.parametrize("pad,expected_len", [("reflect", 1000), ("truncate", 512)])
    def test_pad_policies(self, runner, tmp_path, pad, expected_len):
        inp = tmp_path / "odd.csv"
        write_signal_csv(inp, np.sin(np.arange(1000) / 50.0) * 5)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [
            "denoise", str(inp), "--pad", pad, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        denoised, _ = read_signal_csv(out)
        assert denoised.size == expected_len

    @pytest.mark.parametrize("rule", ["esr", "soft", "hard"])
    def test_sidecar_is_denoise_diagnostics(self, runner, tmp_path, rule):
        inp = tmp_path / "in.csv"
        noisy = _write_noisy_signal(inp, kind="bumps", n=1024)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [
            "denoise", str(inp), "--rule", rule, "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        expected = denoise(Signal(noisy.samples), RuleSpec(rule), ElicitationConfig())
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        for key, value in expected.diagnostics.items():
            assert report[key] == value
        denoised, _ = read_signal_csv(out)
        np.testing.assert_array_equal(denoised, expected.samples)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_names_line(self, runner, tmp_path, bad):
        inp = tmp_path / "in.csv"
        inp.write_text("y\n" + "1.0\n" * 5 + bad + "\n" + "2.0\n" * 10)
        result = runner.invoke(main, [
            "denoise", str(inp), "--out", str(tmp_path / "out.csv"),
        ])
        assert result.exit_code == 2, result.output
        assert "line 7" in result.output

    @pytest.mark.parametrize("rule,layout", [
        ("esr", "alternating"), ("soft", "alternating"), ("hard", "alternating"),
        ("esr", "two-spikes"), ("hard", "haar-steps"),
    ])
    def test_overflow_numeric_code_without_warnings(self, runner, tmp_path, rule,
                                                    layout):
        extra = []
        if layout == "alternating":
            samples = np.tile([1e308, -1e308], 32)
        elif layout == "two-spikes":
            samples = generate_test_function("heavisine", 64).samples
            samples[[10, 40]] = 1e308, -1e308
        else:
            # denoises without overflow (the finest Haar level is zero), but
            # the spread of the output overflows the sidecar's estimated SNR
            samples = np.repeat([1e301, -1e301], 32)
            extra = ["--wavelet-order", "1"]
        inp = tmp_path / "huge.csv"
        write_signal_csv(inp, samples)
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [
                "denoise", str(inp), "--rule", rule, *extra, "--out", str(out),
            ])
        assert result.exit_code == 5, result.output
        assert not caught
        assert not out.exists()

    def test_unreadable_path_input_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "denoise", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert result.exit_code == 2

    def test_output_round_trips(self, runner, tmp_path):
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp, n=256)
        out = tmp_path / "out.csv"
        runner.invoke(main, ["denoise", str(inp), "--out", str(out)])
        first, _ = read_signal_csv(out)
        again = tmp_path / "again.csv"
        write_signal_csv(again, first)
        second, _ = read_signal_csv(again)
        np.testing.assert_array_equal(first, second)

    def test_large_recording_scale_run(self, runner, tmp_path):
        # recording-sized input (2^15 samples): completes and reports the
        # elicited quantities for every level
        rng = np.random.default_rng(12)
        n = 32768
        t = np.arange(n) / n
        samples = 120 * np.sin(40 * np.pi * t) + 35 * rng.standard_normal(n)
        inp = tmp_path / "big.csv"
        write_signal_csv(inp, samples)
        out = tmp_path / "big-out.csv"
        result = runner.invoke(main, ["denoise", str(inp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "big-out.csv.report.json").read_text())
        assert report["n"] == n
        assert len(report["levels"]) == 15
        finest = report["levels"][-1]
        assert finest["level"] == 14
        assert finest["beta"] > 0
        assert report["lambda"] > 0
        assert report["estimated_snr"] > 0


@pytest.mark.parametrize("command", ["denoise", "coeffs"])
@pytest.mark.parametrize("flag", ["--gamma", "--l", "--c", "--tau"])
def test_infinite_elicitation_parameter_domain_code(runner, tmp_path, command, flag):
    inp = tmp_path / "in.csv"
    _write_noisy_signal(inp, n=64)
    out = ["--out", str(tmp_path / "d.csv")] if command == "denoise" else \
        ["--out-prefix", str(tmp_path / "co")]
    result = runner.invoke(main, [command, str(inp), flag, "inf", *out])
    assert result.exit_code == 4
    assert f"{flag[2:]} must be positive and finite, got inf" in result.output
    assert list(tmp_path.iterdir()) == [inp]


class TestCoeffsCommand:
    def test_zero_signal_all_zero_tables(self, runner, tmp_path):
        inp = tmp_path / "zero.csv"
        write_signal_csv(inp, np.zeros(128))
        prefix = tmp_path / "co"
        result = runner.invoke(main, ["coeffs", str(inp), "--out-prefix", str(prefix)])
        assert result.exit_code == 0, result.output
        for suffix in (".empirical.csv", ".shrunk.csv"):
            rows = (tmp_path / f"co{suffix}").read_text().splitlines()[1:]
            mags = [float(r.split(",")[3]) for r in rows]
            assert max(mags) == 0.0

    def test_impulse_energy_one(self, runner, tmp_path):
        inp = tmp_path / "imp.csv"
        samples = np.zeros(256)
        samples[100] = 1.0
        write_signal_csv(inp, samples)
        prefix = tmp_path / "co"
        result = runner.invoke(main, ["coeffs", str(inp), "--out-prefix", str(prefix)])
        assert result.exit_code == 0, result.output
        rows = (tmp_path / "co.empirical.csv").read_text().splitlines()[1:]
        energy = sum(float(r.split(",")[3]) ** 2 for r in rows)
        assert energy == pytest.approx(1.0, abs=1e-10)

    def test_tables_are_the_pyramids_of_denoise(self, runner, tmp_path):
        inp = tmp_path / "in.csv"
        noisy = _write_noisy_signal(inp, n=64)
        result = runner.invoke(main, [
            "coeffs", str(inp), "--rule", "soft", "--j0", "2",
            "--out-prefix", str(tmp_path / "co"),
        ])
        assert result.exit_code == 0, result.output
        out = denoise(noisy, RuleSpec("soft"), ElicitationConfig(coarse_level=2))
        layout = [("scaling", 2, p) for p in range(4)] + \
            [("detail", j, p) for j in range(2, 6) for p in range(2**j)]
        for name, pyramid in (("empirical", out.empirical), ("shrunk", out.shrunk)):
            header, *rows = (tmp_path / f"co.{name}.csv").read_text().splitlines()
            assert header == "block,level,position,magnitude"
            fields = [row.split(",") for row in rows]
            assert [(b, int(j), int(p)) for b, j, p, _ in fields] == layout
            # 17 significant digits: equal text is equal bits
            assert [float(m) for *_, m in fields] == np.abs(pyramid.coeffs).tolist()

    def test_finest_level_mostly_killed_on_noisy_input(self, runner, tmp_path):
        # measured severe-shrinkage behavior at these parameters: >95% of
        # finest-level outputs land below 0.1 noise-sd and the median output
        # is ~0.4% of the noise sd
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp, n=1024, snr=1.0)
        prefix = tmp_path / "co"
        result = runner.invoke(main, [
            "coeffs", str(inp), "--gamma", "2", "--l", "1", "--sigma", "sd",
            "--out-prefix", str(prefix),
        ])
        assert result.exit_code == 0, result.output
        report_rows = (tmp_path / "co.shrunk.csv").read_text().splitlines()[1:]
        finest = np.array([float(r.split(",")[3]) for r in report_rows
                           if r.startswith("detail,9,")])
        assert finest.size == 512
        sigma_scale = 7.0  # noise sd at snr 1
        assert np.mean(finest < 0.1 * sigma_scale) > 0.9
        assert np.median(finest) < 0.01 * sigma_scale


class TestRuleCurveCommand:
    def test_basic_curve(self, runner, tmp_path):
        out = tmp_path / "curve.csv"
        result = runner.invoke(main, [
            "rule-curve", "--alpha", "0.95", "--beta", "6", "--lambda", "3",
            "--d-min", "-15", "--d-max", "15", "--points", "301",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()
        assert rows[0] == "d,esr"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data.shape == (301, 2)
        assert np.all(np.abs(data[:, 1]) < 6.0)
        # antisymmetric grid -> antisymmetric values
        np.testing.assert_allclose(data[:, 1], -data[::-1, 1], atol=1e-12)

    def test_single_point_at_zero(self, runner, tmp_path):
        out = tmp_path / "one.csv"
        result = runner.invoke(main, [
            "rule-curve", "--alpha", "0.5", "--beta", "2", "--lambda", "1",
            "--d-min", "0", "--d-max", "0", "--points", "1", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()
        assert rows[1] == "0,0"

    def test_threshold_columns(self, runner, tmp_path):
        out = tmp_path / "three.csv"
        result = runner.invoke(main, [
            "rule-curve", "--alpha", "0.99", "--beta", "8", "--lambda", "1",
            "--eta", "3.5", "--d-min", "-12", "--d-max", "12",
            "--points", "49", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()
        assert rows[0] == "d,esr,hard,soft"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        d = data[:, 0]
        np.testing.assert_allclose(data[:, 2], np.where(np.abs(d) > 3.5, d, 0.0))

    def test_invalid_params_domain_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "rule-curve", "--alpha", "1.5", "--beta", "6", "--lambda", "3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 4

    @pytest.mark.parametrize("lam", ["1e160", "1e300"])
    def test_huge_lambda_gives_a_finite_curve(self, runner, tmp_path, lam):
        out = tmp_path / "rc.csv"
        result = runner.invoke(main, [
            "rule-curve", "--alpha", "0.95", "--beta", "6", "--lambda", lam,
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        data = np.array([[float(v) for v in r.split(",")]
                         for r in out.read_text().splitlines()[1:]])
        assert np.isfinite(data).all()
        assert np.all(np.abs(data[:, 1]) <= np.abs(data[:, 0]))

    def test_repeated_flags_match_single_pair_runs(self, runner, tmp_path):
        grid = ["--beta", "6", "--d-min", "-15", "--d-max", "15",
                "--points", "101", "--eta", "3.5"]
        multi = tmp_path / "multi.csv"
        result = runner.invoke(main, [
            "rule-curve", "--alpha", "0.6", "--alpha", "0.95",
            "--lambda", "1.5", "--lambda", "3", *grid, "--out", str(multi),
        ])
        assert result.exit_code == 0, result.output
        header, *rows = multi.read_text().splitlines()
        assert header == ("d,esr_a0.6_l1.5,esr_a0.6_l3,esr_a0.95_l1.5,"
                          "esr_a0.95_l3,hard,soft")
        table = [row.split(",") for row in rows]
        pairs = [("0.6", "1.5"), ("0.6", "3"), ("0.95", "1.5"), ("0.95", "3")]
        for k, (alpha, lam) in enumerate(pairs):
            single = tmp_path / f"single{k}.csv"
            result = runner.invoke(main, [
                "rule-curve", "--alpha", alpha, "--lambda", lam, *grid,
                "--out", str(single),
            ])
            assert result.exit_code == 0, result.output
            single_header, *single_rows = single.read_text().splitlines()
            assert single_header == "d,esr,hard,soft"
            # 17 significant digits: equal text is equal bits
            assert [[r[0], r[1 + k], r[-2], r[-1]] for r in table] == \
                [row.split(",") for row in single_rows]

    @pytest.mark.parametrize("flag,value", [
        ("--lambda", "inf"), ("--lambda", "nan"), ("--beta", "inf"), ("--beta", "nan"),
    ])
    def test_non_finite_params_domain_code(self, runner, tmp_path, flag, value):
        flags = {"--alpha": "0.9", "--beta": "6", "--lambda": "3", flag: value}
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [
                "rule-curve", *(v for item in flags.items() for v in item),
                "--out", str(out),
            ])
        assert not caught
        assert result.exit_code == 4
        assert "must be positive and finite" in result.output
        assert not out.exists()


    @pytest.mark.parametrize("extra,code", [
        (["--d-min", "nan"], 4),
        (["--d-max", "inf"], 4),
        (["--beta", "1e308"], 4),  # the default grid end 2.5*beta overflows
        (["--d-min", "-1e308", "--d-max", "1e308"], 5),  # the spacing overflows
    ])
    def test_grid_bounds_checked(self, runner, tmp_path, extra, code):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [
                "rule-curve", "--alpha", "0.9", "--beta", "6", "--lambda", "3",
                *extra, "--out", str(out),
            ])
        assert not caught
        assert result.exit_code == code, result.output
        assert "grid" in result.output
        assert not out.exists()

class TestRuleStatsCommand:
    def test_columns_and_identity(self, runner, tmp_path):
        out = tmp_path / "stats.csv"
        result = runner.invoke(main, [
            "rule-stats", "--alpha", "0.9", "--beta", "3", "--lambda", "1",
            "--points", "9", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()
        assert rows[0] == "theta,bias_sq,variance,risk"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        assert data[0, 1] < 1e-16  # unbiased at zero
        np.testing.assert_allclose(
            data[:, 3], data[:, 1] + data[:, 2], atol=1e-8
        )

    def test_gaussian_noise_needs_sigma(self, runner, tmp_path):
        result = runner.invoke(main, [
            "rule-stats", "--alpha", "0.9", "--beta", "3", "--lambda", "1",
            "--noise", "gaussian", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 3

    def test_numeric_failure_exit_code(self, runner, tmp_path, monkeypatch):
        from epashrink import NumericError
        import epashrink.cli as cli_mod

        def boom(*args, **kwargs):
            raise NumericError("synthetic quadrature failure")

        monkeypatch.setattr(cli_mod, "rule_statistics", boom)
        result = runner.invoke(main, [
            "rule-stats", "--alpha", "0.9", "--beta", "3", "--lambda", "1",
            "--points", "3", "--out", str(tmp_path / "x.csv"),
        ])
        assert result.exit_code == 5
        assert "theta" in result.output

    def test_repeated_flags_match_single_pair_runs(self, runner, tmp_path):
        multi = tmp_path / "multi.csv"
        result = runner.invoke(main, [
            "rule-stats", "--alpha", "0.8", "--alpha", "0.95", "--beta", "6",
            "--lambda", "3", "--points", "5", "--out", str(multi),
        ])
        assert result.exit_code == 0, result.output
        header, *rows = multi.read_text().splitlines()
        assert header == "curve,theta,bias_sq,variance,risk"
        for alpha in ("0.8", "0.95"):
            single = tmp_path / f"single{alpha}.csv"
            result = runner.invoke(main, [
                "rule-stats", "--alpha", alpha, "--beta", "6", "--lambda", "3",
                "--points", "5", "--out", str(single),
            ])
            assert result.exit_code == 0, result.output
            single_header, *single_rows = single.read_text().splitlines()
            assert single_header == "theta,bias_sq,variance,risk"
            label = f"a{alpha}_l3,"
            assert [r[len(label):] for r in rows if r.startswith(label)] == single_rows

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_noise_sigma_domain_code(self, runner, tmp_path, sigma):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "rule-stats", "--alpha", "0.9", "--beta", "6", "--lambda", "1",
            "--noise", "gaussian", "--noise-sigma", sigma, "--out", str(out),
        ])
        assert result.exit_code == 4
        assert "sigma must be positive and finite" in result.output
        assert not out.exists()


class TestStudyCommand:
    def test_preset_smoke(self, runner, tmp_path):
        result = runner.invoke(main, [
            "study", "--preset", "smoke", "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 0, result.output
        report = (tmp_path / "res" / "report.csv").read_text().splitlines()
        assert report[0].startswith("function,n,snr,rule,amse")
        assert len(report) == 2
        summary = json.loads((tmp_path / "res" / "summary.json").read_text())
        assert summary["version"] == epashrink.__version__
        assert summary["config"]["replications"] == 1
        assert summary["cells"][0]["degenerate_sd"] is True

    def test_config_file_run(self, runner, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "functions = heavisine\nsizes = 128\nsnrs = 1\n"
            "replications = 2\nrules = esr, soft-universal\n"
            "gamma = 2\nl = 1\nsigma = sd\nseed = 9\n"
        )
        result = runner.invoke(main, [
            "study", str(cfg), "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "res" / "summary.json").read_text())
        assert len(summary["cells"]) == 2
        assert summary["config"]["seed"] == 9

    def test_huge_signal_numeric_code_names_cell_without_warnings(self, runner, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("functions = bumps\nsizes = 64\nsnrs = 1\n"
                       "replications = 2\nrules = esr, soft\ntarget_sd = 1e300\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [
                "study", str(cfg), "--out-dir", str(tmp_path / "res"),
            ])
        assert not caught
        assert result.exit_code == 5
        assert "cell (function=bumps, n=64, snr=1.0, rep=0) rule=" in result.output

    def test_bad_config_exit_code(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("functions = bumps\nnot_a_key = 1\n")
        result = runner.invoke(main, [
            "study", str(cfg), "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 3

    @pytest.mark.parametrize("line", ["snrs = inf", "snrs = 1, nan", "target_sd = inf",
                                      "gamma = inf", "l = inf", "c = inf", "tau = inf"])
    def test_non_finite_scale_config_code(self, runner, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("functions = bumps\nsizes = 64\nreplications = 1\n"
                       f"rules = esr\n{line}\n" + ("" if "snrs" in line else "snrs = 1\n"))
        result = runner.invoke(main, [
            "study", str(cfg), "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 3
        assert "must be positive and finite" in result.output

    def test_console_prints_short_amse_matching_report(self, runner, tmp_path):
        cfg = tmp_path / "big.cfg"
        cfg.write_text("functions = bumps\nsizes = 64\nsnrs = 1\n"
                       "replications = 3\nrules = esr, soft\ntarget_sd = 1e150\n")
        result = runner.invoke(main, [
            "study", str(cfg), "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 0, result.output
        cells = [line for line in result.output.splitlines() if "amse=" in line]
        header, *rows = (tmp_path / "res" / "report.csv").read_text().splitlines()
        amse = header.split(",").index("amse")
        assert len(cells) == len(rows) == 2
        for line, row in zip(cells, rows):
            assert len(line) < 80
            printed = line.split("amse=")[1].split()[0]
            assert printed == f"{float(row.split(',')[amse]):.6g}"

    def test_preset_and_config_mutually_exclusive(self, runner, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("functions = bumps\n")
        result = runner.invoke(main, [
            "study", str(cfg), "--preset", "smoke",
            "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 3

    def test_determinism_across_runs(self, runner, tmp_path):
        def rows_without_wall_time(path):
            header, *rows = path.read_text().splitlines()
            keep = [i for i, name in enumerate(header.split(","))
                    if name != "wall_time_s"]
            return [",".join(np.array(r.split(","))[keep]) for r in rows]

        for sub in ("a", "b"):
            result = runner.invoke(main, [
                "study", "--preset", "smoke", "--seed", "123",
                "--out-dir", str(tmp_path / sub),
            ])
            assert result.exit_code == 0, result.output
        assert rows_without_wall_time(tmp_path / "a" / "report.csv") == \
            rows_without_wall_time(tmp_path / "b" / "report.csv")
