import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import epashrink
from epashrink import cli as cli_module
from epashrink.cli import (main, parse_study_config, read_signal_csv, write_signal_csv,
                           write_table_csv)
from epashrink import (
    ConfigError,
    ElicitationConfig,
    RuleSpec,
    Signal,
    StudyConfig,
    add_noise,
    denoise,
    generate_test_function,
    study_preset,
)
from oracles import per_row_write_signal_csv, per_row_write_table_csv


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

    def test_a_header_may_follow_blank_lines(self, runner, tmp_path):
        # the header is the first line that is not blank; a second text
        # line is still an error naming its line
        from epashrink import InputError

        (tmp_path / "plain.csv").write_text("1\n2\n3\n4\n")
        (tmp_path / "late.csv").write_text("\n  \ny\n1\n2\n3\n4\n")
        samples, truth = read_signal_csv(tmp_path / "late.csv")
        np.testing.assert_array_equal(samples, [1.0, 2.0, 3.0, 4.0])
        assert truth is None
        for name in ("plain", "late"):
            result = runner.invoke(main, ["denoise", str(tmp_path / f"{name}.csv"),
                                          "--out", str(tmp_path / f"{name}.out.csv")])
            assert result.exit_code == 0, result.output
        assert (tmp_path / "late.out.csv").read_text() == \
            (tmp_path / "plain.out.csv").read_text()
        (tmp_path / "twice.csv").write_text("\ny\nf\n1\n2\n")
        with pytest.raises(InputError, match="non-numeric value on line 3: 'f'"):
            read_signal_csv(tmp_path / "twice.csv")

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


class TestCsvWritersMatchPerRowOracle:
    """Each file is built as one string and written once; its bytes are
    those of the writers that wrote it row by row."""

    COMMANDS = {
        "denoise": ["denoise", "in.csv", "--out", "out.csv"],
        "coeffs": ["coeffs", "in.csv", "--out-prefix", "c"],
        "generate": ["generate", "--kind", "doppler", "--n", "256", "--out", "g.csv"],
        "generate-noisy": ["generate", "--kind", "bumps", "--n", "256", "--snr", "2",
                           "--seed", "5", "--out", "g.csv"],
        "rule-curve": ["rule-curve", "--alpha", "0.9", "--beta", "6", "--lambda", "3",
                       "--points", "41", "--eta", "1.5", "--out", "curve.csv"],
        "rule-stats": ["rule-stats", "--alpha", "0.8", "--alpha", "0.95", "--beta", "6",
                       "--lambda", "3", "--points", "5", "--out", "stats.csv"],
        "study": ["study", "--preset", "smoke", "--out-dir", "res"],
    }

    def _outputs(self, runner, monkeypatch, args, directory):
        directory.mkdir()
        _write_noisy_signal(directory / "in.csv")
        monkeypatch.chdir(directory)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        return {path.relative_to(directory): path.read_bytes()
                for path in sorted(directory.rglob("*.csv"))}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_files_are_byte_identical(self, runner, tmp_path, monkeypatch, command):
        args = self.COMMANDS[command]
        got = self._outputs(runner, monkeypatch, args, tmp_path / "new")
        monkeypatch.setattr(cli_module, "write_signal_csv", per_row_write_signal_csv)
        monkeypatch.setattr(cli_module, "write_table_csv", per_row_write_table_csv)
        want = self._outputs(runner, monkeypatch, args, tmp_path / "old")
        if command == "study":  # the timing column differs from run to run
            for files in (got, want):
                table = files[Path("res/report.csv")].decode().splitlines()
                column = table[0].split(",").index("wall_time_s")
                files[Path("res/report.csv")] = [
                    [f for i, f in enumerate(line.split(",")) if i != column]
                    for line in table]
        assert len(got) > 1 and got == want

    def test_mixed_columns_and_numpy_values(self, tmp_path):
        rows = [["a", 1, np.float64(0.1), 2.5e-310, -0.0, True, 2**60],
                ["bc", -3, 1e300, np.float64(-np.inf), np.nan, False, 7]]
        header = ["s", "i", "x", "y", "z", "b", "big"]
        write_table_csv(tmp_path / "new.csv", header, iter(rows))
        per_row_write_table_csv(tmp_path / "old.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        write_table_csv(tmp_path / "empty.csv", header, [])
        assert (tmp_path / "empty.csv").read_text() == "s,i,x,y,z,b,big\n"

    @pytest.mark.parametrize("dtype", [float, np.float32, np.int64])
    def test_signal_columns_of_any_dtype(self, tmp_path, dtype):
        rng = np.random.default_rng(4)
        y = (rng.standard_normal(33) * 1e5).astype(dtype)
        f = (rng.standard_normal(33) * 1e-5).astype(dtype)
        for truth in (None, f):
            write_signal_csv(tmp_path / "new.csv", y, truth)
            per_row_write_signal_csv(tmp_path / "old.csv", y, truth)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
        with pytest.raises(ConfigError, match=r"^<config>:2: cannot read 'sizes': "):
            parse_study_config(
                "functions = bumps\nsizes = sixty\nsnrs = 1\n"
                "replications = 1\nrules = esr\n"
            )

    def test_every_key_sets_its_config_field(self):
        cfg = parse_study_config(
            "functions = Bumps, doppler\nsizes = 64, 128\nsnrs = 0.5, 3\n"
            "replications = 2\nrules = esr, SOFT:2.5\ngamma = 2\nl = 1\nc = 3\n"
            "tau = 4\nj0 = 1\nsigma = sd\nwavelet-order = 4\nseed = 9\ntarget_sd = 5\n")
        assert cfg == StudyConfig(
            functions=("bumps", "doppler"), sizes=(64, 128), snrs=(0.5, 3.0), replications=2,
            rules=("esr", "soft:2.5"), wavelet_order=4, seed=9, target_sd=5.0,
            elicitation=ElicitationConfig(gamma=2.0, l=1.0, c=3.0, tau=4.0,
                                          coarse_level=1, sigma_estimator="sd"))

    def test_an_omitted_key_takes_the_library_default(self):
        cfg = parse_study_config("functions = bumps\nsizes = 64\nsnrs = 1\n"
                                 "replications = 1\nrules = esr\n")
        assert cfg == StudyConfig(functions=("bumps",), sizes=(64,), snrs=(1.0,),
                                  replications=1, rules=("esr",))

    @pytest.mark.parametrize("line, message", [
        ("gamma = 0", "gamma must be positive and finite, got 0.0"),
        ("sigma = bogus", "unknown sigma_estimator 'bogus'"),
        ("rules = median", "cannot parse rule 'median'"),
    ])
    def test_a_value_the_configs_reject_is_a_config_error(self, line, message):
        text = ("functions = bumps\nsizes = 64\nsnrs = 1\nreplications = 1\n"
                f"{'' if line.startswith('rules') else 'rules = esr'}\n{line}\n")
        with pytest.raises(ConfigError, match=f"^cfg: {re.escape(message)}"):
            parse_study_config(text, source="cfg")

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

    def test_negative_seed_domain_code(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "generate", "--kind", "bumps", "--n", "64", "--snr", "1",
            "--seed", "-1", "--out", str(out),
        ])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert "seed entries must be >= 0" in result.output
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

    @pytest.mark.parametrize("command, out_flag",
                             [("denoise", "--out"), ("coeffs", "--out-prefix")],
                             ids=["denoise", "coeffs"])
    def test_esr_with_a_fixed_threshold_is_a_config_error(self, runner, tmp_path,
                                                           command, out_flag):
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            command, str(inp), "--rule", "esr", "--threshold", "4.5", out_flag, str(out),
        ])
        assert result.exit_code == 3
        assert "esr rule takes no threshold" in result.output
        assert not list(tmp_path.glob("out*"))
        # the default policy, universal, goes with every rule
        result = runner.invoke(main, [
            command, str(inp), "--rule", "esr", "--threshold", "universal", out_flag, str(out),
        ])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("command, out_flag",
                             [("denoise", "--out"), ("coeffs", "--out-prefix")],
                             ids=["denoise", "coeffs"])
    def test_variance_prior_flags_without_esr_are_a_config_error(self, runner, tmp_path,
                                                                 command, out_flag):
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp)
        out = tmp_path / "out"
        # only esr uses the rate lambda(s), so --c and --tau, even at their
        # defaults, are rejected with hard and soft rather than dropped
        for rule, flags, named in (("hard", ["--c", "5"], "--c"),
                                   ("soft", ["--tau", "9"], "--tau"),
                                   ("hard", ["--c", "1", "--tau", "2"], "--c or --tau")):
            result = runner.invoke(main, [command, str(inp), "--rule", rule, *flags,
                                          out_flag, str(out)])
            assert result.exit_code == 3, result.output
            assert f"--rule {rule} takes no {named}" in result.output
            assert not list(tmp_path.glob("out*"))
        result = runner.invoke(main, [command, str(inp), "--rule", "esr", "--c", "5",
                                      "--tau", "9", out_flag, str(out)])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("rule", ["esr", "hard", "soft"])
    def test_subnormal_signal_is_an_input_error(self, tmp_path, rule):
        # a fresh process, so that stderr holds all the command logs
        samples = np.zeros(512)
        samples[100] = 1e-317
        inp = tmp_path / "tiny.csv"
        write_signal_csv(inp, samples)
        out = tmp_path / "out.csv"
        result = _python("-m", "epashrink.cli", "denoise", str(inp), "--rule", rule,
                         "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert result.stderr.splitlines() == [
            "error: the largest detail coefficient, 6.88459e-318, is subnormal: "
            "rescale the signal into the normal range"]
        assert not out.exists()

    def test_all_zero_levels_are_floored_silently(self, tmp_path):
        # a fresh process, so that stderr holds all it writes: the beta
        # floor shows only as its value in the sidecar
        inp = tmp_path / "zero.csv"
        write_signal_csv(inp, np.zeros(64))
        out = tmp_path / "out.csv"
        result = _python("-m", "epashrink.cli", "denoise", str(inp), "--out", str(out))
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert [level["beta"] for level in report["levels"]] == [1e-8] * 6
        assert read_signal_csv(out)[0].tolist() == [0.0] * 64

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

    def test_sidecar_carries_version(self, runner, tmp_path):
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp, n=64)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, ["denoise", str(inp), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        assert report["version"] == epashrink.__version__

    def test_the_package_version_is_the_project_version(self):
        # the sidecar and summary.json publish __version__; pyproject.toml
        # declares the version the package is built as
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert tomllib.loads(pyproject.read_text())["project"]["version"] == \
            epashrink.__version__

    def test_sidecar_records_the_whole_elicitation(self, runner, tmp_path):
        # in the shape of summary.json's config, so that the run can be
        # replayed from the sidecar alone
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp)
        out = tmp_path / "out.csv"
        result = runner.invoke(main, [
            "denoise", str(inp), "--gamma", "3", "--l", "1.5", "--c", "3", "--tau", "5",
            "--j0", "1", "--sigma", "sd", "--wavelet-order", "6", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out.csv.report.json").read_text())
        elicitation = report["elicitation"]
        assert elicitation == {"gamma": 3.0, "l": 1.5, "c": 3.0, "tau": 5.0,
                               "sigma_estimator": "sd", "coarse_level": 1}
        summary_config = json.loads(json.dumps(study_preset("smoke").to_dict()))
        assert list(elicitation) == list(summary_config["elicitation"])
        replay = tmp_path / "replay.csv"
        result = runner.invoke(main, [
            "denoise", str(inp), "--rule", report["rule"],
            "--gamma", repr(elicitation["gamma"]), "--l", repr(elicitation["l"]),
            "--c", repr(elicitation["c"]), "--tau", repr(elicitation["tau"]),
            "--j0", str(elicitation["coarse_level"]), "--sigma", elicitation["sigma_estimator"],
            "--wavelet-order", str(report["wavelet_order"]), "--out", str(replay),
        ])
        assert result.exit_code == 0, result.output
        assert replay.read_bytes() == out.read_bytes()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_run_replays_from_its_sidecar(self, data):
        # random finite input and random valid flags: the flags read back
        # from the sidecar write the same CSV and sidecar, byte for byte,
        # and neither run writes to stderr
        pad = data.draw(st.sampled_from([None, "reflect", "truncate"]))
        n = data.draw(st.sampled_from([4, 8, 16, 64]) if pad is None else st.integers(5, 80))
        dyadic = n if n & (n - 1) == 0 else 1 << (n.bit_length() - (pad == "truncate"))
        value = st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) > 1e-200)
        samples = data.draw(st.lists(value, min_size=n, max_size=n))
        rule = data.draw(st.sampled_from(["esr", "hard", "soft"]))
        flags = ["--rule", rule]
        if rule != "esr":
            flags += ["--threshold", data.draw(st.one_of(
                st.just("universal"), st.floats(0.0, 1e3).map(repr)))]
        for name, low, high in (("gamma", 0.1, 5.0), ("l", 0.1, 4.0), ("c", 0.1, 10.0),
                                ("tau", 0.1, 10.0)):
            if name in ("c", "tau") and rule != "esr":
                continue
            if data.draw(st.booleans()):
                flags += [f"--{name}", repr(data.draw(st.floats(low, high)))]
        flags += ["--j0", str(data.draw(st.integers(0, dyadic.bit_length() - 2))),
                  "--sigma", data.draw(st.sampled_from(["sd", "mad"])),
                  "--wavelet-order", str(data.draw(st.integers(1, 10)))]
        if pad is not None:
            flags += ["--pad", pad]
        runner = CliRunner()
        with tempfile.TemporaryDirectory() as tmp:
            inp, first, again = (Path(tmp) / name for name in ("in.csv", "a.csv", "b.csv"))
            write_signal_csv(inp, np.array(samples))
            result = runner.invoke(main, ["denoise", str(inp), *flags, "--out", str(first)])
            assert result.exit_code == 0 and result.stderr == "", (flags, result.output)
            report = json.loads(Path(f"{first}.report.json").read_text())
            spec, cfg = RuleSpec.parse(report["rule"]), report["elicitation"]
            replay = ["--rule", spec.kind, "--threshold",
                      "universal" if spec.threshold is None else repr(spec.threshold),
                      "--gamma", repr(cfg["gamma"]), "--l", repr(cfg["l"]),
                      "--j0", str(cfg["coarse_level"]), "--sigma", cfg["sigma_estimator"],
                      "--wavelet-order", str(report["wavelet_order"])]
            if spec.kind == "esr":
                replay += ["--c", repr(cfg["c"]), "--tau", repr(cfg["tau"])]
            if report["pad"] is not None:
                replay += ["--pad", report["pad"]]
            result = runner.invoke(main, ["denoise", str(inp), *replay, "--out", str(again)])
            assert result.exit_code == 0 and result.stderr == "", (replay, result.output)
            assert again.read_bytes() == first.read_bytes()
            assert Path(f"{again}.report.json").read_bytes() == \
                Path(f"{first}.report.json").read_bytes()

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
            # denoises without overflow (the finest Haar level is zero), and
            # the sidecar's estimated SNR takes the spread of the output
            # without squaring values of 1e301
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
        assert not caught
        if layout != "haar-steps":
            assert result.exit_code == 5, result.output
            assert not out.exists()
            return
        assert result.exit_code == 0, result.output
        denoised, _ = read_signal_csv(out)
        assert np.isfinite(denoised).all()
        report = json.loads((tmp_path / "out.csv.report.json").read_text(),
                            parse_constant=lambda name: pytest.fail(f"sidecar holds {name}"))
        assert math.isfinite(report["estimated_snr"]) and report["estimated_snr"] > 0

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


@pytest.mark.parametrize("command", ["denoise", "coeffs"])
def test_overflowing_rate_numeric_code(runner, tmp_path, command):
    # c / tau overflows to an infinite lambda without a floating-point flag
    inp = tmp_path / "in.csv"
    _write_noisy_signal(inp, n=64)
    out = ["--out", str(tmp_path / "d.csv")] if command == "denoise" else \
        ["--out-prefix", str(tmp_path / "co")]
    result = runner.invoke(main, [command, str(inp), "--rule", "esr", "--c", "1e308",
                                  "--tau", "0.5", *out])
    assert result.exit_code == 5, result.output
    assert "lambda overflows" in result.output
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

    def test_overflowing_beta_numeric_code(self, runner, tmp_path):
        # beta^3 overflows in the rule's constants: a numeric error, not a
        # traceback or a nan table
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [
                "rule-curve", "--alpha", "0.9", "--beta", "1e200", "--lambda", "3",
                "--out", str(out),
            ])
        assert not caught
        assert result.exit_code == 5, result.output
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

    def test_noise_sigma_with_dexp_noise_is_a_config_error(self, runner, tmp_path):
        out = tmp_path / "x.csv"
        result = runner.invoke(main, [
            "rule-stats", "--alpha", "0.9", "--beta", "3", "--lambda", "1",
            "--noise", "dexp", "--noise-sigma", "0.3", "--out", str(out),
        ])
        assert result.exit_code == 3
        assert "--noise-sigma" in result.output
        assert not out.exists()

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

    def test_huge_snr_runs(self, runner, tmp_path):
        """An SNR whose noise key at nanodigit resolution overflows a double
        still gets a stream, and the study finishes."""
        cfg = tmp_path / "snr.cfg"
        cfg.write_text("functions = bumps\nsizes = 64\nsnrs = 1e300\n"
                       "replications = 2\nrules = esr, soft, hard\n")
        result = runner.invoke(main, [
            "study", str(cfg), "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 0, result.output
        cells = json.loads((tmp_path / "res" / "summary.json").read_text())["cells"]
        assert [c["rule"] for c in cells] == ["esr", "soft-universal", "hard-universal"]
        assert all(c["snr"] == 1e300 and math.isfinite(c["amse"]) for c in cells)

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

    @pytest.mark.parametrize("line,key", [("wavelet_order = 11", "wavelet_order"),
                                          ("j0 = 6", "j0"),
                                          ("seed = -5", "seed")])
    def test_out_of_range_setting_config_code(self, runner, tmp_path, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("functions = bumps\nsizes = 64\nsnrs = 1\n"
                       f"replications = 1\nrules = esr\n{line}\n")
        result = runner.invoke(main, [
            "study", str(cfg), "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 3, result.output
        assert key in result.output
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("below", [("res",), ()])
    def test_out_dir_that_cannot_be_made_is_an_input_error_before_any_draw(
            self, tmp_path, monkeypatch, below):
        # an --out-dir under a regular file, or that is one: one error line
        # and exit 2 from a fresh process, and in process no study is run
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out_dir = str(blocker.joinpath(*below))
        result = _python("-m", "epashrink.cli", "study", "--preset", "smoke",
                         "--out-dir", out_dir)
        assert result.returncode == 2, result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: cannot make the output directory {out_dir}: ")
        assert "Traceback" not in result.stderr
        import epashrink.cli as cli_mod

        monkeypatch.setattr(cli_mod, "run_study", lambda config: pytest.fail("study ran"))
        result = CliRunner().invoke(main, ["study", "--preset", "acceptance-desk",
                                           "--out-dir", out_dir])
        assert result.exit_code == 2, result.output
        assert blocker.read_text() == "not a directory\n"

    def test_negative_seed_override_config_code(self, runner, tmp_path):
        result = runner.invoke(main, [
            "study", "--preset", "smoke", "--seed", "-1",
            "--out-dir", str(tmp_path / "res"),
        ])
        assert result.exit_code == 3, result.output
        assert "seed must be >= 0" in result.output

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


def _one_error_line(result, code: int) -> str:
    """The one stderr line of a run that exited with code and no traceback."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    [line] = result.stderr.splitlines()
    assert line.startswith("error: ")
    return line


# per command: its arguments given an input signal, the output path (or
# prefix) last, and the names of the cli functions that do its work
_FILE_COMMANDS = {
    "generate": (["generate", "--kind", "bumps", "--n", "64", "--snr", "1", "--out"],
                 ["generate_test_function", "add_noise"]),
    "denoise": (["denoise", "{input}", "--out"], ["read_signal_csv", "denoise"]),
    "coeffs": (["coeffs", "{input}", "--out-prefix"], ["read_signal_csv", "denoise"]),
    "rule-curve": (["rule-curve", "--alpha", "0.5", "--beta", "3", "--lambda", "1",
                    "--out"], ["esr"]),
    "rule-stats": (["rule-stats", "--alpha", "0.5", "--beta", "3", "--lambda", "1",
                    "--points", "2", "--out"], ["rule_statistics"]),
}


class TestFileBoundary:
    """Every file a command reads or writes fails as an input error (exit 2)
    with one error line, before the command does its work."""

    @staticmethod
    def _args(command, tmp_path, out):
        args, _ = _FILE_COMMANDS[command]
        inp = tmp_path / "in.csv"
        _write_noisy_signal(inp, n=64)
        return [a.replace("{input}", str(inp)) for a in args] + [str(out)]

    @pytest.mark.parametrize("command", sorted(_FILE_COMMANDS))
    def test_output_under_a_missing_directory(self, runner, tmp_path, monkeypatch,
                                              command):
        import epashrink.cli as cli_mod

        out = tmp_path / "missing" / "out.csv"
        args = self._args(command, tmp_path, out)
        for name in _FILE_COMMANDS[command][1]:
            monkeypatch.setattr(cli_mod, name, lambda *a, **k: pytest.fail("work ran"))
        line = _one_error_line(runner.invoke(main, args), 2)
        assert line.startswith(f"error: cannot write {out}")
        assert "no directory" in line
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", sorted(_FILE_COMMANDS))
    def test_output_that_is_a_directory(self, runner, tmp_path, command):
        out = tmp_path / "taken"
        targets = ([Path(f"{out}.empirical.csv"), Path(f"{out}.shrunk.csv")]
                   if command == "coeffs" else [out])
        for target in targets:
            target.mkdir()
            line = _one_error_line(runner.invoke(main, self._args(command, tmp_path, out)), 2)
            assert line == f"error: cannot write {target}: it is a directory"
            target.rmdir()
        if command == "denoise":  # the sidecar
            Path(f"{out}.report.json").mkdir()
            _one_error_line(runner.invoke(main, self._args(command, tmp_path, out)), 2)
            assert not out.exists()

    @pytest.mark.parametrize("command", ["denoise", "coeffs"])
    def test_input_that_is_not_utf8(self, runner, tmp_path, command):
        args = self._args(command, tmp_path, tmp_path / "out.csv")
        (tmp_path / "in.csv").write_bytes(b"y\n1.0\n\xff\xfe2.0\n")
        line = _one_error_line(runner.invoke(main, args), 2)
        assert line.startswith(f"error: cannot read {tmp_path / 'in.csv'}: not UTF-8 text")
        assert line.endswith("(invalid start byte at offset 6)")

    def test_output_that_cannot_be_opened(self, runner, tmp_path, monkeypatch):
        # an unwritable directory, as open reports it (root may write anywhere)
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "open", refuse)
        out = tmp_path / "out.csv"
        line = _one_error_line(runner.invoke(main, [
            "generate", "--kind", "bumps", "--n", "64", "--out", str(out)]), 2)
        assert line == f"error: cannot write {out}: [Errno 13] Permission denied: '{out}'"

    def test_study_config_that_is_not_utf8(self, runner, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_bytes("functions = bumps # \u00e9\n".encode("latin-1"))
        line = _one_error_line(runner.invoke(main, [
            "study", str(cfg), "--out-dir", str(tmp_path / "res")]), 2)
        assert line.startswith(f"error: cannot read {cfg}: not UTF-8 text")

    @pytest.mark.parametrize("name", ["report.csv", "summary.json"])
    def test_study_output_that_is_a_directory_fails_before_any_draw(
            self, runner, tmp_path, monkeypatch, name):
        # mkdir -p res/report.csv: an input error, not an IsADirectoryError
        # after the whole grid
        import epashrink.cli as cli_mod

        (tmp_path / "res" / name).mkdir(parents=True)
        monkeypatch.setattr(cli_mod, "run_study", lambda config: pytest.fail("study ran"))
        line = _one_error_line(runner.invoke(main, [
            "study", "--preset", "acceptance-desk", "--out-dir", str(tmp_path / "res")]), 2)
        assert line == f"error: cannot write {tmp_path / 'res' / name}: it is a directory"
        assert [p.name for p in (tmp_path / "res").iterdir()] == [name]

    def test_study_output_that_is_a_directory_fails_from_a_fresh_process(self, tmp_path):
        (tmp_path / "res" / "report.csv").mkdir(parents=True)
        result = _python("-m", "epashrink.cli", "study", "--preset", "smoke",
                         "--out-dir", str(tmp_path / "res"))
        assert result.returncode == 2, result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: cannot write ")
        assert "Traceback" not in result.stderr


def test_generate_with_an_overflowing_target_sd_is_a_domain_error(runner, tmp_path):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, ["generate", "--kind", "bumps", "--n", "512",
                                      "--target-sd", "5e307", "--out", str(out)])
    assert not caught
    line = _one_error_line(result, 4)
    assert line == "error: target_sd 5e+307 is too large: the bumps samples at n=512 overflow"
    assert not out.exists()


_STUDY_CFG = "functions = heavisine\nsizes = 64\nsnrs = 1\nreplications = 1\nrules = esr\n"

# per case: the input file's name and text (None for no file), the command
# line with {input} for that file and {out} for the output, the exit code and
# the start of the error line after "error: "
_REJECTIONS = {
    "three columns": ("in.csv", "y\n1,2,3\n4,5,6\n", ["denoise", "{input}", "--out", "{out}"],
                      2, "{input}: expected at most 2 columns on line 2"),
    "truth on some rows": ("in.csv", "1,2\n3\n4,5\n6,7\n",
                           ["denoise", "{input}", "--out", "{out}"],
                           2, "{input}: truth column is present on only some rows"),
    "no numeric samples": ("in.csv", "y\n\n", ["denoise", "{input}", "--out", "{out}"],
                           2, "{input}: no numeric samples found"),
    "pad on one sample": ("in.csv", "1.5\n", ["denoise", "{input}", "--pad", "reflect",
                                               "--out", "{out}"],
                          2, "need at least 2 samples"),
    "config line without =": ("study.cfg", _STUDY_CFG + "seed 7\n",
                              ["study", "{input}", "--out-dir", "{out}"],
                              3, "{input}:6: expected 'key = value'"),
    "duplicate config key": ("study.cfg", _STUDY_CFG + "snrs = 3\n",
                             ["study", "{input}", "--out-dir", "{out}"],
                             3, "{input}:6: duplicate key 'snrs'"),
    "size listed twice": ("study.cfg", _STUDY_CFG.replace("sizes = 64", "sizes = 64, 64"),
                          ["study", "{input}", "--out-dir", "{out}"],
                          3, "{input}: sizes lists 64 more than once"),
    "rule listed twice": ("study.cfg", _STUDY_CFG.replace("rules = esr",
                                                          "rules = esr, soft-universal, esr"),
                          ["study", "{input}", "--out-dir", "{out}"],
                          3, "{input}: rules lists esr more than once"),
    "bad function name": ("study.cfg", _STUDY_CFG.replace("heavisine", "sawtooth"),
                          ["study", "{input}", "--out-dir", "{out}"],
                          3, "{input}: unknown test function 'sawtooth'; available: "),
    "threshold abc": ("in.csv", None, ["denoise", "{input}", "--rule", "soft",
                                       "--threshold", "abc", "--out", "{out}"],
                      3, "--threshold must be 'universal' or a number, got 'abc'"),
    "d-max below d-min": (None, None, ["rule-curve", "--alpha", "0.9", "--beta", "6",
                                       "--lambda", "3", "--d-min", "2", "--d-max", "-2",
                                       "--out", "{out}"],
                          4, "empty grid: d_max -2.0 < d_min 2.0"),
}


@pytest.mark.parametrize("case", list(_REJECTIONS))
def test_a_documented_rejection_exits_with_its_code_and_one_error_line(runner, tmp_path,
                                                                      case):
    name, text, args, code, message = _REJECTIONS[case]
    inp, out = tmp_path / (name or "unused"), tmp_path / "out"
    if text is None:
        _write_noisy_signal(inp, n=64)
    else:
        inp.write_text(text)
    args = [a.format(input=inp, out=out) for a in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = _one_error_line(runner.invoke(main, args), code)
    assert not caught
    assert line.startswith("error: " + message.format(input=inp))
    assert not out.exists()


@pytest.mark.parametrize("args, option", [
    (["denoise", "{input}", "--wavelet-order", "0", "--out", "{out}"], "--wavelet-order"),
    (["denoise", "{input}", "--pad", "zero", "--out", "{out}"], "--pad"),
    (["denoise", "{input}", "--rule", "bogus", "--out", "{out}"], "--rule"),
    (["study", "--preset", "nope", "--out-dir", "{out}"], "--preset"),
], ids=["wavelet-order", "pad", "rule", "preset"])
def test_a_bad_option_value_is_a_usage_error(runner, tmp_path, args, option):
    # click's form, not the package's: exit 2, a usage block and one
    # Error: line naming the option; nothing is written
    inp, out = tmp_path / "in.csv", tmp_path / "out"
    _write_noisy_signal(inp, n=64)
    result = runner.invoke(main, [a.format(input=inp, out=out) for a in args])
    assert result.exit_code == 2 and result.stdout == ""
    usage, hint, blank, error = result.stderr.splitlines()
    assert usage.startswith(f"Usage: main {args[0]} [OPTIONS]")
    assert hint == f"Try 'main {args[0]} --help' for help." and blank == ""
    assert error.startswith(f"Error: Invalid value for '{option}': ")
    assert list(tmp_path.iterdir()) == [inp]


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh Python process, run with these arguments on this source tree."""
    src = str(Path(epashrink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_and_denoise_load_neither_scipy_nor_mpmath():
    """Neither scipy nor mpmath, nor numpy.polynomial (which only
    rule_statistics uses), is loaded by importing the CLI, by building
    every filter or by a denoise: they stay off the cold-start path. Nor is
    logging: the package has no log channel, a floor or clamp showing as
    its value (numpy and click load no logging either)."""
    code = (
        "import sys\n"
        "heavy = lambda: [m for m in ('scipy', 'mpmath', 'numpy.polynomial', 'logging')\n"
        "                 if m in sys.modules]\n"
        "import epashrink.cli\n"
        "assert not heavy(), heavy()\n"
        "import numpy as np\n"
        "from epashrink import RuleSpec, Signal, denoise, make_daubechies_filter\n"
        "for order in range(1, 11):\n"
        "    make_daubechies_filter(order)\n"
        "denoise(Signal(np.random.default_rng(0).standard_normal(64)), RuleSpec('esr'))\n"
        "assert not heavy(), heavy()\n"
    )
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr


def test_package_imports_only_stdlib_numpy_and_click():
    """Every import in the package, at module level or inside a function,
    is of the standard library, numpy or click."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "click"}
    found = []

    def walk(node, path, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, path, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
            else:
                names = []
            for name in names:
                if name.split(".")[0] not in allowed:
                    found.append(f"{path.name}:{child.lineno} {name} in {func}")
            walk(child, path, func)

    package = Path(epashrink.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "<module>")
    assert not found, found


def test_package_calls_none_of_numpys_slow_paths():
    """No module of the package calls np.median, np.percentile or
    np.quantile, which partition at two or more pivots (the middle pair
    and the last entry, for the nan check) where the MAD needs one, nor
    np.roll, whose per-call cost a transform step pays on every level."""
    slow = {"median", "percentile", "quantile", "roll"}
    found = []
    package = Path(epashrink.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in slow and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                found.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found += [f"{path.name}:{node.lineno} numpy.{alias.name}"
                          for alias in node.names if alias.name in slow]
    assert not found, found


def test_every_exported_name_resolves():
    """Each name in the package's __all__ and in every submodule's __all__
    is an attribute of its module, so a removal leaves no stale export."""
    package = Path(epashrink.__file__).resolve().parent
    modules = [epashrink] + [importlib.import_module(f"epashrink.{path.stem}")
                             for path in sorted(package.glob("*.py"))
                             if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, missing


# the package's __all__ before it was built from the submodules' lists
_EXPORTED_NAMES = [
    "CellResult", "ConfigError", "DaubechiesFilter", "Denoised", "DomainError",
    "DoubleExponential", "ElicitationConfig", "EpashrinkError", "Gaussian",
    "InputError", "MixturePriorParams", "NumericError", "RuleSpec",
    "RuleStatistics", "SigmaEstimator", "Signal", "StudyConfig", "StudyReport",
    "TestFunctionKind", "WaveletPyramid", "add_noise", "alpha_level",
    "benchmark_elicitation", "beta_level", "denoise", "dwt_forward", "dwt_inverse",
    "esr", "estimate_sigma", "generate_test_function", "hard_threshold",
    "lambda_from_s", "make_daubechies_filter", "marginal_m", "mse",
    "rule_statistics", "run_study", "shrink_pyramid", "soft_threshold",
    "study_preset", "universal_threshold",
]


def test_package_exports_do_not_shrink():
    """Every name the package exported stays exported, as the very object
    of the one submodule whose __all__ lists it."""
    modules = [importlib.import_module(f"epashrink.{name}") for name in (
        "dwt", "elicitation", "errors", "shrinkage", "signals", "study", "thresholds")]
    assert len(_EXPORTED_NAMES) == 41
    assert set(_EXPORTED_NAMES) <= set(epashrink.__all__)
    for name in _EXPORTED_NAMES:
        [home] = [module for module in modules if name in module.__all__]
        assert getattr(epashrink, name) is getattr(home, name)


def test_errors_module_exports_its_exception_classes():
    from epashrink import errors

    assert sorted(errors.__all__) == ["ConfigError", "DomainError", "EpashrinkError",
                                      "InputError", "NumericError"]
    assert all(issubclass(getattr(errors, name), errors.EpashrinkError)
               for name in errors.__all__)
