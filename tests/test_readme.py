"""README.md's examples run as written: the Python quick start, and every
`epashrink` command of its shell blocks, on the config files of its ini
blocks, in a fresh directory. Only the presets' replications are cut, so
that the whole walk through takes under a second."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from epashrink import STUDY_PRESETS, add_noise, generate_test_function
from epashrink.cli import _KEYS, main, write_signal_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language: str) -> list[str]:
    """The text of every fenced block of README.md in language."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)


def _commands() -> list[list[str]]:
    """The arguments of every `epashrink` and `mkdir -p` line of the shell
    blocks, in order, continuation lines joined and comments dropped."""
    lines = [line for block in _blocks("sh") for line in block.replace("\\\n", " ").splitlines()]
    return [args for args in (shlex.split(line, comments=True) for line in lines)
            if args[:1] == ["epashrink"] or args[:2] == ["mkdir", "-p"]]


def test_the_readme_has_the_examples_this_module_runs():
    [quick_start] = _blocks("python")
    assert "denoise(" in quick_start
    commands = [args[1] for args in _commands() if args[0] == "epashrink"]
    assert {"denoise", "coeffs", "rule-curve", "rule-stats", "generate",
            "study"} <= set(commands)
    assert [block.splitlines()[0] for block in _blocks("ini")] == ["# study.cfg",
                                                                   "# doppler.cfg"]


def test_the_study_cfg_block_sets_exactly_the_keys_the_parser_reads():
    [study_cfg] = [block for block in _blocks("ini") if block.startswith("# study.cfg")]
    settings = [line.split("#", 1)[0] for line in study_cfg.splitlines()]
    assert sorted(line.split("=", 1)[0].strip() for line in settings if "=" in line) == \
        sorted(_KEYS)


def test_the_python_quick_start_runs():
    [quick_start] = _blocks("python")
    out, names = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start, "README.md", "exec"), names)
    assert out.getvalue() and "nan" not in out.getvalue()
    # the denoised draw is closer to the truth than the draw itself
    assert names["mse"](names["result"], names["truth"]) < names["mse"](names["noisy"],
                                                                         names["truth"])


def test_every_cli_example_runs(tmp_path, monkeypatch):
    for name, grid in STUDY_PRESETS.items():
        monkeypatch.setitem(STUDY_PRESETS, name, {**grid, "replications": 2})
    monkeypatch.chdir(tmp_path)
    # the recording the denoise and coeffs examples read
    write_signal_csv("recording.csv",
                     add_noise(generate_test_function("doppler", 1024), 3.0, 1).samples)
    for block in _blocks("ini"):
        Path(block.splitlines()[0].removeprefix("# ")).write_text(block)
    runner = CliRunner()
    for args in _commands():
        if args[0] == "mkdir":
            Path(args[2]).mkdir(parents=True, exist_ok=True)
            continue
        result = runner.invoke(main, args[1:])
        assert result.exit_code == 0, (args, result.output)
        for flag, suffixes in (("--out", [""]), ("--out-dir", ["/report.csv", "/summary.json"]),
                               ("--out-prefix", [".empirical.csv", ".shrunk.csv"])):
            if flag in args:
                target = args[args.index(flag) + 1].rstrip("/")
                assert all(Path(target + suffix).is_file() for suffix in suffixes), args
