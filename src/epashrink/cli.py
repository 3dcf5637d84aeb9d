"""Command-line front end.

Subcommands: denoise, coeffs, rule-curve, rule-stats, generate, study.
All numeric CSV output is written with 17 significant digits so files
round-trip bit-faithfully. Exit codes: 0 success, 2 input error, 3 config
error, 4 domain error, 5 numeric error. Every output path is checked
before the work: one under a missing directory, or that is a directory,
is an input error, as is an input that cannot be read or is not UTF-8.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .dwt import MAX_ORDER
from .elicitation import ElicitationConfig, SigmaEstimator
from .errors import (
    ConfigError,
    DomainError,
    EpashrinkError,
    InputError,
    NumericError,
    numeric_guard,
)
from .shrinkage import Gaussian, MixturePriorParams, esr, rule_statistics
from .signals import Signal, TestFunctionKind, add_noise, generate_test_function, scaled_std
from .study import (
    RuleSpec,
    StudyConfig,
    denoise,
    run_study,
    study_preset,
    STUDY_PRESETS,
)
from .thresholds import hard_threshold, soft_threshold

EXIT_CODES = {InputError: 2, ConfigError: 3, DomainError: 4, NumericError: 5}

_FMT = "%.17g"

# every flag default below is the library's own
_ELICITATION = ElicitationConfig()
_STUDY = {f.name: f.default for f in dataclasses.fields(StudyConfig)}


def _fmt(value: float) -> str:
    return _FMT % value


# ---------------------------------------------------------------------------
# file boundary


def _read_text(path: Path) -> str:
    """The text of an input file; InputError if it cannot be read or is
    not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text "
                         f"({exc.reason} at offset {exc.start})") from exc


def _output_path(path) -> Path:
    """path, checked before any work to name a file that can be written:
    InputError if it is a directory or its directory does not exist."""
    path = Path(path)
    if path.is_dir():
        raise InputError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise InputError(f"cannot write {path}: no directory {path.parent}")
    return path


@contextlib.contextmanager
def _writing(path):
    """An output file open for writing text; InputError if it cannot be."""
    try:
        with Path(path).open("w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def read_signal_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read a one- or two-column numeric CSV (optional header row).

    Returns (samples, truth-or-None). The second column, when present, is
    interpreted as the noiseless truth (the layout "y,f" that `generate`
    emits).
    """
    path = Path(path)
    text = _read_text(path)
    ys: list[float] = []
    fs: list[float] = []
    saw_truth = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        try:
            values = [float(f) for f in fields if f != ""]
        except ValueError:
            if lineno == 1:  # header row
                continue
            raise InputError(f"{path}: non-numeric value on line {lineno}: {raw!r}")
        if not values:
            continue
        if len(values) > 2:
            raise InputError(f"{path}: expected at most 2 columns on line {lineno}")
        if not all(map(math.isfinite, values)):
            raise InputError(f"{path}: non-finite value on line {lineno}: {raw!r}")
        ys.append(values[0])
        if len(values) == 2:
            fs.append(values[1])
            saw_truth = True
    if not ys:
        raise InputError(f"{path}: no numeric samples found")
    if saw_truth and len(fs) != len(ys):
        raise InputError(f"{path}: truth column is present on only some rows")
    samples = np.array(ys)
    truth = np.array(fs) if saw_truth else None
    return samples, truth


def write_signal_csv(path, samples: np.ndarray, truth: np.ndarray | None = None):
    with _writing(path) as fh:
        if truth is None:
            fh.write("y\n")
            for v in samples:
                fh.write(_fmt(v) + "\n")
        else:
            fh.write("y,f\n")
            for v, t in zip(samples, truth):
                fh.write(_fmt(v) + "," + _fmt(t) + "\n")


def write_table_csv(path, header: list[str], rows):
    with _writing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _write_json(path, value) -> None:
    with _writing(path) as fh:
        fh.write(json.dumps(value, indent=2) + "\n")


def _to_dyadic(samples: np.ndarray, pad: str | None):
    """Return (dyadic samples, original length); apply the pad policy if any."""
    n = samples.size
    if n >= 2 and n & (n - 1) == 0:
        return samples, n
    if pad is None:
        raise InputError(
            f"signal length {n} is not a power of two; pass --pad reflect "
            "or --pad truncate to choose a policy"
        )
    if n < 2:
        raise InputError("need at least 2 samples")
    if pad == "truncate":
        m = 1 << (n.bit_length() - 1)
        return samples[:m], m
    target = 1 << n.bit_length()
    return np.pad(samples, (0, target - n), mode="reflect"), n


# ---------------------------------------------------------------------------
# study config files

_LIST_KEYS = {"functions", "sizes", "snrs", "rules"}
_SCALAR_KEYS = {
    "replications", "gamma", "l", "c", "tau", "j0", "sigma",
    "wavelet_order", "seed", "target_sd",
}


def parse_study_config(text: str, source: str = "<config>") -> StudyConfig:
    """Parse the flat key-value study format (one `key = value` per line).

    Lists are comma separated. Unknown keys and malformed values are
    reported with their line number.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.lower().replace("-", "_")
        if key not in _LIST_KEYS | _SCALAR_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        raw[key] = value

    def split(key):
        return [v.strip() for v in raw[key].split(",") if v.strip()]

    def require(key):
        if key not in raw:
            raise ConfigError(f"{source}: missing required key {key!r}")

    for key in ("functions", "sizes", "snrs", "replications", "rules"):
        require(key)
    try:
        functions = tuple(TestFunctionKind(v.lower()) for v in split("functions"))
    except ValueError as exc:
        raise ConfigError(f"{source}: bad function name: {exc}") from None
    try:
        sizes = tuple(int(v) for v in split("sizes"))
        snrs = tuple(float(v) for v in split("snrs"))
        replications = int(raw["replications"])
    except ValueError as exc:
        raise ConfigError(f"{source}: bad numeric value: {exc}") from None
    rules = tuple(RuleSpec.parse(v) for v in split("rules"))

    try:
        elicitation = ElicitationConfig(
            gamma=float(raw.get("gamma", _ELICITATION.gamma)),
            l=float(raw.get("l", _ELICITATION.l)),
            c=float(raw.get("c", _ELICITATION.c)),
            tau=float(raw.get("tau", _ELICITATION.tau)),
            sigma_estimator=raw.get("sigma", _ELICITATION.sigma_estimator),
            coarse_level=int(raw.get("j0", _ELICITATION.coarse_level)),
        )
        return StudyConfig(
            functions=functions,
            sizes=sizes,
            snrs=snrs,
            replications=replications,
            rules=rules,
            elicitation=elicitation,
            wavelet_order=int(raw.get("wavelet_order", _STUDY["wavelet_order"])),
            seed=int(raw.get("seed", _STUDY["seed"])),
            target_sd=float(raw.get("target_sd", _STUDY["target_sd"])),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: bad value: {exc}") from None


# ---------------------------------------------------------------------------
# command plumbing


def _translate_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except EpashrinkError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next((code for cls, code in EXIT_CODES.items()
                           if isinstance(exc, cls)), 1))

    return wrapper


def _elicitation_from_flags(rule, gamma, l, c, tau, j0, sigma) -> ElicitationConfig:
    """The elicitation of the flags. --c and --tau set the variance-prior
    rate, which only the esr rule uses: given with another rule, they are
    a ConfigError rather than silently dropped."""
    context = click.get_current_context()
    given = [f"--{name}" for name in ("c", "tau")
             if context.get_parameter_source(name) is not ParameterSource.DEFAULT]
    if given and rule != "esr":
        raise ConfigError(f"--rule {rule} takes no {' or '.join(given)}: only esr "
                          "uses the variance-prior rate")
    return ElicitationConfig(
        gamma=gamma, l=l, c=c, tau=tau,
        sigma_estimator=sigma, coarse_level=j0,
    )


def _rule_from_flags(rule: str, threshold: str) -> RuleSpec:
    if threshold == "universal":
        return RuleSpec(rule)
    try:
        eta = float(threshold)
    except ValueError:
        raise ConfigError(
            f"--threshold must be 'universal' or a number, got {threshold!r}"
        ) from None
    return RuleSpec(rule, eta)


def _shared_rule_options(func):
    options = [
        click.option("--rule", type=click.Choice(["esr", "hard", "soft"]),
                     default="esr", show_default=True, help="Shrinkage rule."),
        click.option("--threshold", default="universal", show_default=True,
                     help="Threshold policy for hard/soft: 'universal' or a value."),
        click.option("--gamma", type=float, default=_ELICITATION.gamma,
                     show_default=True, help="Spike-weight exponent."),
        click.option("--l", "l", type=float, default=_ELICITATION.l,
                     show_default=True, help="Spike-weight offset."),
        click.option("--c", "c", type=float, default=_ELICITATION.c, show_default=True,
                     help="Variance-prior rate coefficient (esr only)."),
        click.option("--tau", type=float, default=_ELICITATION.tau, show_default=True,
                     help="Variance-prior rate decay scale (esr only)."),
        click.option("--j0", type=int, default=_ELICITATION.coarse_level,
                     show_default=True,
                     help="Coarsest resolution level kept for shrinkage."),
        click.option("--sigma", type=click.Choice([e.value for e in SigmaEstimator]),
                     default=_ELICITATION.sigma_estimator.value,
                     show_default=True, help="Noise-scale estimator."),
        click.option("--wavelet-order", type=click.IntRange(1, MAX_ORDER),
                     default=_STUDY["wavelet_order"], show_default=True,
                     help="Daubechies vanishing moments."),
        click.option("--pad", type=click.Choice(["reflect", "truncate"]),
                     default=None, help="Policy for non-dyadic input lengths."),
    ]
    for option in reversed(options):
        func = option(func)
    return func


@click.group()
def main():
    """Wavelet denoising with a bounded-support spike-and-slab rule."""


@main.command("denoise")
@click.argument("input_path", type=click.Path())
@_shared_rule_options
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Output CSV path for the denoised signal.")
@_translate_errors
def cmd_denoise(input_path, rule, threshold, gamma, l, c, tau, j0, sigma,
                wavelet_order, pad, out_path):
    """Denoise a single-column CSV signal and write a diagnostics sidecar."""
    out_path = _output_path(out_path)
    report_path = _output_path(f"{out_path}.report.json")
    samples, _ = read_signal_csv(input_path)
    dyadic, original_n = _to_dyadic(samples, pad)
    cfg = _elicitation_from_flags(rule, gamma, l, c, tau, j0, sigma)
    spec = _rule_from_flags(rule, threshold)
    out = denoise(Signal(dyadic), spec, cfg, wavelet_order)
    with numeric_guard("estimated SNR"):
        # heuristic analogue of a signal-to-noise ratio: spread of the
        # denoised samples against the estimated noise scale
        estimated_snr = scaled_std(out.samples) / out.diagnostics["sigma_hat"]
    report = {
        "version": __version__,
        "n": out.n,
        "rule": spec.label,
        "wavelet_order": wavelet_order,
        "coarse_level": cfg.coarse_level,
        "sigma_estimator": cfg.sigma_estimator.value,
        # the whole elicitation, as summary.json's config records it
        "elicitation": dataclasses.asdict(cfg),
        "estimated_snr": estimated_snr,
        **out.diagnostics,
        "input": str(input_path),
        "original_length": int(original_n),
        "pad": pad,
    }
    write_signal_csv(out_path, out.samples[:original_n])
    _write_json(report_path, report)
    click.echo(f"wrote {out_path} and {report_path}")


@main.command("coeffs")
@click.argument("input_path", type=click.Path())
@_shared_rule_options
@click.option("--out-prefix", required=True, type=click.Path(),
              help="Prefix for the two coefficient tables.")
@_translate_errors
def cmd_coeffs(input_path, rule, threshold, gamma, l, c, tau, j0, sigma,
               wavelet_order, pad, out_prefix):
    """Dump empirical and shrunk coefficient magnitudes by level."""
    emp_path = _output_path(f"{out_prefix}.empirical.csv")
    shr_path = _output_path(f"{out_prefix}.shrunk.csv")
    samples, _ = read_signal_csv(input_path)
    dyadic, _ = _to_dyadic(samples, pad)
    cfg = _elicitation_from_flags(rule, gamma, l, c, tau, j0, sigma)
    spec = _rule_from_flags(rule, threshold)
    out = denoise(Signal(dyadic), spec, cfg, wavelet_order)

    def rows(pyramid):
        blocks = [("scaling", pyramid.coarse_level, pyramid.scaling)]
        blocks += [("detail", j, block) for j, block in pyramid.details.items()]
        for name, level, block in blocks:
            for position, value in enumerate(np.abs(block).tolist()):
                yield (name, level, position, value)

    header = ["block", "level", "position", "magnitude"]
    write_table_csv(emp_path, header, rows(out.empirical))
    write_table_csv(shr_path, header, rows(out.shrunk))
    click.echo(f"wrote {emp_path} and {shr_path}")


def _curves(alphas, beta: float, lams) -> list[tuple[str, MixturePriorParams]]:
    """The prior of every (alpha, lambda) pair, alpha-major, with its label
    a{alpha:g}_l{lambda:g}; a single pair is labelled ""."""
    pairs = [(alpha, lam) for alpha in alphas for lam in lams]
    return [(f"a{alpha:g}_l{lam:g}" if len(pairs) > 1 else "",
             MixturePriorParams(alpha=alpha, beta=beta, lam=lam))
            for alpha, lam in pairs]


def _grid(name: str, lo: float, hi: float, points: int) -> np.ndarray:
    """points evenly spaced values from lo to hi, both finite."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{name} grid bounds must be finite, got {lo} and {hi}")
    if hi < lo:
        raise DomainError(f"empty grid: {name}_max {hi} < {name}_min {lo}")
    with numeric_guard(f"{name} grid"):
        return np.linspace(lo, hi, points)


@main.command("rule-curve")
@click.option("--alpha", "alphas", type=float, multiple=True, required=True,
              help="Spike weight; repeat for one curve per (alpha, lambda).")
@click.option("--beta", type=float, required=True, help="Slab half-support.")
@click.option("--lambda", "lams", type=float, multiple=True, required=True,
              help="Variance-prior rate; repeatable like --alpha.")
@click.option("--d-min", type=float, default=None,
              help="Grid start (default -2.5*beta).")
@click.option("--d-max", type=float, default=None,
              help="Grid end (default 2.5*beta).")
@click.option("--points", type=click.IntRange(min=1), default=501,
              show_default=True, help="Grid size.")
@click.option("--eta", type=float, default=None,
              help="Also emit hard/soft thresholding columns at this eta.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_translate_errors
def cmd_rule_curve(alphas, beta, lams, d_min, d_max, points, eta, out_path):
    """Tabulate the shrinkage rule (optionally with thresholding baselines).

    Several --alpha/--lambda values give one column esr_a{alpha}_l{lambda}
    per pair, alpha-major; a single pair gives the column esr.
    """
    out_path = _output_path(out_path)
    curves = _curves(alphas, beta, lams)
    grid = _grid("d", -2.5 * beta if d_min is None else d_min,
                 2.5 * beta if d_max is None else d_max, points)
    header = ["d"] + [f"esr_{label}" if label else "esr" for label, _ in curves]
    columns = [grid] + [esr(grid, params) for _, params in curves]
    if eta is not None:
        header += ["hard", "soft"]
        columns += [hard_threshold(grid, eta), soft_threshold(grid, eta)]
    write_table_csv(out_path, header, np.column_stack(columns).tolist())
    click.echo(f"wrote {out_path}")


@main.command("rule-stats")
@click.option("--alpha", "alphas", type=float, multiple=True, required=True)
@click.option("--beta", type=float, required=True)
@click.option("--lambda", "lams", type=float, multiple=True, required=True)
@click.option("--theta-min", type=float, default=None,
              help="Grid start (default 0).")
@click.option("--theta-max", type=float, default=None,
              help="Grid end (default beta).")
@click.option("--points", type=click.IntRange(min=1), default=61,
              show_default=True)
@click.option("--noise", type=click.Choice(["dexp", "gaussian"]), default="dexp",
              show_default=True, help="Noise model for the expectations.")
@click.option("--noise-sigma", type=float, default=None,
              help="Sigma of the gaussian noise model (required with it, "
                   "rejected with dexp).")
@click.option("--out", "out_path", required=True, type=click.Path())
@_translate_errors
def cmd_rule_stats(alphas, beta, lams, theta_min, theta_max, points, noise,
                   noise_sigma, out_path):
    """Tabulate squared bias, variance and risk over true coefficients.

    Several --alpha/--lambda values give one block of rows per pair,
    alpha-major, labelled a{alpha}_l{lambda} in a leading curve column.
    """
    out_path = _output_path(out_path)
    curves = _curves(alphas, beta, lams)
    model = None  # dexp: each prior's own lambda, rule_statistics' default
    if noise == "gaussian":
        if noise_sigma is None:
            raise ConfigError("--noise-sigma is required with --noise gaussian")
        model = Gaussian(noise_sigma)
    elif noise_sigma is not None:
        raise ConfigError("--noise-sigma applies only to --noise gaussian")
    thetas = _grid("theta", 0.0 if theta_min is None else theta_min,
                   beta if theta_max is None else theta_max, points)
    header = ["theta", "bias_sq", "variance", "risk"]
    if len(curves) > 1:
        header.insert(0, "curve")
    rows = []
    for label, params in curves:
        prefix = [label] if label else []
        for theta in thetas:
            try:
                stats = rule_statistics(float(theta), params, model)
            except NumericError as exc:
                where = f"{label} theta={theta}" if label else f"theta={theta}"
                raise NumericError(f"at {where}: {exc}") from exc
            rows.append(prefix + [float(theta), stats.bias_sq, stats.variance,
                                  stats.risk])
    write_table_csv(out_path, header, rows)
    click.echo(f"wrote {out_path}")


@main.command("generate")
@click.option("--kind", type=click.Choice([k.value for k in TestFunctionKind]),
              required=True, help="Test function.")
@click.option("--n", type=int, required=True, help="Dyadic sample count.")
@click.option("--target-sd", type=float, default=_STUDY["target_sd"],
              show_default=True)
@click.option("--snr", type=float, default=None,
              help="If set, add calibrated noise and emit the truth column.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_translate_errors
def cmd_generate(kind, n, target_sd, snr, seed, out_path):
    """Emit a benchmark signal as CSV (header `y` or `y,f`)."""
    out_path = _output_path(out_path)
    clean = generate_test_function(kind, n, target_sd)
    if snr is None:
        write_signal_csv(out_path, clean.samples)
    else:
        noisy = add_noise(clean, snr, seed)
        write_signal_csv(out_path, noisy.samples, noisy.truth)
    click.echo(f"wrote {out_path}")


@main.command("study")
@click.argument("config_path", type=click.Path(), required=False)
@click.option("--preset", type=click.Choice(sorted(STUDY_PRESETS)), default=None,
              help="Use a built-in study configuration instead of a file.")
@click.option("--seed", type=int, default=None,
              help="Override the seed of the config/preset.")
@click.option("--out-dir", required=True, type=click.Path(),
              help="Directory for report.csv and summary.json.")
@_translate_errors
def cmd_study(config_path, preset, seed, out_dir):
    """Run a Monte-Carlo study from a config file or a preset."""
    if (config_path is None) == (preset is None):
        raise ConfigError("pass exactly one of CONFIG_PATH or --preset")
    if preset is not None:
        config = study_preset(preset)
    else:
        path = Path(config_path)
        config = parse_study_config(_read_text(path), source=str(path))
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    out = Path(out_dir)
    # before any draw, so a bad directory does not fail only after the grid
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot make the output directory {out}: {exc}") from exc
    csv_path = _output_path(out / "report.csv")
    json_path = _output_path(out / "summary.json")

    report = run_study(config)

    rows = []
    for cell in report.cells:
        rows.append([
            cell.function.value, cell.n, float(cell.snr), cell.rule,
            float(cell.amse), float(cell.mse_sd), len(cell.mse_samples),
            float(cell.wall_time_s), int(cell.degenerate_sd),
        ])
    write_table_csv(
        csv_path,
        ["function", "n", "snr", "rule", "amse", "mse_sd", "replications",
         "wall_time_s", "degenerate_sd"],
        rows,
    )
    _write_json(json_path, {"version": __version__, **report.to_dict()})
    click.echo(f"wrote {csv_path} and {json_path}")
    for cell in report.cells:
        click.echo(
            f"  {cell.function.value:9s} n={cell.n:5d} snr={cell.snr:g} "
            f"{cell.rule:14s} amse={cell.amse:.6g} sd={cell.mse_sd:.6g}"
        )


if __name__ == "__main__":
    main()
