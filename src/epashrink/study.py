"""Denoising pipeline and the Monte-Carlo benchmark harness.

A study runs a grid of (test function x size x SNR) cells; within each
cell every replication draws one noisy signal and every rule under test
denoises that same draw (paired comparison), so rule contrasts are not
diluted by noise-stream differences. Noise streams are keyed by
(seed, function, size, snr, replication), which makes the whole report a
pure function of (config, seed) independent of execution order.

One pipeline serves both a single denoise and a study: it takes a stack of
signals, shape (R, n), and a tuple of rules, transforms the stack once and
shrinks and inverts it once per rule. Every step works row by row, so each
row comes out bit for bit as it would alone. A study runs it once per
(function, n), on the len(snrs) x replications draws of that pair.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dwt import WaveletPyramid, dwt_forward, dwt_inverse, make_daubechies_filter
from .elicitation import (
    ElicitationConfig,
    SigmaEstimator,
    alpha_level,
    beta_level,
    estimate_sigma,
    lambda_from_s,
)
from .errors import ConfigError, InputError, NumericError, numeric_guard
from .shrinkage import MixturePriorParams, esr
from .signals import (
    Signal,
    TestFunctionKind,
    add_noise,
    generate_test_function,
    scaled_std,
)
from .thresholds import hard_threshold, soft_threshold, universal_threshold

# spike weights are clamped into the open unit interval; the lower clamp
# covers level J0 under the l=1 benchmark preset, where the level formula
# lands exactly on 0 (the pure-slab limit of the rule)
ALPHA_MIN = 1e-12
ALPHA_MAX = 1.0 - 1e-15
# noise-scale floor, relative to the largest detail coefficient so that it
# scales with the data: keeps lambda finite when the finest level is exactly 0
SIGMA_FLOOR = 1e-8

__all__ = [
    "RuleSpec",
    "StudyConfig",
    "CellResult",
    "StudyReport",
    "Denoised",
    "mse",
    "denoise",
    "shrink_pyramid",
    "run_study",
    "benchmark_elicitation",
    "study_preset",
    "STUDY_PRESETS",
]


@dataclass(frozen=True)
class RuleSpec:
    """One shrinkage or thresholding rule under test.

    kind is "esr", "hard" or "soft"; for the thresholding kinds,
    threshold is either a fixed positive value or None for the universal
    policy sigma_hat * sqrt(2 ln n).
    """

    kind: str
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in ("esr", "hard", "soft"):
            raise ConfigError(f"unknown rule kind {self.kind!r}")
        if self.kind == "esr" and self.threshold is not None:
            raise ConfigError("the esr rule takes no threshold")
        if self.threshold is not None and not self.threshold >= 0.0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold}")

    @property
    def label(self) -> str:
        if self.kind == "esr":
            return "esr"
        if self.threshold is None:
            return f"{self.kind}-universal"
        return f"{self.kind}:{self.threshold:g}"

    @classmethod
    def parse(cls, text: str) -> "RuleSpec":
        """Parse "esr", "soft-universal", "hard-universal", "soft:2.5", ..."""
        text = text.strip().lower()
        if text == "esr":
            return cls("esr")
        for kind in ("hard", "soft"):
            if text in (kind, f"{kind}-universal"):
                return cls(kind)
            if text.startswith(f"{kind}:"):
                try:
                    eta = float(text.split(":", 1)[1])
                except ValueError as exc:
                    raise ConfigError(f"bad threshold in rule {text!r}") from exc
                return cls(kind, eta)
        raise ConfigError(f"cannot parse rule {text!r}")


def mse(estimate, truth):
    """Mean squared pointwise difference between two equal-length signals.

    ``estimate`` may also be a stack of signals, shape (R, n), each scored
    against the one truth; the result is then an array of R values.
    """
    a = np.asarray(getattr(estimate, "samples", estimate), dtype=float)
    b = np.asarray(getattr(truth, "samples", truth), dtype=float)
    if b.ndim != 1 or a.shape[-1:] != b.shape:
        raise InputError(f"length mismatch: {a.shape} vs {b.shape}")
    out = np.mean((a - b) ** 2, axis=-1)
    return out if out.ndim else float(out)


def _clamped_alpha(j: int, cfg: ElicitationConfig) -> float:
    base = j - cfg.coarse_level + cfg.l
    if base <= 1.0:
        return ALPHA_MIN
    return min(max(alpha_level(j, cfg.coarse_level, cfg.gamma, cfg.l), ALPHA_MIN),
               ALPHA_MAX)


def shrink_pyramid(pyramid, rule: RuleSpec, elicitation: ElicitationConfig,
                   n_samples: int) -> dict:
    """Apply a rule to every detail level of a pyramid, in place.

    The scaling block is never touched. Returns the elicited quantities:
    the noise-scale estimate, per-level spike weight and slab support, and
    the global rate (mixture rule) or the threshold (hard/soft), all in the
    units of the coefficients. The mixture rule itself runs on the
    coefficients divided by the noise-scale estimate, which keeps its
    powers of the slab support in range at any signal scale. A non-finite
    coefficient or rate, or an overflow while eliciting or applying the
    rule, raises NumericError.

    Each level is shrunk in its view of the coefficient array. The pyramid
    may hold one signal (coefficients of shape (n,)) or a stack of R
    signals (shape (R, n)). Each row of a stack is elicited and shrunk on
    its own, bit for bit as it would be alone; its noise-scale estimate,
    slab supports and rate or universal threshold are then arrays of R
    values, while the spike weights and a fixed threshold stay numbers.
    """
    cfg = elicitation
    coeffs = pyramid.coeffs
    stacked = coeffs.ndim == 2
    if coeffs.ndim not in (1, 2):
        raise InputError(f"cannot shrink a pyramid of shape {coeffs.shape}")
    details = pyramid.details
    with numeric_guard("shrinkage"):
        if not np.isfinite(coeffs).all():
            raise NumericError("wavelet coefficients are not finite")
        levels = [{"level": j, "alpha": _clamped_alpha(j, cfg),
                   "beta": beta_level(block)}
                  for j, block in details.items()]
        finest = details[pyramid.depth - 1]
        floor = SIGMA_FLOOR * np.max([level["beta"] for level in levels], axis=0)
        sigma_hat = np.maximum(estimate_sigma(finest, cfg.sigma_estimator), floor)
        diagnostics: dict = {"sigma_hat": sigma_hat if stacked else float(sigma_hat),
                             "levels": levels}
        # per-row values as Python floats, and a column that broadcasts
        # against the stacked blocks
        sigmas = np.atleast_1d(sigma_hat).tolist()
        column = sigma_hat[:, None] if stacked else diagnostics["sigma_hat"]
        if rule.kind == "esr":
            lams = [lambda_from_s(s, cfg.c, cfg.tau) for s in sigmas]
            for s, lam in zip(sigmas, lams):
                if not math.isfinite(lam):
                    raise NumericError(f"lambda overflows at sigma_hat={s!r}")
            diagnostics["lambda"] = np.array(lams) if stacked else lams[0]
            unit_lams = [lam * s**2 for s, lam in zip(sigmas, lams)]
        else:
            eta = rule.threshold
            if eta is None:
                eta = universal_threshold(sigma_hat if stacked else sigmas[0], n_samples)
            diagnostics["eta"] = eta
            if np.ndim(eta):
                eta = eta[:, None]
            threshold = hard_threshold if rule.kind == "hard" else soft_threshold
        for level, block in zip(levels, details.values()):
            if rule.kind == "esr":
                params = [MixturePriorParams(level["alpha"], beta / s, unit_lam)
                          for beta, s, unit_lam in zip(
                              np.atleast_1d(level["beta"]).tolist(), sigmas, unit_lams)]
                np.multiply(column, esr(block / column, params if stacked else params[0]),
                            out=block)
            else:
                block[...] = threshold(block, eta)
    return diagnostics


def _denoise_stack(rows: np.ndarray, rules: tuple[RuleSpec, ...],
                   elicitation: ElicitationConfig, wavelet_order: int) -> tuple:
    """The denoising pipeline: one forward transform of the signals in
    ``rows`` (shape (n,) or (R, n)), then per rule a shrink of a copy of
    its coefficients and an inverse.

    Returns the forward pyramid and, per rule, (estimates, diagnostics,
    shrunk pyramid, seconds). seconds is the rule's own copy, shrink and
    inverse plus a 1/len(rules) share of the shared forward transform.
    """
    filt = make_daubechies_filter(wavelet_order)
    t0 = time.perf_counter()
    empirical = dwt_forward(rows, filt, elicitation.coarse_level)
    forward_share = (time.perf_counter() - t0) / len(rules)
    results = []
    for rule in rules:
        t0 = time.perf_counter()
        shrunk = empirical.copy()
        diagnostics = shrink_pyramid(shrunk, rule, elicitation, rows.shape[-1])
        estimates = dwt_inverse(shrunk, filt)
        results.append((estimates, diagnostics, shrunk,
                        forward_share + time.perf_counter() - t0))
    return empirical, results


@dataclass
class Denoised(Signal):
    """Result of :func:`denoise`: the estimate, the input's truth, the
    diagnostics dict that :func:`shrink_pyramid` returned for it, and the
    coefficients of the input before (``empirical``) and after (``shrunk``)
    the rule."""

    diagnostics: dict = field(default_factory=dict)
    empirical: WaveletPyramid | None = None
    shrunk: WaveletPyramid | None = None


def denoise(
    y: Signal,
    rule: RuleSpec,
    elicitation: ElicitationConfig | None = None,
    wavelet_order: int = 10,
) -> Denoised:
    """Transform, shrink the detail levels, transform back.

    The scaling block always passes through untouched. For the mixture rule
    the spike weight and slab support are per level and the variance-prior
    rate is global, elicited from the finest level; the thresholding rules
    use one threshold across all detail levels. The result carries the
    elicited quantities as ``diagnostics``; see :func:`shrink_pyramid`.
    """
    cfg = elicitation or ElicitationConfig()
    empirical, [(samples, diagnostics, shrunk, _)] = _denoise_stack(
        y.samples, (rule,), cfg, wavelet_order)
    return Denoised(samples=samples, truth=y.truth, diagnostics=diagnostics,
                    empirical=empirical, shrunk=shrunk)


_FUNCTION_ORDER = tuple(TestFunctionKind)


@dataclass(frozen=True)
class StudyConfig:
    """Grid and protocol of one Monte-Carlo study."""

    functions: tuple[TestFunctionKind, ...]
    sizes: tuple[int, ...]
    snrs: tuple[float, ...]
    replications: int
    rules: tuple[RuleSpec, ...]
    elicitation: ElicitationConfig = field(default_factory=ElicitationConfig)
    wavelet_order: int = 10
    seed: int = 0
    target_sd: float = 7.0

    def __post_init__(self):
        if not self.functions:
            raise ConfigError("functions must not be empty")
        if not self.sizes:
            raise ConfigError("sizes must not be empty")
        for n in self.sizes:
            if n < 4 or n & (n - 1):
                raise ConfigError(f"size {n} is not a power of two >= 4")
        if not self.snrs or not all(0.0 < s < math.inf for s in self.snrs):
            raise ConfigError(f"snrs must be positive and finite, got {self.snrs}")
        if not 0.0 < self.target_sd < math.inf:
            raise ConfigError(f"target_sd must be positive and finite, got {self.target_sd}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not self.rules:
            raise ConfigError("rules must not be empty")

    def to_dict(self) -> dict:
        return {
            "functions": [f.value for f in self.functions],
            "sizes": list(self.sizes),
            "snrs": list(self.snrs),
            "replications": self.replications,
            "rules": [r.label for r in self.rules],
            "elicitation": {
                "gamma": self.elicitation.gamma,
                "l": self.elicitation.l,
                "c": self.elicitation.c,
                "tau": self.elicitation.tau,
                "sigma_estimator": self.elicitation.sigma_estimator.value,
                "coarse_level": self.elicitation.coarse_level,
            },
            "wavelet_order": self.wavelet_order,
            "seed": self.seed,
            "target_sd": self.target_sd,
        }


@dataclass
class CellResult:
    """Scores of one rule in one (function, n, snr) cell.

    wall_time_s is the rule's share of the time of the batch that computed
    the cell: the study denoises all draws of one (function, n) together,
    and a rule's time in that batch is its own copy, shrink and inverse
    plus a 1/len(rules) share of the shared forward transform, split evenly
    over the batch's cells (its SNRs). The noise draw and the MSE scoring belong
    to no rule and are not counted.
    """

    function: TestFunctionKind
    n: int
    snr: float
    rule: str
    amse: float
    mse_sd: float
    mse_samples: np.ndarray
    wall_time_s: float
    degenerate_sd: bool = False

    def to_dict(self) -> dict:
        return {
            "function": self.function.value,
            "n": self.n,
            "snr": self.snr,
            "rule": self.rule,
            "amse": self.amse,
            "mse_sd": self.mse_sd,
            "mse_samples": [float(v) for v in self.mse_samples],
            "wall_time_s": self.wall_time_s,
            "degenerate_sd": self.degenerate_sd,
        }


@dataclass
class StudyReport:
    config: StudyConfig
    cells: list[CellResult]

    def cell(self, function, n: int, snr: float, rule: str) -> CellResult:
        function = TestFunctionKind(function)
        for c in self.cells:
            if (c.function, c.n, c.rule) == (function, n, rule) and c.snr == snr:
                return c
        raise KeyError(f"no cell ({function.value}, {n}, {snr}, {rule})")

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(),
                "cells": [c.to_dict() for c in self.cells]}


def _noise_key(seed: int, function: TestFunctionKind, n: int, snr: float, rep: int):
    # snr keyed at nanodigit resolution so equal floats map to equal streams
    return (seed, _FUNCTION_ORDER.index(function), int(np.log2(n)),
            int(round(snr * 1e9)), rep)


def _cell_error(function, n, snr, rep: int, rule: str | None,
                exc: Exception) -> NumericError:
    """The error of a failed draw (rule None) or of a rule on that draw."""
    step = f"rule={rule}" if rule else "noise draw"
    return NumericError(f"cell (function={function.value}, n={n}, snr={snr}, "
                        f"rep={rep}) {step} failed: {exc}")


def _denoise_batch(config: StudyConfig, function, n: int, coords: list,
                   rows: np.ndarray) -> list:
    """The per-rule results of _denoise_stack on the draws of one
    (function, n); on a failure, names the first failing (row, rule) in
    the order of the draws."""
    try:
        return _denoise_stack(rows, config.rules, config.elicitation,
                              config.wavelet_order)[1]
    except Exception as exc:
        # rows are independent, so the failing ones fail alone as well
        for (snr, rep), row in zip(coords, rows):
            for rule in config.rules:
                try:
                    _denoise_stack(row, (rule,), config.elicitation,
                                   config.wavelet_order)
                except Exception as row_exc:
                    raise _cell_error(function, n, snr, rep, rule.label,
                                      row_exc) from row_exc
        raise NumericError(f"batch (function={function.value}, n={n}) failed: "
                           f"{exc}") from exc


def _score(config: StudyConfig, function, n: int, coords: list, truth: Signal,
           results: list) -> list[CellResult]:
    """The cells of one batch, SNR by SNR and rule by rule."""
    reps = config.replications
    with np.errstate(over="ignore"):
        scores = np.array([mse(estimates, truth.samples) for estimates, *_ in results])
        amse = scores.reshape(len(config.rules), len(config.snrs), reps).mean(axis=-1)
    bad = ~np.isfinite(scores)
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        rule = config.rules[int(np.argmax(bad[:, row]))]
        raise _cell_error(function, n, *coords[row], rule.label,
                          NumericError("the squared error overflows"))
    cells = []
    for k, snr in enumerate(config.snrs):
        for i, rule in enumerate(config.rules):
            vals = scores[i, k * reps:(k + 1) * reps]
            if not np.isfinite(amse[i, k]):  # only the sum overflowed
                amse[i, k] = vals.max() * np.mean(vals / vals.max())
            degenerate = vals.size < 2
            cells.append(CellResult(
                function=function,
                n=n,
                snr=snr,
                rule=rule.label,
                amse=float(amse[i, k]),
                mse_sd=0.0 if degenerate else scaled_std(vals, ddof=1),
                mse_samples=vals.copy(),
                wall_time_s=results[i][-1] / len(config.snrs),
                degenerate_sd=degenerate,
            ))
    return cells


def run_study(config: StudyConfig) -> StudyReport:
    """Run every cell of the grid and aggregate per-rule MSE samples.

    Each (function, n) is one batch: its len(snrs) x replications draws
    are stacked (about 8 * len(snrs) * replications * n bytes per array),
    transformed once, and shrunk and inverted once per rule. Deterministic
    given (config, seed): replication streams are derived from cell
    coordinates, not from execution order, and the aggregation order is
    fixed; each sample equals that of a denoise of its draw alone, bit for
    bit. A failure aborts the study with the coordinates of the first
    failing draw attached to the error.
    """
    cells: list[CellResult] = []
    for function in config.functions:
        for n in config.sizes:
            truth = generate_test_function(function, n, config.target_sd)
            coords = [(snr, rep) for snr in config.snrs
                      for rep in range(config.replications)]
            rows = np.empty((len(coords), n))
            for row, (snr, rep) in zip(rows, coords):
                key = _noise_key(config.seed, function, n, snr, rep)
                try:
                    row[:] = add_noise(truth, snr, key).samples
                except Exception as exc:
                    raise _cell_error(function, n, snr, rep, None, exc) from exc
            results = _denoise_batch(config, function, n, coords, rows)
            cells += _score(config, function, n, coords, truth, results)
    return StudyReport(config=config, cells=cells)


def benchmark_elicitation() -> ElicitationConfig:
    """Frozen hyperparameters of the reference benchmark protocol."""
    return ElicitationConfig(
        gamma=2.0, l=1.0, c=1.0, tau=2.0,
        sigma_estimator=SigmaEstimator.SAMPLE_SD, coarse_level=0,
    )


def _preset_smoke(seed: int) -> StudyConfig:
    return StudyConfig(
        functions=(TestFunctionKind.HEAVISINE,),
        sizes=(512,),
        snrs=(1.0,),
        replications=1,
        rules=(RuleSpec("esr"),),
        elicitation=benchmark_elicitation(),
        seed=seed,
    )


def _preset_heavisine_desk(seed: int) -> StudyConfig:
    return StudyConfig(
        functions=(TestFunctionKind.HEAVISINE,),
        sizes=(512, 1024, 2048),
        snrs=(1.0, 3.0),
        replications=100,
        rules=(RuleSpec("esr"), RuleSpec("soft")),
        elicitation=benchmark_elicitation(),
        seed=seed,
    )


def _preset_acceptance_desk(seed: int) -> StudyConfig:
    return StudyConfig(
        functions=(TestFunctionKind.BUMPS, TestFunctionKind.BLOCKS,
                   TestFunctionKind.DOPPLER, TestFunctionKind.HEAVISINE),
        sizes=(512, 1024, 2048),
        snrs=(0.2, 1.0, 3.0),
        replications=100,
        rules=(RuleSpec("esr"), RuleSpec("soft")),
        elicitation=benchmark_elicitation(),
        seed=seed,
    )


STUDY_PRESETS = {
    "smoke": _preset_smoke,
    "heavisine-desk": _preset_heavisine_desk,
    "acceptance-desk": _preset_acceptance_desk,
}


def study_preset(name: str, seed: int = 20250810) -> StudyConfig:
    """Named study configuration; see STUDY_PRESETS for the catalogue."""
    try:
        builder = STUDY_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(STUDY_PRESETS)}"
        ) from None
    return builder(seed)
