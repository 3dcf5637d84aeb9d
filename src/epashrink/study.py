"""Denoising pipeline and the Monte-Carlo benchmark harness.

A study runs a grid of (test function x size x SNR) cells; within each
cell every replication draws one noisy signal and every rule under test
denoises that same draw (paired comparison), so rule contrasts are not
diluted by noise-stream differences. Noise streams are keyed by
(seed, function, size, snr, replication), which makes the whole report a
pure function of (config, seed) independent of execution order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dwt import dwt_forward, dwt_inverse, make_daubechies_filter
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
from .signals import Signal, TestFunctionKind, add_noise, generate_test_function
from .thresholds import hard_threshold, soft_threshold, universal_threshold

# spike weights are clamped into the open unit interval; the lower clamp
# covers level J0 under the l=1 benchmark preset, where the level formula
# lands exactly on 0 (the pure-slab limit of the rule)
ALPHA_MIN = 1e-12
ALPHA_MAX = 1.0 - 1e-15
# noise-scale floor: keeps lambda finite when the finest level is exactly 0
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


def mse(estimate, truth) -> float:
    """Mean squared pointwise difference between two equal-length signals."""
    a = np.asarray(getattr(estimate, "samples", estimate), dtype=float)
    b = np.asarray(getattr(truth, "samples", truth), dtype=float)
    if a.shape != b.shape:
        raise InputError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


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
    the global rate (mixture rule) or the threshold (hard/soft). A
    non-finite coefficient, or an overflow while eliciting or applying the
    rule, raises NumericError.
    """
    cfg = elicitation
    with numeric_guard("shrinkage"):
        for block in (pyramid.scaling, *pyramid.details.values()):
            if not np.isfinite(block).all():
                raise NumericError("wavelet coefficients are not finite")
        finest = pyramid.details[pyramid.depth - 1]
        sigma_hat = max(estimate_sigma(finest, cfg.sigma_estimator), SIGMA_FLOOR)
        levels: list[dict] = []
        diagnostics: dict = {"sigma_hat": sigma_hat, "levels": levels}
        if rule.kind == "esr":
            lam = diagnostics["lambda"] = lambda_from_s(sigma_hat, cfg.c, cfg.tau)
        else:
            eta = rule.threshold
            if eta is None:
                eta = universal_threshold(sigma_hat, n_samples)
            diagnostics["eta"] = eta
            threshold = hard_threshold if rule.kind == "hard" else soft_threshold
        for j in pyramid.levels():
            block = pyramid.details[j]
            alpha, beta = _clamped_alpha(j, cfg), beta_level(block)
            levels.append({"level": j, "alpha": alpha, "beta": beta})
            if rule.kind == "esr":
                pyramid.details[j] = esr(block, MixturePriorParams(alpha, beta, lam))
            else:
                pyramid.details[j] = threshold(block, eta)
    return diagnostics


@dataclass
class Denoised(Signal):
    """Result of :func:`denoise`: the estimate, the input's truth, and the
    diagnostics dict that :func:`shrink_pyramid` returned for it."""

    diagnostics: dict = field(default_factory=dict)


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
    filt = make_daubechies_filter(wavelet_order)
    pyramid = dwt_forward(y.samples, filt, cfg.coarse_level)
    diagnostics = shrink_pyramid(pyramid, rule, cfg, y.n)
    return Denoised(samples=dwt_inverse(pyramid, filt), truth=y.truth,
                    diagnostics=diagnostics)


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
        if not self.snrs or any(s <= 0 for s in self.snrs):
            raise ConfigError("snrs must be positive")
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

    wall_time_s is the time spent in this rule's denoise calls, summed over
    the replications. The noise draw that all rules share and the MSE
    scoring belong to no rule and are not counted.
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


def run_study(config: StudyConfig) -> StudyReport:
    """Run every cell of the grid and aggregate per-rule MSE samples.

    Deterministic given (config, seed): replication streams are derived
    from cell coordinates, not from execution order, and the aggregation
    order is fixed. A failure in any cell aborts the study with the cell
    coordinates attached to the error.
    """
    cells: list[CellResult] = []
    for function in config.functions:
        for n in config.sizes:
            truth = generate_test_function(function, n, config.target_sd)
            for snr in config.snrs:
                samples = {rule.label: np.empty(config.replications)
                           for rule in config.rules}
                elapsed = dict.fromkeys(samples, 0.0)
                for rep in range(config.replications):
                    key = _noise_key(config.seed, function, n, snr, rep)
                    noisy = add_noise(truth, snr, key)
                    for rule in config.rules:
                        t0 = time.perf_counter()
                        try:
                            out = denoise(noisy, rule, config.elicitation,
                                          config.wavelet_order)
                        except Exception as exc:
                            raise NumericError(
                                f"cell (function={function.value}, n={n}, "
                                f"snr={snr}, rule={rule.label}, rep={rep}) "
                                f"failed: {exc}"
                            ) from exc
                        elapsed[rule.label] += time.perf_counter() - t0
                        samples[rule.label][rep] = mse(out.samples, truth.samples)
                for rule in config.rules:
                    vals = samples[rule.label]
                    degenerate = vals.size < 2
                    cells.append(CellResult(
                        function=function,
                        n=n,
                        snr=snr,
                        rule=rule.label,
                        amse=float(np.mean(vals)),
                        mse_sd=0.0 if degenerate else float(np.std(vals, ddof=1)),
                        mse_samples=vals.copy(),
                        wall_time_s=elapsed[rule.label],
                        degenerate_sd=degenerate,
                    ))
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
