"""Denoising pipeline and the Monte-Carlo benchmark harness.

A study runs a grid of (test function x size x SNR) cells; within each
cell every replication draws one noisy signal and every rule under test
denoises that same draw (paired comparison), so rule contrasts are not
diluted by noise-stream differences. Noise streams are keyed by
(seed, function, size, snr, replication), which makes the whole report a
pure function of (config, seed) independent of execution order.

One pipeline serves both a single denoise and a study: it takes a stack of
signals, shape (R, n), and a tuple of rules, transforms the stack once and
elicits the slab supports and noise scales once; then it takes the rules
one at a time, each shrinking its own copy of the coefficients. Every step
works row by row, so each row comes out bit for bit as it would alone.
A denoise inverts the one shrunk pyramid it returns. A study never
inverts: the periodic transform is orthogonal, so the squared error of an
estimate equals that of its shrunk coefficients against the transform of
the truth (Parseval), and the study scores the coefficients. It runs the
pipeline once per n, on the draws of every function at that n,
function-major, in chunks of bounded size that may span functions; each
row is drawn and scored against its own function's truth, whose transform
is taken once per (function, n), and each rule's coefficients are scored
and dropped before the next rule runs. The slab supports take one pass per
chunk, and the noise and the scores one pass per function in a chunk, not
row by row or level by level.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .dwt import (
    MAX_ORDER,
    DaubechiesFilter,
    WaveletPyramid,
    dwt_forward,
    dwt_inverse,
    make_daubechies_filter,
)
from .elicitation import (
    ElicitationConfig,
    SigmaEstimator,
    alpha_level,
    beta_level,
    estimate_sigma,
    lambda_from_s,
)
from .errors import ConfigError, EpashrinkError, InputError, NumericError, numeric_guard
from .shrinkage import _esr_levels, _rate
from .signals import (
    Signal,
    TestFunctionKind,
    add_noise,
    generate_test_function,
    noise_rng,
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
# a study splits the draws of all functions at one n into chunks of whole
# rows holding at most this many samples, 8 MB per array of a chunk
_CHUNK = 2**20

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


def _slab_supports(pyramid: WaveletPyramid) -> np.ndarray:
    """The slab support of every detail level, shape (..., L): what
    beta_level gives each level, bit for bit, from one max and one min
    reduction over the packed detail span. An all-zero level goes to
    beta_level, which floors it and logs the floor. Raises InputError where
    a signal's largest detail coefficient is positive but subnormal: its
    noise-scale floor, relative to that coefficient, would underflow."""
    start = 2**pyramid.coarse_level
    span = pyramid.coeffs[..., start:]
    edges = [2**j - start for j in pyramid.levels()]
    betas = np.maximum(np.maximum.reduceat(span, edges, axis=-1),
                       -np.minimum.reduceat(span, edges, axis=-1))
    peak = betas.max(axis=-1)
    subnormal = (0.0 < peak) & (peak < np.finfo(float).tiny)
    if subnormal.any():
        raise InputError(f"the largest detail coefficient, {float(peak[subnormal][0])!r}, "
                         "is subnormal: rescale the signal into the normal range")
    zero = betas == 0.0
    if zero.any():
        for i, block in enumerate(pyramid.details.values()):
            if zero[..., i].any():
                betas[..., i] = beta_level(block)
    return betas


def _elicit(pyramid: WaveletPyramid, cfg: ElicitationConfig) -> tuple:
    """What every rule's shrink of a pyramid shares: the finiteness check,
    the slab supports (..., L) and the floored noise-scale estimates."""
    with numeric_guard("shrinkage"):
        if not np.isfinite(pyramid.coeffs).all():
            raise NumericError("wavelet coefficients are not finite")
        betas = _slab_supports(pyramid)
        floor = SIGMA_FLOOR * betas.max(axis=-1)
        finest = pyramid.coeffs[..., pyramid.n // 2:]
        sigma_hat = np.maximum(estimate_sigma(finest, cfg.sigma_estimator), floor)
    return betas, sigma_hat if sigma_hat.ndim else float(sigma_hat)


def shrink_pyramid(pyramid, rule: RuleSpec, elicitation: ElicitationConfig,
                   n_samples: int, *, elicited: tuple | None = None) -> dict:
    """Apply a rule to every detail level of a pyramid, in place.

    The scaling block is never touched. Returns the elicited quantities:
    the noise-scale estimate, per-level spike weight and slab support, and
    the global rate (mixture rule) or the threshold (hard/soft), all in the
    units of the coefficients. A non-finite coefficient or rate, or an
    overflow while eliciting or applying the rule, raises NumericError. A
    signal whose largest detail coefficient is positive but below the
    normal range (about 2.2e-308) raises InputError under every rule,
    before any floor is logged.

    The slab supports of all levels come from one pass over the detail
    span. The thresholds, which act element by element, shrink the whole
    detail span in one call. The pyramid may hold one signal (coefficients of
    shape (n,)) or a stack of R signals (shape (R, n)). Each row of a
    stack is elicited and shrunk on its own, bit for bit as it would be
    alone; its noise-scale estimate, slab supports and rate or universal
    threshold are then arrays of R values, while the spike weights and a
    fixed threshold stay numbers.
    The mixture rule gets plain arrays for all L levels: the spike weights
    of shape (L,), the slab supports of shape (R, L) and the rates
    a = sqrt(2 lambda) as a column of R values, each computed as
    sqrt(2 lambda sigma_hat^2) / sigma_hat. Its constants are computed
    once per shrink, and it runs in blocks of bounded size: the narrowest
    levels together, the longer ones in groups of rows or slices of a row.
    ``elicited``, the _elicit of these coefficients, lets rules that
    shrink copies of one pyramid share its checks, supports and estimates.
    """
    cfg = elicitation
    coeffs = pyramid.coeffs
    stacked = coeffs.ndim == 2
    if coeffs.ndim not in (1, 2):
        raise InputError(f"cannot shrink a pyramid of shape {coeffs.shape}")
    details = pyramid.details
    betas, sigma_hat = elicited or _elicit(pyramid, cfg)
    with numeric_guard("shrinkage"):
        levels = [{"level": j, "alpha": _clamped_alpha(j, cfg),
                   "beta": betas[..., i] if stacked else float(betas[i])}
                  for i, j in enumerate(details)]
        diagnostics: dict = {"sigma_hat": sigma_hat, "levels": levels}

        def column(values):
            """Per-row values as a column that broadcasts against the blocks."""
            return values[:, None] if stacked else values

        if rule.kind == "esr":
            lam = lambda_from_s(sigma_hat, cfg.c, cfg.tau)
            # c / tau overflows to inf in float arithmetic without raising;
            # an overflow of lambda * sigma_hat^2 raises below
            if not np.isfinite(lam).all():
                raise NumericError(f"lambda overflows at sigma_hat={sigma_hat!r}")
            diagnostics["lambda"] = lam
            # a = sqrt(2 lambda) per row, from lambda sigma_hat^2, the rate
            # of the coefficients over sigma_hat
            rate = _rate(lam * np.square(sigma_hat)) / sigma_hat
            _esr_levels(coeffs if stacked else coeffs[None],
                        [slice(2**j, 2**(j + 1)) for j in details],
                        np.array([level["alpha"] for level in levels]),
                        betas if stacked else betas[None], np.reshape(rate, (-1, 1)))
        else:
            eta = rule.threshold
            if eta is None:
                eta = universal_threshold(sigma_hat, n_samples)
            diagnostics["eta"] = eta
            if np.ndim(eta):
                eta = column(eta)
            threshold = hard_threshold if rule.kind == "hard" else soft_threshold
            span = coeffs[..., 2**pyramid.coarse_level:]
            span[...] = threshold(span, eta)
    return diagnostics


def _denoise_stack(rows: np.ndarray, rules: tuple[RuleSpec, ...],
                   elicitation: ElicitationConfig, filt: DaubechiesFilter) -> tuple:
    """The denoising pipeline on the signals in ``rows`` (shape (n,) or
    (R, n)): one forward transform and one _elicit, which all rules share,
    then the rules one at a time, each on its own copy of the coefficients:
    copy, shrink in place. Nothing is inverted here.

    Returns the forward pyramid and a generator that yields, rule by rule,
    (diagnostics, shrunk pyramid, seconds). A rule's copy is made only when
    the caller asks for that rule, and the generator keeps none of the
    previous rule's arrays, so a caller that scores each rule's
    coefficients and drops them first holds one rule's arrays at a time.
    seconds is the rule's own copy and shrink plus a 1/len(rules) share of
    the forward transform and the elicitation; what the caller does
    between rules is not counted.
    """
    t0 = time.perf_counter()
    empirical = dwt_forward(rows, filt, elicitation.coarse_level)
    elicited = _elicit(empirical, elicitation)
    share = (time.perf_counter() - t0) / len(rules)

    def each_rule():
        for rule in rules:
            t0 = time.perf_counter()
            shrunk = empirical.copy()
            diagnostics = shrink_pyramid(shrunk, rule, elicitation, empirical.n,
                                         elicited=elicited)
            yield diagnostics, shrunk, time.perf_counter() - t0 + share
            del shrunk

    return empirical, each_rule()


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
    filt = make_daubechies_filter(wavelet_order)
    empirical, each_rule = _denoise_stack(y.samples, (rule,), cfg, filt)
    [(diagnostics, shrunk, _)] = each_rule
    return Denoised(samples=dwt_inverse(shrunk, filt), truth=y.truth,
                    diagnostics=diagnostics, empirical=empirical, shrunk=shrunk)


_FUNCTION_ORDER = tuple(TestFunctionKind)


def _function_kind(value) -> TestFunctionKind:
    try:
        return TestFunctionKind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"unknown test function {value!r}; available: "
                          f"{[kind.value for kind in TestFunctionKind]}") from None


def _rule_spec(value) -> RuleSpec:
    if isinstance(value, RuleSpec):
        return value
    if isinstance(value, str):
        return RuleSpec.parse(value)
    raise ConfigError(f"a rule is a RuleSpec or its text, got {value!r}")


def _sequence(name: str, value):
    """value, checked to be a sequence field's sequence: a bare string or a
    value that cannot be iterated is a ConfigError naming the field."""
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise ConfigError(f"{name} takes a sequence, got {value!r}; "
                          f"for one value write ({value!r},)")
    return value


def _whole(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be a whole number, got {value!r}") from None


def _positive(value) -> bool:
    return isinstance(value, numbers.Real) and 0.0 < value < math.inf


@dataclass(frozen=True)
class StudyConfig:
    """Grid and protocol of one Monte-Carlo study.

    Every field is checked when the config is built. functions may name
    their kinds by value ("bumps") and rules by the text RuleSpec.parse
    reads ("esr", "soft:2.5"); both are stored as TestFunctionKind and
    RuleSpec. functions, sizes, snrs and rules each take a sequence, not a
    bare string or number. Any other function or rule, a size,
    replications, wavelet order or seed that is not a whole number, or an
    SNR or target SD that is not a positive, finite real number, raises
    ConfigError.
    """

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
        # function names become TestFunctionKind and rule texts RuleSpec,
        # so a study fails only where its draws or rules do
        fields = {"functions": tuple(map(_function_kind, _sequence("functions", self.functions))),
                  "rules": tuple(map(_rule_spec, _sequence("rules", self.rules))),
                  "sizes": tuple(_whole("size", n) for n in _sequence("sizes", self.sizes))}
        _sequence("snrs", self.snrs)
        for name in ("replications", "wavelet_order", "seed"):
            fields[name] = _whole(name, getattr(self, name))
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        if not self.functions:
            raise ConfigError("functions must not be empty")
        if not self.sizes:
            raise ConfigError("sizes must not be empty")
        for n in self.sizes:
            if n < 4 or n & (n - 1):
                raise ConfigError(f"size {n} is not a power of two >= 4")
        depth = min(self.sizes).bit_length() - 1
        if self.elicitation.coarse_level >= depth:
            raise ConfigError(
                f"coarse level (j0) {self.elicitation.coarse_level} must be below "
                f"log2 of the smallest size, {depth}")
        if not 1 <= self.wavelet_order <= MAX_ORDER:
            raise ConfigError(
                f"wavelet_order must be in 1..{MAX_ORDER}, got {self.wavelet_order}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.snrs or not all(map(_positive, self.snrs)):
            raise ConfigError(f"snrs must be positive and finite, got {self.snrs}")
        if not _positive(self.target_sd):
            raise ConfigError(f"target_sd must be positive and finite, got {self.target_sd}")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if not self.rules:
            raise ConfigError("rules must not be empty")

    def to_dict(self) -> dict:
        """The fields in order, for json: enums dump as their string values,
        rules as their labels."""
        return {**asdict(self), "rules": [r.label for r in self.rules]}


@dataclass
class CellResult:
    """Scores of one rule in one (function, n, snr) cell.

    mse_samples holds each draw's squared error, taken over the wavelet
    coefficients: the mean squared difference between the rule's shrunk
    coefficients and the transform of the truth. The transform is
    orthogonal, so this equals the time-domain MSE of the draw's estimate
    up to rounding (Parseval); no estimate is reconstructed.

    wall_time_s is the rule's share of the time of the batch that computed
    the cell: the study denoises the draws of all functions at one n
    together, and a rule's time in that batch is its own copy and shrink
    plus a 1/len(rules) share of the forward transform and the elicitation
    that all rules share, summed over the batch's chunks and split evenly
    over the batch's functions x SNRs. The noise draw and the scoring
    belong to no rule and are not counted.
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
        return {**asdict(self), "mse_samples": [float(v) for v in self.mse_samples]}


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
    # snr keyed at nanodigit resolution so equal floats map to equal streams;
    # where that overflows every double is a whole number, keyed exactly
    scaled = float(snr) * 1e9
    snr_key = int(round(scaled)) if math.isfinite(scaled) else int(snr) * 10**9
    return (seed, _FUNCTION_ORDER.index(function), int(np.log2(n)), snr_key, rep)


def _cell_error(function, n, snr, rep: int, rule: str | None,
                exc: Exception) -> NumericError:
    """The error of a failed draw (rule None) or of a rule on that draw."""
    step = f"rule={rule}" if rule else "noise draw"
    return NumericError(f"cell (function={function.value}, n={n}, snr={snr}, "
                        f"rep={rep}) {step} failed: {exc}")


class _Draws(NamedTuple):
    """Draws of one function at one n, in row order: the function, its
    truth, the truth's wavelet coefficients, which the draws are scored
    against, the truth's SD and each draw's (snr, rep)."""

    function: TestFunctionKind
    truth: Signal
    coeffs: np.ndarray
    sd: float
    coords: list


def _truth_coeffs(truth: Signal, filt: DaubechiesFilter, coarse_level: int) -> np.ndarray:
    """The coefficients of the truth's forward transform. A truth so large
    that its transform overflows gets infinite coefficients: its draws
    overflow the transform as well and fail their rules first, and
    otherwise every score against it overflows."""
    try:
        return dwt_forward(truth.samples, filt, coarse_level).coeffs
    except NumericError:
        return np.full(truth.n, np.inf)


def _row_coords(parts: list) -> list:
    """(function, (snr, rep)) of every row of the draws in parts, part
    after part."""
    return [(part.function, c) for part in parts for c in part.coords]


def _noisy_rows(config: StudyConfig, parts: list) -> np.ndarray:
    """The noisy draws of parts, a list of _Draws, one row each, part after
    part: the row of a part's draw at (snr, rep) is
    add_noise(truth, snr, key).samples bit for bit, the same f + sigma * eps
    with sigma = sd / snr, sd being the part's truth's SD. Each row's eps
    is drawn in place from its own stream; the scaling and the sum are one
    call each per part. A draw that add_noise would reject (a constant
    truth, or a noise scale or sample that overflows) is drawn again by
    add_noise, whose error names the first one with its cell."""
    n = parts[0].truth.n
    rows = np.empty((sum(len(part.coords) for part in parts), n))
    start = 0
    for part in parts:
        block = rows[start:start + len(part.coords)]
        start += len(part.coords)
        for row, (snr, rep) in zip(block, part.coords):
            key = _noise_key(config.seed, part.function, n, snr, rep)
            noise_rng(key).standard_normal(out=row)
        with np.errstate(over="ignore", invalid="ignore"):
            block *= part.sd / np.array([[snr] for snr, _ in part.coords])
            block += part.truth.samples
        # an overflowing sigma or sample leaves its row non-finite
        if part.sd == 0.0 or not np.isfinite(block).all():
            for (snr, rep), row in zip(part.coords, block):
                if part.sd == 0.0 or not np.isfinite(row).all():
                    try:
                        add_noise(part.truth, snr,
                                  _noise_key(config.seed, part.function, n, snr, rep))
                    except Exception as exc:
                        raise _cell_error(part.function, n, snr, rep, None, exc) from exc
    return rows


def _score_chunk(config: StudyConfig, n: int, parts: list, scores: np.ndarray,
                 seconds: list) -> None:
    """Draw, denoise and score the draws of one chunk, given as parts: rule
    i's squared error of every row, its shrunk coefficients against the
    row's own truth's, goes to scores[i] and its seconds are added to
    seconds[i]. The draws are dropped once transformed, and each rule's
    coefficients once scored, before the next rule's copy is made. A
    failing noise draw fails first; then the first failing (row, rule) in
    row order, and last the first overflowing score."""
    filt = make_daubechies_filter(config.wavelet_order)
    rows = _noisy_rows(config, parts)
    try:
        _, each_rule = _denoise_stack(rows, config.rules, config.elicitation, filt)
        del rows  # a failure draws them again
        # not enumerate, whose result tuple would keep the previous rule's
        # arrays while the next rule runs
        for i in range(len(config.rules)):
            _, shrunk, rule_seconds = next(each_rule)
            seconds[i] += rule_seconds
            start = 0
            with np.errstate(over="ignore"):
                for part in parts:
                    stop = start + len(part.coords)
                    scores[i, start:stop] = mse(shrunk.coeffs[start:stop], part.coeffs)
                    start = stop
            del _, shrunk  # this rule's diagnostics and coefficients
    except Exception as exc:
        # rows are independent, so the failing ones fail alone as well
        for (function, (snr, rep)), row in zip(_row_coords(parts),
                                                _noisy_rows(config, parts)):
            for rule in config.rules:
                try:
                    list(_denoise_stack(row, (rule,), config.elicitation, filt)[1])
                except Exception as row_exc:
                    raise _cell_error(function, n, snr, rep, rule.label,
                                      row_exc) from row_exc
        names = ", ".join(part.function.value for part in parts)
        raise NumericError(f"batch (function={names}, n={n}) failed: {exc}") from exc
    bad = ~np.isfinite(scores)
    if bad.any():
        row = int(np.argmax(bad.any(axis=0)))
        rule = config.rules[int(np.argmax(bad[:, row]))]
        function, (snr, rep) = _row_coords(parts)[row]
        raise _cell_error(function, n, snr, rep, rule.label,
                          NumericError("the squared error overflows"))


def _cells(config: StudyConfig, function, n: int, scores: np.ndarray,
           seconds: list) -> list[CellResult]:
    """The cells of one (function, n), SNR by SNR and rule by rule, from
    its scores (rules, draws) and each rule's seconds."""
    reps = config.replications
    by_cell = scores.reshape(len(config.rules), len(config.snrs), reps)
    with np.errstate(over="ignore"):
        amse = by_cell.mean(axis=-1)
    degenerate = reps < 2
    sd = np.zeros(amse.shape) if degenerate else scaled_std(by_cell, ddof=1, axis=-1)
    cells = []
    for k, snr in enumerate(config.snrs):
        for i, rule in enumerate(config.rules):
            vals = by_cell[i, k]
            if not np.isfinite(amse[i, k]):  # only the sum overflowed
                amse[i, k] = vals.max() * np.mean(vals / vals.max())
            cells.append(CellResult(
                function=function,
                n=n,
                snr=snr,
                rule=rule.label,
                amse=float(amse[i, k]),
                mse_sd=float(sd[i, k]),
                mse_samples=vals.copy(),
                wall_time_s=seconds[i] / len(config.snrs),
                degenerate_sd=degenerate,
            ))
    return cells


def _study_pass(config: StudyConfig, n: int, functions: tuple) -> dict:
    """One batch of the draws of every function in functions at n, in
    chunks, each function's truth transformed once; maps each function to
    its scores, shape (rules, len(snrs) x replications), and each rule's
    seconds, the batch's split evenly over the functions."""
    coords = [(snr, rep) for snr in config.snrs for rep in range(config.replications)]
    filt = make_daubechies_filter(config.wavelet_order)
    draws = []
    for function in functions:
        truth = generate_test_function(function, n, config.target_sd)
        draws.append(_Draws(function, truth,
                            _truth_coeffs(truth, filt, config.elicitation.coarse_level),
                            scaled_std(truth.samples), coords))
    rows = [(k, c) for k in range(len(draws)) for c in coords]
    scores = np.empty((len(config.rules), len(rows)))
    seconds = [0.0] * len(config.rules)
    step = max(1, _CHUNK // n)
    for start in range(0, len(rows), step):
        parts = [draws[k]._replace(coords=[c for _, c in group]) for k, group
                 in itertools.groupby(rows[start:start + step], key=operator.itemgetter(0))]
        _score_chunk(config, n, parts, scores[:, start:start + step], seconds)
    per = len(coords)
    return {d.function: (scores[:, k * per:(k + 1) * per],
                         [total / len(draws) for total in seconds])
            for k, d in enumerate(draws)}


def run_study(config: StudyConfig) -> StudyReport:
    """Run every cell of the grid and aggregate per-rule MSE samples.

    Each n is one batch: the len(snrs) x replications draws of every
    function at that n, function-major, each row with its own function's
    truth and SD for the noise and the scoring. The draws are stacked in
    chunks of whole rows of at most _CHUNK samples (8 MB per array), so a
    chunk may hold the draws of more than one function (acceptance-desk's
    1200 draws at n = 2048 make 3 chunks). Each chunk is
    transformed and elicited once, so an all-zero level's beta floor is
    logged once per chunk; then each rule in turn shrinks a copy and
    scores it against the transform of its row's truth, taken once per
    (function, n), and the copy is dropped before the next rule's. Nothing
    is inverted. CellResult says what a sample is and how wall_time_s is
    shared out. The cells are cut back out per (function, n) and returned
    function by function, size by size; a function or size listed twice is
    computed once and reported twice, each report with half its time.

    Deterministic given (config, seed): replication streams are derived
    from cell coordinates, not from execution order, and the aggregation
    order is fixed. Each sample is a squared error in the coefficient
    domain: mse(denoise(draw).shrunk.coeffs, dwt_forward(truth).coeffs)
    of a denoise of its draw alone, bit for bit, which equals the
    time-domain mse of that denoise up to rounding (Parseval). A failure
    aborts the study with the error that a batch per (function, n), run
    function by function and size by size, meets first: the coordinates of
    the first failing draw, where within one chunk a noise draw fails
    before a rule and a rule before the scoring. When a batch fails, the
    (function, n) not yet computed are run one by one in that order to
    find it.
    """
    functions = tuple(dict.fromkeys(config.functions))
    sizes = tuple(dict.fromkeys(config.sizes))
    results = {}
    for k, n in enumerate(sizes):
        try:
            for function, result in _study_pass(config, n, functions).items():
                results[function, n] = result
        except EpashrinkError as exc:
            error = exc
            break
    else:
        cells = []
        for function in config.functions:
            for n in config.sizes:
                scores, seconds = results[function, n]
                # a pair listed more than once splits its time between its reports
                repeats = config.functions.count(function) * config.sizes.count(n)
                cells += _cells(config, function, n, scores, [t / repeats for t in seconds])
        return StudyReport(config=config, cells=cells)
    for function in functions:
        for n in sizes[k:]:
            _study_pass(config, n, (function,))
    raise error


def benchmark_elicitation() -> ElicitationConfig:
    """Frozen hyperparameters of the reference benchmark protocol."""
    return ElicitationConfig(
        gamma=2.0, l=1.0, c=1.0, tau=2.0,
        sigma_estimator=SigmaEstimator.SAMPLE_SD, coarse_level=0,
    )


# the grid of each named study; every preset runs it under
# benchmark_elicitation() and the default wavelet order and target SD
STUDY_PRESETS = {
    "smoke": dict(
        functions=(TestFunctionKind.HEAVISINE,),
        sizes=(512,),
        snrs=(1.0,),
        replications=1,
        rules=(RuleSpec("esr"),),
    ),
    "heavisine-desk": dict(
        functions=(TestFunctionKind.HEAVISINE,),
        sizes=(512, 1024, 2048),
        snrs=(1.0, 3.0),
        replications=100,
        rules=(RuleSpec("esr"), RuleSpec("soft")),
    ),
    "acceptance-desk": dict(
        functions=(TestFunctionKind.BUMPS, TestFunctionKind.BLOCKS,
                   TestFunctionKind.DOPPLER, TestFunctionKind.HEAVISINE),
        sizes=(512, 1024, 2048),
        snrs=(0.2, 1.0, 3.0),
        replications=100,
        rules=(RuleSpec("esr"), RuleSpec("soft")),
    ),
}


def study_preset(name: str, seed: int = 20250810) -> StudyConfig:
    """The study of a named grid in STUDY_PRESETS, run under
    benchmark_elicitation() with the given seed."""
    try:
        grid = STUDY_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(STUDY_PRESETS)}"
        ) from None
    return StudyConfig(**grid, elicitation=benchmark_elicitation(), seed=seed)
