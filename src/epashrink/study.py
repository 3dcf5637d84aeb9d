"""Denoising pipeline and the Monte-Carlo benchmark harness.

A study runs a grid of (test function x size x SNR) cells; within each
cell every replication draws one noisy signal and every rule under test
denoises that same draw (paired comparison), so rule contrasts are not
diluted by noise-stream differences. Noise streams are keyed by
(seed, function, size, snr, replication), which makes the whole report a
pure function of (config, seed) independent of execution order.

One pipeline serves both a single denoise and a study: it takes a stack of
signals, shape (R, n), and a tuple of rules, and transforms the stack
once. It elicits what no rule changes once for all rules: the finiteness
check, the slab supports of all levels in one pass and the noise scale of
each row. Then it takes the rules one at a time in one work array:
each rule copies the coefficients into it and shrinks them there, the
thresholds writing through their out=. Every step works row by row, so
each row comes out bit for bit as it would alone. A denoise inverts the
one shrunk pyramid it returns. A study never inverts: the periodic
transform is orthogonal, so the squared error of an estimate equals that
of its shrunk coefficients against the transform of the truth
(Parseval), and the study scores the coefficients.

A study runs the pipeline once per n, on the draws of every function at
that n, row by row (function, then SNR, then replication), each row drawn
and scored against its own function's truth; it fails in the same order,
with the error of the first row that fails alone. The draws are stacked in
chunks of whole rows of at most _CHUNK samples, which may span functions:
acceptance-desk's 1200 draws per n make 2 chunks at n = 512, 3 at 1024 and
5 at 2048. The draws are dead
once transformed, so their array is the chunk's work array: each rule's
coefficients are copied into it, shrunk there and scored there in place,
with no array of the chunk's size made per rule. A chunk's noise streams
are keyed in one pass that reproduces numpy's SeedSequence hash
(signals._seed_states), and one Philox, re-keyed for each row through its
state setter, draws each row in place; so every stream is noise_rng's bit
for bit, without a SeedSequence, Philox or Generator per row. The scaling
of the noise and the scores take one pass per function in a chunk, not
row by row or level by level. A row's function, SNR and replication
follow from its index (_row). The truths of all functions at one n, their
transforms and SDs are one stack, generated and transformed at once and
memoised per process (_truths), and the cells of all functions at one n
come from one mean and one SD reduction (_cells).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import asdict, dataclass, field

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
    BETA_FLOOR,
    ElicitationConfig,
    SigmaEstimator,
    alpha_level,
    estimate_sigma,
    lambda_from_s,
)
from .errors import (ConfigError, InputError, NumericError, _member, _real,
                     _scale, _whole, numeric_guard)
from .shrinkage import _esr_levels, _rate
from .signals import (
    Signal,
    TestFunctionKind,
    _seed_states,
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
# a study splits the draws of all functions at one n into chunks of whole
# rows holding at most this many samples, 4 MiB per array of a chunk:
# half the memory of 2**20, and faster than 2**18, whose 2 MiB arrays fall
# below the 4 MiB from which numpy asks the kernel for huge pages, and so
# are faulted in 4 KiB at a time, chunk after chunk
_CHUNK = 2**19
# a process keeps this many truth stacks (_truths), each of at most 4
# distinct functions at 16n bytes of samples and coefficients per function:
# at most 256n bytes at a largest size n, 4.2 MB at n = 16384. study-desk's
# 3 stacks, at n = 512, 1024 and 2048, hold 0.23 MB
_TRUTHS = 4

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
    threshold is either a fixed value or None for the universal policy
    sigma_hat * sqrt(2 ln n). A fixed value is a real number >= 0, inf
    included, stored as a Python float; any other is a ConfigError.
    """

    kind: str
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in ("esr", "hard", "soft"):
            raise ConfigError(f"unknown rule kind {self.kind!r}")
        if self.kind == "esr" and self.threshold is not None:
            raise ConfigError("the esr rule takes no threshold")
        if self.threshold is not None:
            object.__setattr__(self, "threshold", _real(
                "threshold", self.threshold, "must be >= 0", lambda eta: eta >= 0.0))

    @property
    def label(self) -> str:
        """The text parse reads back as this rule: a threshold in %g form
        where that is the same number, else its repr."""
        if self.kind == "esr":
            return "esr"
        if self.threshold is None:
            return f"{self.kind}-universal"
        eta = self.threshold
        text = f"{eta:g}"
        return f"{self.kind}:{text if float(text) == eta else repr(eta)}"

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
    reduction over the packed detail span, an all-zero level floored at
    BETA_FLOOR. Raises InputError where a signal's largest detail
    coefficient is positive but subnormal: its noise-scale floor, relative
    to that coefficient, would underflow."""
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
    betas[betas == 0.0] = BETA_FLOOR
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
    normal range (about 2.2e-308) raises InputError under every rule.

    Every floor and clamp shows only as the value it leaves here: an
    all-zero level's slab support is BETA_FLOOR, the noise-scale estimate
    at least SIGMA_FLOOR times the largest detail coefficient and a spike
    weight within [ALPHA_MIN, ALPHA_MAX].

    The slab supports of all levels come from one pass over the detail
    span. The thresholds, which act element by element, shrink whole rows
    in place in one call (out=), and the scaling block is put back. The
    pyramid may hold one signal (coefficients of shape (n,)) or a stack of
    R signals (shape (R, n)). Each row of a
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
            # whole rows, which numpy runs as one contiguous loop where it
            # takes the detail span row by row; the scaling block, which no
            # rule touches, is put back
            scaling = pyramid.scaling.copy()
            threshold(coeffs, eta, out=coeffs)
            pyramid.scaling[...] = scaling
    return diagnostics


def _denoise_stack(rows: np.ndarray, rules: tuple[RuleSpec, ...],
                   elicitation: ElicitationConfig, filt: DaubechiesFilter,
                   work: np.ndarray | None = None) -> tuple:
    """The denoising pipeline on the signals in ``rows`` (shape (n,) or
    (R, n)): one forward transform and one _elicit, which all rules share,
    then the rules one at a time, all in one work array of the shape of
    rows: each rule copies the coefficients into it (np.copyto) and shrinks
    them there. Nothing is inverted here.

    ``work`` is that array, or None for a fresh one. It may be rows
    itself, which are dead once transformed: nothing is written to it
    before the transform is done.

    Returns the forward pyramid and a generator that yields, rule by rule,
    (diagnostics, shrunk pyramid, seconds). The shrunk pyramid is a view of
    the work array, so it is valid only until the caller asks for the next
    rule; a caller may write into it, to score it in place. A rule's copy
    is made only when the caller asks for that rule. seconds is the rule's
    own copy and shrink plus a 1/len(rules) share of the forward transform
    and the elicitation; what the caller does between rules is not
    counted.
    """
    t0 = time.perf_counter()
    empirical = dwt_forward(rows, filt, elicitation.coarse_level)
    elicited = _elicit(empirical, elicitation)
    shrunk = WaveletPyramid(empirical.coarse_level, np.empty_like(empirical.coeffs)
                            if work is None else work)
    share = (time.perf_counter() - t0) / len(rules)

    def each_rule():
        for rule in rules:
            t0 = time.perf_counter()
            np.copyto(shrunk.coeffs, empirical.coeffs)
            diagnostics = shrink_pyramid(shrunk, rule, elicitation, empirical.n,
                                         elicited=elicited)
            yield diagnostics, shrunk, time.perf_counter() - t0 + share

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


_FUNCTION_INDEX = {kind: i for i, kind in enumerate(TestFunctionKind)}


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


@dataclass(frozen=True)
class StudyConfig:
    """Grid and protocol of one Monte-Carlo study.

    Every field is checked when the config is built. functions may name
    their kinds by value ("bumps") and rules by the text RuleSpec.parse
    reads ("esr", "soft:2.5"); both are stored as TestFunctionKind and
    RuleSpec. functions, sizes, snrs and rules each take a sequence, not a
    bare string or number, and are stored as tuples, and each lists every
    value once: a value listed twice, once names and rule texts are
    normalised ("bumps" and TestFunctionKind.BUMPS, "soft" and
    "soft-universal"), raises ConfigError naming the field. Any other
    function or rule, a size, replications, wavelet order or seed that is
    not a whole number, an SNR or target SD that is not a positive, finite
    real number, or an elicitation that is not an ElicitationConfig raises
    ConfigError naming the field. SNRs and the target SD are stored as
    Python floats, so a numpy scalar scales as the equal float does and the
    config dumps to json as given.
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
        fields = {"functions": tuple(_member(TestFunctionKind, "test function", f)
                                     for f in _sequence("functions", self.functions)),
                  "rules": tuple(map(_rule_spec, _sequence("rules", self.rules))),
                  "sizes": tuple(_whole("size", n) for n in _sequence("sizes", self.sizes)),
                  "snrs": tuple(_scale("snrs", snr) for snr in _sequence("snrs", self.snrs)),
                  "target_sd": _scale("target_sd", self.target_sd)}
        for name in ("replications", "wavelet_order", "seed"):
            fields[name] = _whole(name, getattr(self, name))
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        for name in ("functions", "sizes", "snrs", "rules"):
            values = getattr(self, name)
            for i, value in enumerate(values):
                if value in values[:i]:
                    shown = value.label if name == "rules" else getattr(value, "value", value)
                    raise ConfigError(f"{name} lists {shown} more than once")
        if not self.functions:
            raise ConfigError("functions must not be empty")
        if not self.sizes:
            raise ConfigError("sizes must not be empty")
        for n in self.sizes:
            if n < 4 or n & (n - 1):
                raise ConfigError(f"size {n} is not a power of two >= 4")
        if not isinstance(self.elicitation, ElicitationConfig):
            raise ConfigError(f"elicitation must be an ElicitationConfig, "
                              f"got {self.elicitation!r}")
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
        if not self.snrs:
            raise ConfigError("snrs must not be empty")
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
    over the batch's functions x SNRs. A rule's own part is the np.copyto
    of the coefficients into the chunk's work array and the shrink there.
    The noise draw and the scoring belong to no rule and are not counted.
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
        """The cell of (function, n, snr, rule), the function by member or
        name; KeyError if the report has none."""
        for c in self.cells:
            if (c.function, c.n, c.snr, c.rule) == (function, n, snr, rule):
                return c
        raise KeyError(f"no cell ({getattr(function, 'value', function)}, {n}, {snr}, {rule})")

    def to_dict(self) -> dict:
        return {"config": self.config.to_dict(),
                "cells": [c.to_dict() for c in self.cells]}


def _noise_key(seed: int, function: TestFunctionKind, n: int, snr: float, rep: int):
    # snr keyed at nanodigit resolution so equal floats map to equal streams;
    # where that overflows every double is a whole number, keyed exactly
    scaled = float(snr) * 1e9
    snr_key = int(round(scaled)) if math.isfinite(scaled) else int(snr) * 10**9
    return (seed, _FUNCTION_INDEX[function], n.bit_length() - 1, snr_key, rep)


def _cell_error(function, n, snr, rep: int, rule: str | None,
                exc: Exception) -> NumericError:
    """The error of a failed draw (rule None) or of a rule on that draw."""
    step = f"rule={rule}" if rule else "noise draw"
    return NumericError(f"cell (function={function.value}, n={n}, snr={snr}, "
                        f"rep={rep}) {step} failed: {exc}")


def _truth_coeffs(samples: np.ndarray, filt: DaubechiesFilter, coarse_level: int) -> np.ndarray:
    """The coefficients of the truth's forward transform. A truth so large
    that its transform overflows gets infinite coefficients: its draws
    overflow the transform as well and fail their rules first, and
    otherwise every score against it overflows."""
    try:
        return dwt_forward(samples, filt, coarse_level).coeffs
    except NumericError:
        return np.full(samples.size, np.inf)


@functools.lru_cache(maxsize=_TRUTHS)
def _truths(functions: tuple, n: int, target_sd, wavelet_order: int,
            coarse_level: int) -> tuple:
    """The truths of functions at n as one stack: their samples (F, n), the
    coefficients of their forward transforms (F, n), both read-only, and
    their SDs as a tuple. The stack is transformed and its SDs taken at
    once, each row as it would be alone; if the stack's transform
    overflows, each truth is transformed alone (_truth_coeffs). The last
    _TRUTHS stacks used are memoised per process. An error is not
    memoised: a target_sd whose samples overflow raises its DomainError
    every call."""
    filt = make_daubechies_filter(wavelet_order)
    samples = np.array([generate_test_function(function, n, target_sd).samples
                        for function in functions])
    try:
        coeffs = dwt_forward(samples, filt, coarse_level).coeffs
    except NumericError:
        coeffs = np.array([_truth_coeffs(row, filt, coarse_level) for row in samples])
    samples.flags.writeable = coeffs.flags.writeable = False
    return samples, coeffs, tuple(scaled_std(samples, axis=-1).tolist())


def _row(config: StudyConfig, i: int) -> tuple:
    """(k, snr, rep) of row i of a batch: its function's place k in the
    batch's functions, its SNR and its replication. Rows are
    function-major, len(snrs) x replications of them per function, and
    SNR-major within a function."""
    k, rest = divmod(i, len(config.snrs) * config.replications)
    s, rep = divmod(rest, config.replications)
    return k, config.snrs[s], rep


def _parts(config: StudyConfig, rows: range):
    """(k, part) for each function k with rows in the chunk rows: part is
    the slice of the chunk that holds them."""
    per = len(config.snrs) * config.replications
    for k in range(rows.start // per, (rows.stop - 1) // per + 1):
        yield k, slice(max(rows.start, k * per) - rows.start,
                       min(rows.stop, (k + 1) * per) - rows.start)


def _draw_eps(keys: list, rows: np.ndarray) -> None:
    """Fill row i of rows with the standard normals that noise_rng(keys[i])
    draws first, bit for bit: the keys are hashed in one pass
    (_seed_states), and one Philox is re-keyed for each row, counter 0 and
    nothing buffered, as noise_rng's starts."""
    bitgen = np.random.Philox(0)
    draw = np.random.Generator(bitgen).standard_normal
    state = bitgen.state  # a fresh stream's: counter 0, an empty buffer
    for key, row in zip(_seed_states(keys), rows):
        state["state"]["key"] = key
        bitgen.state = state
        draw(out=row)


def _noisy_rows(config: StudyConfig, truths: tuple, rows: range) -> np.ndarray:
    """The noisy draws of the batch rows in rows, one row each, given the
    _truths of config.functions at one n: the draw of a row of function k
    at (snr, rep) (_row) is f + sigma * eps with sigma = sd / snr, f and sd
    being truth k's samples and SD, add_noise(Signal(truth), snr,
    key).samples bit for bit wherever add_noise accepts it. Every row's eps
    comes from its own key's stream, noise_rng's bit for bit, the keys of
    all rows hashed in one pass and each row drawn in place (_draw_eps); the
    scaling and the sum are one call each per function. A draw that
    add_noise would reject (a constant truth, or a noise scale or sample
    that overflows) is returned as computed, noiseless or not finite:
    _score_chunk finds it."""
    samples, _, sds = truths
    n = samples.shape[-1]
    coords = [_row(config, i) for i in rows]
    out = np.empty((len(rows), n))
    _draw_eps([_noise_key(config.seed, config.functions[k], n, snr, rep)
               for k, snr, rep in coords], out)
    for k, part in _parts(config, rows):
        block = out[part]
        with np.errstate(over="ignore", invalid="ignore"):
            block *= sds[k] / np.array([[snr] for _, snr, _ in coords[part]])
            block += samples[k]
    return out


def _score_chunk(config: StudyConfig, truths: tuple, rows: range,
                 scores: np.ndarray, seconds: list) -> None:
    """Draw, denoise and score the batch rows in rows, given the _truths of
    config.functions at one n: rule i's squared error of every row, its
    shrunk coefficients against the row's own truth's, goes to scores[i]
    and its seconds are added to seconds[i]. The draws are dead once
    transformed, so their array is every rule's work array: each rule
    copies the coefficients into it, shrinks them there and is scored
    there, in place, with what mse computes, bit for bit.

    A draw that add_noise would reject, a failing pipeline or a score that
    is not finite fails the chunk. Its rows are then run again one at a
    time, in run order: each row's draw (_noisy_rows), which fails as
    add_noise fails it, then each rule in turn, through _denoise_stack and
    scored with mse. The first row that fails alone raises its own
    _cell_error, so the error does not depend on how the rows are chunked;
    a chunk in which no row fails alone raises a batch error."""
    samples, coeffs, sds = truths
    n = coeffs.shape[-1]
    parts = list(_parts(config, rows))
    filt = make_daubechies_filter(config.wavelet_order)
    draws = _noisy_rows(config, truths, rows)
    try:
        if not all(sds[k] for k, _ in parts) or not np.isfinite(draws).all():
            raise NumericError("a noise draw is not finite or has a constant truth")
        # the rules write over the draws; a failure draws them again
        _, each_rule = _denoise_stack(draws, config.rules, config.elicitation, filt,
                                      work=draws)
        for i, (_, shrunk, rule_seconds) in enumerate(each_rule):
            seconds[i] += rule_seconds
            with np.errstate(over="ignore"):
                for k, part in parts:
                    d = shrunk.coeffs[part]
                    d -= coeffs[k]
                    d *= d
                    scores[i, part] = d.mean(axis=-1)
        if not np.isfinite(scores).all():
            raise NumericError("the squared error overflows")
    except Exception as exc:
        # rows are independent, so a failing row fails alone as well
        for i in rows:
            k, snr, rep = _row(config, i)
            function = config.functions[k]
            [row] = _noisy_rows(config, truths, range(i, i + 1))
            if sds[k] == 0.0 or not np.isfinite(row).all():
                try:
                    add_noise(Signal(samples[k]), snr,
                              _noise_key(config.seed, function, n, snr, rep))
                except Exception as row_exc:
                    raise _cell_error(function, n, snr, rep, None, row_exc) from row_exc
            for rule in config.rules:
                try:
                    [(_, shrunk, _)] = _denoise_stack(row, (rule,), config.elicitation,
                                                      filt)[1]
                    with np.errstate(over="ignore"):
                        if not math.isfinite(mse(shrunk.coeffs, coeffs[k])):
                            raise NumericError("the squared error overflows")
                except Exception as row_exc:
                    raise _cell_error(function, n, snr, rep, rule.label,
                                      row_exc) from row_exc
        names = ", ".join(config.functions[k].value for k, _ in parts)
        raise NumericError(f"batch (function={names}, n={n}) failed: {exc}") from exc


def _cells(config: StudyConfig, n: int, scores: np.ndarray, seconds: list) -> dict:
    """The cells of every function at n, from the batch's scores (rules,
    functions x snrs x replications) and each rule's seconds, by one mean
    and one SD reduction for all of them. Maps each (function, n) to its
    cells, SNR by SNR and rule by rule, each with its share of the time."""
    functions, snrs, reps = config.functions, config.snrs, config.replications
    labels = [r.label for r in config.rules]
    by_cell = scores.reshape(len(labels), len(functions), len(snrs), reps)
    with np.errstate(over="ignore"):
        amse = by_cell.mean(axis=-1)
    for i, k, s in np.argwhere(~np.isfinite(amse)):  # only the sum overflowed
        vals = by_cell[i, k, s]
        amse[i, k, s] = vals.max() * np.mean(vals / vals.max())
    degenerate = reps < 2
    sd = np.zeros(amse.shape) if degenerate else scaled_std(by_cell, ddof=1, axis=-1)
    amse, sd = amse.tolist(), sd.tolist()
    times = [t / len(functions) / len(snrs) for t in seconds]
    return {(function, n): [CellResult(function, n, snr, label, amse[i][k][s], sd[i][k][s],
                                       by_cell[i, k, s].copy(), times[i], degenerate)
                            for s, snr in enumerate(snrs) for i, label in enumerate(labels)]
            for k, function in enumerate(functions)}


def _study_pass(config: StudyConfig, n: int) -> dict:
    """One batch of the draws of every function at n, in chunks of batch
    rows, scored against the memoised truths (_truths); the _cells of the
    batch, its seconds split evenly over the functions."""
    truths = _truths(config.functions, n, config.target_sd, config.wavelet_order,
                     config.elicitation.coarse_level)
    batch = range(len(config.functions) * len(config.snrs) * config.replications)
    scores = np.empty((len(config.rules), len(batch)))
    seconds = [0.0] * len(config.rules)
    step = max(1, _CHUNK // n)
    for start in batch[::step]:
        _score_chunk(config, truths, batch[start:start + step],
                     scores[:, start:start + step], seconds)
    return _cells(config, n, scores, seconds)


def run_study(config: StudyConfig) -> StudyReport:
    """Run every cell of the grid and aggregate per-rule MSE samples.

    The study runs in one order: size by size; within a size, row by row
    (function, then SNR, then replication); within a row, its noise draw,
    then each rule with its score. Each n is one batch (_study_pass) of
    the len(snrs) x replications draws of every function at that n, each
    row with its own function's truth and SD for the noise and the
    scoring, in chunks of whole rows of at most _CHUNK samples (4 MiB per
    array). Each chunk is keyed, transformed and elicited once, and each
    rule is shrunk and scored in the chunk's own array against the
    transform of each row's truth; nothing is inverted. The truths at each
    n are memoised per process (_truths). CellResult says what a sample is
    and how wall_time_s is shared out. The cells are returned function by
    function, size by size, as the config lists them.

    Deterministic given (config, seed): replication streams are derived
    from cell coordinates, not from execution order, and the aggregation
    order is fixed. Each sample is a squared error in the coefficient
    domain: mse(denoise(draw).shrunk.coeffs, dwt_forward(truth).coeffs)
    of a denoise of its draw alone, bit for bit, which equals the
    time-domain mse of that denoise up to rounding (Parseval). A failure
    aborts the study with the error of the first row that fails in run
    order: its cell, and its noise draw or the first of its rules that
    fails (_score_chunk), whatever the chunks.
    """
    results = {}
    for n in config.sizes:
        results.update(_study_pass(config, n))
    return StudyReport(config=config, cells=[cell for function in config.functions
                                             for n in config.sizes
                                             for cell in results[function, n]])


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
