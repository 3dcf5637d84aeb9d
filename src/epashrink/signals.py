"""Benchmark test functions and calibrated noise injection.

The four standard piecewise/oscillatory test functions (Bumps, Blocks,
Doppler, Heavisine) are evaluated on the grid x_i = i/n and rescaled
multiplicatively so their population standard deviation hits a target
(7 by default); no recentering, so the shapes are preserved. Noise level
is set through the ratio SNR = SD(f)/sigma.

Randomness comes from the counter-based Philox generator keyed through a
SeedSequence, so every (seed, stream) pair is an independent reproducible
stream; the study harness splits streams per (cell, replication).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericError, numeric_guard

__all__ = [
    "Signal",
    "TestFunctionKind",
    "generate_test_function",
    "add_noise",
    "noise_rng",
]


def _require_finite(name: str, values: np.ndarray) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise InputError(f"{name}[{i}] is {float(values[i])}; every value must be finite")


@dataclass
class Signal:
    """A dyadic-length sample sequence with optional known truth.

    Raises InputError on a non-dyadic length or a non-finite value.
    """

    samples: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise InputError("samples must be a 1-D sequence with >= 2 entries")
        n = self.samples.size
        if n & (n - 1):
            raise InputError(f"signal length {n} is not a power of two")
        _require_finite("samples", self.samples)
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float)
            if self.truth.shape != self.samples.shape:
                raise InputError("truth must have the same length as samples")
            _require_finite("truth", self.truth)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def n(self) -> int:
        return self.samples.size

    def sd(self) -> float:
        """Population standard deviation of the samples."""
        return float(np.std(self.samples))


class TestFunctionKind(str, enum.Enum):
    __test__ = False  # not a pytest class, despite the name

    BUMPS = "bumps"
    BLOCKS = "blocks"
    DOPPLER = "doppler"
    HEAVISINE = "heavisine"


_JUMPS = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.4, 0.44, 0.65, 0.76, 0.78, 0.81])
_BUMP_HEIGHTS = np.array([4, 5, 3, 4, 5, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMP_WIDTHS = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01,
                         0.005, 0.008, 0.005])
_BLOCK_HEIGHTS = np.array([4, -5, 3, -4, 5, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])


def _raw_test_function(kind: TestFunctionKind, x: np.ndarray) -> np.ndarray:
    if kind is TestFunctionKind.BUMPS:
        f = np.zeros_like(x)
        for t0, h, w in zip(_JUMPS, _BUMP_HEIGHTS, _BUMP_WIDTHS):
            f += h / (1.0 + np.abs((x - t0) / w)) ** 4
        return f
    if kind is TestFunctionKind.BLOCKS:
        f = np.zeros_like(x)
        for t0, h in zip(_JUMPS, _BLOCK_HEIGHTS):
            f += h * (1.0 + np.sign(x - t0)) / 2.0
        return f
    if kind is TestFunctionKind.DOPPLER:
        return np.sqrt(x * (1.0 - x)) * np.sin(2.1 * np.pi / (x + 0.05))
    if kind is TestFunctionKind.HEAVISINE:
        return 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)
    raise DomainError(f"unknown test function {kind!r}")


def generate_test_function(
    kind: TestFunctionKind | str, n: int, target_sd: float = 7.0
) -> Signal:
    """Evaluate a benchmark function on x_i = i/n and rescale to target SD.

    The rescale is purely multiplicative, so doubling target_sd exactly
    doubles every sample.
    """
    kind = TestFunctionKind(kind)
    if n < 2 or n & (n - 1):
        raise InputError(f"n must be a power of two >= 2, got {n}")
    if not 0.0 < target_sd < math.inf:
        raise DomainError(f"target_sd must be positive and finite, got {target_sd}")
    x = np.arange(1, n + 1) / n
    f = _raw_test_function(kind, x)
    sd = float(np.std(f))
    return Signal(samples=f * (target_sd / sd))


def noise_rng(seed) -> np.random.Generator:
    """Philox generator for a seed key (an int or a tuple of ints)."""
    if isinstance(seed, (int, np.integer)):
        key = (int(seed),)
    else:
        key = tuple(int(s) for s in seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def scaled_std(values: np.ndarray, ddof: int = 0) -> float:
    """np.std of the values; where their squares overflow or underflow,
    the same taken of the values divided by their peak, times the peak."""
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(np.std(values, ddof=ddof))
    if 0.0 < sd < math.inf:
        return sd
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    return peak * float(np.std(values / peak, ddof=ddof))


def add_noise(truth: Signal, snr: float, seed) -> Signal:
    """Add white Gaussian noise at the requested signal-to-noise ratio.

    sigma = SD(truth)/snr with the population SD of the samples, finite
    for every finite signal; the clean samples are retained as the truth
    of the returned signal. Deterministic for a given seed key. Raises
    NumericError if a noisy sample overflows.
    """
    if not 0.0 < snr < math.inf:
        raise DomainError(f"snr must be positive and finite, got {snr}")
    f = truth.samples
    sd = scaled_std(f)
    if sd == 0.0:
        raise InputError("cannot calibrate noise against a constant signal")
    sigma = sd / snr
    if not math.isfinite(sigma):
        raise NumericError(f"noise scale overflows: SD {sd!r} / snr {snr!r}")
    eps = noise_rng(seed).standard_normal(f.size)
    with numeric_guard("noise draw"):
        samples = f + sigma * eps
    return Signal(samples=samples, truth=f.copy())
