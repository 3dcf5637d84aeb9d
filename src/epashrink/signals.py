"""Benchmark test functions and calibrated noise injection.

The four standard piecewise/oscillatory test functions (Bumps, Blocks,
Doppler, Heavisine) are evaluated on the grid x_i = i/n and rescaled
multiplicatively so their population standard deviation hits a target
(7 by default); no recentering, so the shapes are preserved. Noise level
is set through the ratio SNR = SD(f)/sigma.

Randomness comes from the counter-based Philox generator keyed through a
SeedSequence, so every (seed, stream) pair is an independent reproducible
stream; the study harness splits streams per (cell, replication). It keys
the streams of a whole batch in one pass: _seed_states reproduces
SeedSequence's hash over all keys at once, bit for bit, so each stream is
noise_rng's without a SeedSequence per key.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, NumericError, _scale, _whole, numeric_guard

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
        """Population standard deviation of the samples, at any scale (see
        scaled_std)."""
        return scaled_std(self.samples)


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
    # bumps and blocks: one row per jump, summed from 0.0 in the jumps' order
    t0 = _JUMPS[:, None]
    if kind is TestFunctionKind.BUMPS:
        w = _BUMP_WIDTHS[:, None]
        bumps = _BUMP_HEIGHTS[:, None] / (1.0 + np.abs((x - t0) / w)) ** 4
        return np.add.reduce(bumps, axis=0, initial=0.0)
    if kind is TestFunctionKind.BLOCKS:
        steps = _BLOCK_HEIGHTS[:, None] * (1.0 + np.sign(x - t0)) / 2.0
        return np.add.reduce(steps, axis=0, initial=0.0)
    if kind is TestFunctionKind.DOPPLER:
        return np.sqrt(x * (1.0 - x)) * np.sin(2.1 * np.pi / (x + 0.05))
    if kind is TestFunctionKind.HEAVISINE:
        return 4.0 * np.sin(4.0 * np.pi * x) - np.sign(x - 0.3) - np.sign(0.72 - x)
    raise DomainError(f"unknown test function {kind!r}")


# numpy arrays span at most 2**63 - 1 bytes, so a float array at most
# 2**60 - 1 samples; this is the longest power of two within that
_MAX_SAMPLES = 2**59


def generate_test_function(
    kind: TestFunctionKind | str, n: int, target_sd: float = 7.0
) -> Signal:
    """Evaluate a benchmark function on x_i = i/n and rescale to target SD.

    The rescale is purely multiplicative, so doubling target_sd exactly
    doubles every sample. A target_sd so large that a sample overflows
    raises DomainError.
    """
    kind = TestFunctionKind(kind)
    n = _whole("n", n, InputError)
    if not 2 <= n <= _MAX_SAMPLES or n & (n - 1):
        raise InputError(f"n must be a power of two from 2 to 2**59, got {n}")
    target_sd = _scale("target_sd", target_sd, DomainError)
    x = np.arange(1, n + 1) / n
    f = _raw_test_function(kind, x)
    sd = float(np.std(f))
    with np.errstate(over="ignore", invalid="ignore"):
        samples = f * (target_sd / sd)
    if not np.isfinite(samples).all():
        raise DomainError(f"target_sd {target_sd!r} is too large: the {kind.value} "
                          f"samples at n={n} overflow")
    return Signal(samples=samples)


def noise_rng(seed) -> np.random.Generator:
    """Philox generator for a seed key (an int or a tuple of ints), each
    entry >= 0; DomainError naming an entry that is not a whole number."""
    entries = seed if np.ndim(seed) else (seed,)
    key = tuple(_whole("seed entry", entry, DomainError) for entry in entries)
    if any(k < 0 for k in key):
        raise DomainError(f"seed entries must be >= 0, got {key}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, the hashmix constants A for the entropy and B for the
# output, the mix multipliers and the xorshift
_WORD = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
# the hashmix call, in SeedSequence's order, that mixes pool word s into
# pool word d != s; the diagonal's result is discarded and takes call 0
_MIX_CALLS = np.array([[0 if d == s else _POOL + (_POOL - 1) * s + d - (d > s)
                        for d in range(_POOL)] for s in range(_POOL)])


def _hash_multipliers(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**t mod 2^32 for t < count: the running hash constant
    before each hashmix call, in call order."""
    out = np.empty(count, dtype=np.uint32)
    for t in range(count):
        out[t] = init
        init = init * mult & _WORD
    return out


_OUTPUT_CONSTS = _hash_multipliers(_INIT_B, _MULT_B, _POOL + 1)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """hashmix of values, shape (k, m) or a column (k, 1), by m calls at
    once: call i xors with xor[i] and multiplies by mul[i]."""
    v = values ^ xor
    v *= mul
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L
    v -= y * _MIX_R
    v ^= v >> 16
    return v


def _entropy_words(keys) -> tuple:
    """The uint32 words that SeedSequence assembles from each key, a row
    of ints >= 0: entry after entry, least significant word first, one word
    for 0. Returns the words, shape (R, W) with W >= 4, each row's padded
    with zeros, and each row's word count."""
    try:
        entries = np.array(keys, dtype=np.uint64)
    except OverflowError:  # an entry past 2^64
        entries = np.array(keys, dtype=object)
    entries = entries.reshape(len(keys), -1)
    per_entry = max(1, -(-int(entries.max()).bit_length() // 32))
    # (R, entries, words of an entry), flattened entry-major
    words = np.zeros(entries.shape + (per_entry,), dtype=np.uint32)
    present = np.ones(words.shape, dtype=bool)
    for i in range(per_entry):
        shifted = entries >> (32 * i)
        words[..., i] = shifted & _WORD
        if i:
            present[..., i] = shifted != 0
    words = words.reshape(len(keys), -1)
    present = present.reshape(len(keys), -1)
    # drop the words no row has; where rows differ, each row's present
    # words to its front, in order
    keep = present.any(axis=0)
    words, present = words[:, keep], present[:, keep]
    if not present.all():
        order = np.argsort(~present, axis=1, kind="stable")
        words = np.take_along_axis(words, order, axis=1)
    if words.shape[1] < _POOL:
        words = np.pad(words, ((0, 0), (0, _POOL - words.shape[1])))
    return words, present.sum(axis=1)


def _seed_states(keys) -> np.ndarray:
    """SeedSequence(key).generate_state(2, np.uint64) of every key, shape
    (R, 2), bit for bit: the Philox key that noise_rng(key) runs on.

    keys holds R keys of one length, rows of ints >= 0. They are hashed
    together, one numpy call per step of the hash over all R keys, so a
    batch costs about 40 calls, and 10 more per word of its longest key
    past the fourth, whatever R is.
    """
    words, counts = _entropy_words(keys)
    consts = _hash_multipliers(_INIT_A, _MULT_A, _POOL * words.shape[1] + 1)
    # the pool hashes the first four words, zeros past a key's end
    pool = _hashmix(words[:, :_POOL], consts[:_POOL], consts[1:_POOL + 1])
    # each pool word into each other
    for s in range(_POOL):
        calls = _MIX_CALLS[s]
        mixed = _mix(pool, _hashmix(pool[:, s:s + 1], consts[calls], consts[calls + 1]))
        mixed[:, s] = pool[:, s]
        pool = mixed
    # each further word into every pool word, from call 4 s on, for the
    # keys that have it
    for s in range(_POOL, words.shape[1]):
        calls = slice(_POOL * s, _POOL * (s + 1) + 1)
        mixed = _mix(pool, _hashmix(words[:, s:s + 1], consts[calls][:-1], consts[calls][1:]))
        pool = np.where((counts > s)[:, None], mixed, pool)
    out = _hashmix(pool, _OUTPUT_CONSTS[:_POOL], _OUTPUT_CONSTS[1:])
    return np.ascontiguousarray(out, dtype="<u4").view("<u8").astype(np.uint64)


# below this SD np.std's squared deviations may round in the subnormal
# range, by up to 2^-1075 each; from it up, that is under 2^-170 of the
# variance
_SD_FLOOR = 2.0 ** -450


def scaled_std(values: np.ndarray, ddof: int = 0, axis: int | None = None):
    """np.std of the values along axis (all of them by default); where
    that SD is zero, below 2^-450 or not finite, so their squares may have
    underflowed or overflowed, the same taken of the values scaled by the
    power of two at their peak, then scaled back. Scaling by a power of
    two is exact, so that path gives the SD np.std would give with an
    unbounded exponent. A number for axis=None, else an array with one
    value per slice."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sd = np.std(values, axis=axis, ddof=ddof)
    bad = ~((_SD_FLOOR <= sd) & (sd < math.inf))
    if np.any(bad):
        # an all-zero slice has exponent 0 and sd 0
        _, exponent = np.frexp(np.max(np.abs(values), axis=axis, keepdims=True))
        with np.errstate(over="ignore"):
            rescaled = np.ldexp(np.std(np.ldexp(values, -exponent), axis=axis, ddof=ddof),
                                np.squeeze(exponent, axis))
        sd = np.where(bad, rescaled, sd)
    return sd if sd.ndim else float(sd)


def add_noise(truth: Signal, snr: float, seed) -> Signal:
    """Add white Gaussian noise at the requested signal-to-noise ratio.

    sigma = SD(truth)/snr with the population SD of the samples, finite
    for every finite signal; the clean samples are retained as the truth
    of the returned signal. Deterministic for a given seed key. Raises
    NumericError if a noisy sample overflows.
    """
    snr = _scale("snr", snr, DomainError)
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
