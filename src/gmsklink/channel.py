"""AWGN injection calibrated to Eb/N0, and the link budget's parameters.

Noise variance is set from the energy per *information* bit: a coded stream
spends its energy budget over more channel bits, so the per-channel-bit SNR
is ``ebno_db + 10 log10(code_rate)``.  The random source is numpy's Philox
counter-based generator keyed through ``SeedSequence`` so streams are
reproducible across runs and platforms; see :func:`substream`.
:func:`substream_random` computes the first doubles of many such streams
in one array pass, to the bytes each stream's generator would give.

Noise of ``n`` samples reads the first ``2 n`` standard normals of the
seed's stream: ``z[:n]`` scaled onto I and ``z[n:2n]`` onto Q.  Signals of
different lengths under one seed therefore read prefixes of one stream.
The BER engine reads each point's stream once, in chunks of whole frames,
and adds no noise to any waveform: it filters each codec's prefix of the
normals straight into one noise value per decision, which it scales by
:func:`noise_scale` (see :mod:`gmsklink.link`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .modem import BasebandSignal


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN channel configuration.

    ebno_db: energy per information bit over one-sided noise PSD, in dB.
    code_rate: information bits per channel bit, in (0, 1].
    samples_per_symbol: oversampling factor of the incoming signal.
    seed: 64-bit stream seed.
    """

    ebno_db: float
    code_rate: float = 1.0
    samples_per_symbol: int = 8
    seed: int = 0

    def __post_init__(self):
        if np.isnan(self.ebno_db):
            raise ConfigError("ebno_db must not be NaN")
        if not 0 < self.code_rate <= 1:
            raise ConfigError(f"code_rate must be in (0, 1], got {self.code_rate}")
        if not self.samples_per_symbol >= 1:
            raise ConfigError("samples_per_symbol must be >= 1")
        if not math.isfinite(noise_variance(self)):
            raise ConfigError(f"ebno_db {self.ebno_db!r} at code rate "
                              f"{self.code_rate!r} gives a noise variance that "
                              f"is not finite")


@dataclass(frozen=True)
class LinkBudget:
    """Path-loss and receiver noise parameters.

    g_l: power gain factor at 1 m (linear).
    m_l: link margin (linear).
    k_exp: path-loss exponent, between 2 and 4.
    distance_m: node separation in meters.
    n_f: receiver noise figure (linear).
    sigma2: thermal-noise PSD parameter in joules.
    """

    g_l: float = 1e3
    m_l: float = 1e4
    k_exp: float = 3.0
    distance_m: float = 100.0
    n_f: float = 10.0
    sigma2: float = 3.981e-21

    def __post_init__(self):
        if not 2 <= self.k_exp <= 4:
            raise ConfigError(f"k_exp must be in [2, 4], got {self.k_exp}")
        if not self.distance_m > 0:
            raise ConfigError("distance_m must be positive")
        if not all(x > 0 for x in (self.g_l, self.m_l, self.n_f, self.sigma2)):
            raise ConfigError("gains, noise figure and sigma2 must be positive")


_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy's SeedSequence: hashmix, mix and generate_state constants
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_POOL_WORDS = 4
# Philox4x64-10: round multipliers and key bumps
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def substream(*entropy) -> np.random.Generator:
    """Philox generator keyed deterministically from a tuple of integers."""
    words = [int(e) & _MASK64 for e in entropy]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def _hashmix(value: np.ndarray, const: int, mult: int = _HASH_MULT_A) -> tuple:
    """SeedSequence's hashmix of uint32 ``value`` under the running hash
    constant ``const``; returns the hash and the constant advanced by
    ``mult``."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool word ``x`` with hash ``y``."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _philox_keys(values: np.ndarray) -> tuple:
    """The two 64-bit Philox key words ``SeedSequence`` gives each row of
    64-bit entropy values.

    A value is one 32-bit word below 2**32 (zero included) and two words,
    low first, above it; a row's words are its values' words in order, so
    rows of one table can hash different numbers of words.
    """
    rows, k = values.shape
    low, high = values & np.uint64(_MASK32), values >> np.uint64(32)
    words = np.zeros((rows, max(2 * k, _POOL_WORDS)), dtype=np.uint32)
    n_words = np.zeros(rows, dtype=np.intp)
    every = np.arange(rows)
    for j in range(k):
        words[every, n_words] = low[:, j]
        two = high[:, j] > 0
        words[every[two], n_words[two] + 1] = high[two, j]
        n_words += 1 + two
    # the pool takes the first four words, zeros past a row's last word
    const = _HASH_INIT_A
    pool = []
    for i in range(_POOL_WORDS):
        word, const = _hashmix(words[:, i], const)
        pool.append(word)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    # a word past the fourth mixes into every pool word, in rows that have it
    for src in range(_POOL_WORDS, words.shape[1]):
        has = src < n_words
        for dst in range(_POOL_WORDS):
            word, const = _hashmix(words[:, src], const)
            pool[dst] = np.where(has, _mix(pool[dst], word), pool[dst])
    # generate_state: the pool's four words, hashed once more, are the key
    const = _HASH_INIT_B
    state = []
    for word in pool:
        word, const = _hashmix(word, const, _HASH_MULT_B)
        state.append(word.astype(np.uint64))
    return state[0] | state[1] << np.uint64(32), state[2] | state[3] << np.uint64(32)


def _mulhilo(a: int, b: np.ndarray) -> tuple:
    """The high and low 64-bit words of the 128-bit product ``a * b``."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo, b_hi = b & np.uint64(_MASK32), b >> np.uint64(32)
    low = b_lo * a_lo
    mid1 = b_lo * a_hi + (low >> np.uint64(32))
    mid2 = b_hi * a_lo + (mid1 & np.uint64(_MASK32))
    high = b_hi * a_hi + (mid1 >> np.uint64(32)) + (mid2 >> np.uint64(32))
    return high, b * np.uint64(a)


def substream_random(entropy, count: int) -> np.ndarray:
    """``(len(entropy), count)`` doubles whose row ``r`` is
    ``substream(*entropy[r]).random(count)``, bit for bit.

    ``entropy`` is a sequence of equal-length tuples of integers, each taken
    modulo 2**64 as :func:`substream` takes it.  Every row is computed in one
    array pass: numpy's ``SeedSequence`` hash of the row's 32-bit words
    gives the two Philox4x64-10 key words, the key encrypts the counters
    1, 2, ... (numpy's generator steps its zero counter before its first
    block), and each 64-bit output ``x`` in order reads as
    ``(x >> 11) * 2**-53``.  Philox is counter-based, so no row waits on
    another (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
    SC'11).  The outputs are shifted in the one buffer that holds them,
    and their doubles are scaled in the one array returned.
    """
    values = np.array([[int(e) & _MASK64 for e in row] for row in entropy],
                      dtype=np.uint64)
    blocks = -(-count // 4)
    words = _philox_words(*_philox_keys(values), blocks)
    words >>= np.uint64(11)
    out = words.reshape(len(values), 4 * blocks)[:, :count].astype(np.float64)
    out *= 2.0**-53
    return out


def _philox_words(key0: np.ndarray, key1: np.ndarray, blocks: int) -> np.ndarray:
    """``(keys, blocks, 4)``: the 64-bit outputs of Philox4x64-10 under each
    key ``(key0[r], key1[r])`` for the counters 1 to ``blocks``; the round
    temporaries are freed on return."""
    key0, key1 = key0[:, None], key1[:, None]
    zero = np.zeros((1, blocks), dtype=np.uint64)
    ctr = [np.arange(1, blocks + 1, dtype=np.uint64)[None, :], zero, zero, zero]
    for round_index in range(10):
        if round_index:  # the key is bumped before every round but the first
            key0 = key0 + np.uint64(_PHILOX_W0)
            key1 = key1 + np.uint64(_PHILOX_W1)
        hi0, lo0 = _mulhilo(_PHILOX_M0, ctr[0])
        hi1, lo1 = _mulhilo(_PHILOX_M1, ctr[2])
        ctr = [hi1 ^ ctr[1] ^ key0, lo1, hi0 ^ ctr[3] ^ key1, lo0]
    return np.stack(ctr, axis=-1)


def noise_variance(config: ChannelConfig) -> float:
    """Total complex noise variance per sample for the configured Eb/N0."""
    try:
        ebno = 10.0 ** (config.ebno_db / 10.0)
    except OverflowError:
        return 0.0
    ebno_channel_bit = ebno * config.code_rate
    if np.isinf(ebno_channel_bit):
        return 0.0
    if ebno_channel_bit == 0.0:
        return math.inf
    # Unit-power signal: energy per channel bit is sps in sample units, and
    # discrete white noise of variance sigma2 has PSD sigma2, so
    # Eb/N0 = sps / sigma2.
    return config.samples_per_symbol / ebno_channel_bit


def noise_scale(config: ChannelConfig) -> float:
    """Standard deviation of each of the I and Q noise components."""
    return np.sqrt(noise_variance(config) / 2.0)


def awgn(signal: BasebandSignal, config: ChannelConfig) -> BasebandSignal:
    """Add complex white Gaussian noise at the configured per-bit SNR.

    The input is left untouched; with no noise (an infinite Eb/N0) it is
    returned as it is.  I takes the seed's first ``n`` normals times the
    scale and Q the next ``n``: bitwise numpy's own ``normal(0, scale)``.
    """
    scale = noise_scale(config)
    if scale == 0.0:
        return signal
    noisy = np.array(signal.samples, dtype=complex)
    rng, n = substream(config.seed), noisy.size
    noisy.real += rng.standard_normal(n) * scale
    noisy.imag += rng.standard_normal(n) * scale
    return BasebandSignal(samples=noisy, sample_rate=signal.sample_rate)
