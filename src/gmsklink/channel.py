"""AWGN injection calibrated to Eb/N0, and the link budget's parameters.

Noise variance is set from the energy per *information* bit: a coded stream
spends its energy budget over more channel bits, so the per-channel-bit SNR
is ``ebno_db + 10 log10(code_rate)``.  The random source is numpy's Philox
counter-based generator keyed through ``SeedSequence`` so streams are
reproducible across runs and platforms; see :func:`substream`.

Noise of ``n`` samples reads the first ``2 n`` standard normals of the
seed's stream: ``z[:n]`` scaled onto I and ``z[n:2n]`` onto Q.  Signals of
different lengths under one seed therefore read prefixes of one stream.
The BER engine draws each distinct normal once, into a buffer that lives
for one round's channel phase, and adds each codec's prefix one decision
block at a time through :func:`add_noise`, the formula :func:`awgn`
applies (see :mod:`gmsklink.link`).
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


def substream(*entropy) -> np.random.Generator:
    """Philox generator keyed deterministically from a tuple of integers."""
    words = [int(e) & 0xFFFFFFFFFFFFFFFF for e in entropy]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


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


def add_noise(samples: np.ndarray, z_i, z_q, scale: float) -> None:
    """Add ``scale * z_i`` to the I and ``scale * z_q`` to the Q of complex
    ``samples`` in place; ``s + scale * z`` is bitwise ``s + normal(0,
    scale)``, the draw numpy's own ``normal()`` makes."""
    for part, z in ((samples.real, z_i), (samples.imag, z_q)):
        part += z * scale


def awgn(signal: BasebandSignal, config: ChannelConfig) -> BasebandSignal:
    """Add complex white Gaussian noise at the configured per-bit SNR.

    The input is left untouched; with no noise (an infinite Eb/N0) it is
    returned as it is.
    """
    scale = noise_scale(config)
    if scale == 0.0:
        return signal
    noisy = np.array(signal.samples, dtype=complex)
    rng, n = substream(config.seed), noisy.size
    add_noise(noisy, rng.standard_normal(n), rng.standard_normal(n), scale)
    return BasebandSignal(samples=noisy, sample_rate=signal.sample_rate)
