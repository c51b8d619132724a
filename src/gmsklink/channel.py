"""AWGN injection calibrated to Eb/N0 and the distance power-gain model.

Noise variance is set from the energy per *information* bit: a coded stream
spends its energy budget over more channel bits, so the per-channel-bit SNR
is ``ebno_db + 10 log10(code_rate)``.  The random source is numpy's Philox
counter-based generator keyed through ``SeedSequence`` so streams are
reproducible across runs and platforms; see :func:`substream`.
"""

from __future__ import annotations

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
        if not 0 < self.code_rate <= 1:
            raise ConfigError(f"code_rate must be in (0, 1], got {self.code_rate}")
        if self.samples_per_symbol < 1:
            raise ConfigError("samples_per_symbol must be >= 1")


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
        if self.g_l <= 0 or self.m_l <= 0 or self.n_f <= 0 or self.sigma2 <= 0:
            raise ConfigError("gains, noise figure and sigma2 must be positive")


def substream(*entropy) -> np.random.Generator:
    """Philox generator keyed deterministically from a tuple of integers."""
    words = [int(e) & 0xFFFFFFFFFFFFFFFF for e in entropy]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def noise_variance(config: ChannelConfig) -> float:
    """Total complex noise variance per sample for the configured Eb/N0."""
    ebno = 10.0 ** (config.ebno_db / 10.0)
    ebno_channel_bit = ebno * config.code_rate
    if np.isinf(ebno_channel_bit):
        return 0.0
    # Unit-power signal: energy per channel bit is sps in sample units, and
    # discrete white noise of variance sigma2 has PSD sigma2, so
    # Eb/N0 = sps / sigma2.
    return config.samples_per_symbol / ebno_channel_bit


def awgn(signal: BasebandSignal, config: ChannelConfig) -> BasebandSignal:
    """Add complex white Gaussian noise at the configured per-bit SNR."""
    var = noise_variance(config)
    if var == 0.0:
        return signal
    rng = substream(config.seed)
    n = len(signal.samples)
    scale = np.sqrt(var / 2.0)
    noisy = np.array(signal.samples, dtype=complex)
    noisy.real += rng.normal(0.0, scale, size=n)
    noisy.imag += rng.normal(0.0, scale, size=n)
    return BasebandSignal(samples=noisy, sample_rate=signal.sample_rate)


def path_gain(budget: LinkBudget) -> float:
    """Power gain factor G_l * d**k * M_l between transmitter output and receiver."""
    return budget.g_l * budget.distance_m**budget.k_exp * budget.m_l
