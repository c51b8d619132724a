"""AWGN injection calibrated to Eb/N0 and the distance power-gain model.

Noise variance is set from the energy per *information* bit: a coded stream
spends its energy budget over more channel bits, so the per-channel-bit SNR
is ``ebno_db + 10 log10(code_rate)``.  The random source is numpy's Philox
counter-based generator keyed through ``SeedSequence`` so streams are
reproducible across runs and platforms; see :func:`substream`.

Noise of ``n`` samples reads the first ``2 n`` standard normals of the
seed's stream: ``z[:n]`` scaled onto I and ``z[n:2n]`` onto Q.  Signals of
different lengths under one seed therefore read prefixes of one stream, and
a :class:`NoiseStream` lets them share it: it keeps the first ``n_max``
normals drawn once, and any consumer that needs more draws the rest from
the generator state saved there.  The memo is bounded by ``n_max``, every
other noise buffer by one block, and the object holds nothing once it is
dropped; a plain :func:`awgn` call keeps no memo at all.  The BER engine
shares one stream among all codecs of a chunk (see :mod:`gmsklink.link`).
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
        if np.isnan(self.ebno_db):
            raise ConfigError("ebno_db must not be NaN")
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
        if not all(x > 0 for x in (self.g_l, self.m_l, self.n_f, self.sigma2)):
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


class NoiseStream:
    """The standard-normal stream of one seed, shared by several consumers.

    The first ``n_max`` normals are drawn on first use and kept; the
    generator state after them is saved, and a consumer that reads past
    ``n_max`` draws from a copy of that state, one bounded block at a time.
    Every consumer therefore reads exactly the stream ``substream(seed)``
    would give it alone.
    """

    _BLOCK = 1 << 15

    def __init__(self, seed: int, n_max: int = 0):
        self.seed = seed
        self.n_max = n_max
        self._memo = None
        self._state = None

    def _start(self):
        if self._state is None:
            rng = substream(self.seed)
            self._memo = rng.standard_normal(self.n_max)
            self._state = rng.bit_generator.state

    def pieces(self, stop: int):
        """Yield ``(start, z)`` pieces of at most ``_BLOCK`` normals that
        cover ``z[0:stop]`` in order.

        A piece past the memo is a reused buffer, valid until the next one.
        """
        self._start()
        memo = self._memo
        for start in range(0, min(stop, memo.size), self._BLOCK):
            yield start, memo[start: min(start + self._BLOCK, stop)]
        if stop > memo.size:
            bit_generator = np.random.Philox()
            bit_generator.state = self._state
            rng = np.random.Generator(bit_generator)
            block = np.empty(min(self._BLOCK, stop - memo.size))
            for start in range(memo.size, stop, block.size):
                z = block[: min(block.size, stop - start)]
                rng.standard_normal(out=z)
                yield start, z


def awgn(signal: BasebandSignal, config: ChannelConfig, *,
         noise: NoiseStream | None = None,
         overwrite_input: bool = False) -> BasebandSignal:
    """Add complex white Gaussian noise at the configured per-bit SNR.

    ``noise``, if given, is the shared stream of ``config.seed``; the result
    is the same with or without it.  With ``overwrite_input``, writable
    complex128 samples get the noise in place, and the result shares them.
    """
    var = noise_variance(config)
    if var == 0.0:
        return signal
    if noise is None:
        noise = NoiseStream(config.seed)
    elif noise.seed != config.seed:
        raise ValueError(f"noise stream seed {noise.seed} is not the "
                         f"channel seed {config.seed}")
    samples = np.asarray(signal.samples)
    n = samples.size
    scale = np.sqrt(var / 2.0)
    in_place = overwrite_input and samples.dtype == complex and samples.flags.writeable
    noisy = samples if in_place else np.empty(n, dtype=complex)
    scaled = np.empty(NoiseStream._BLOCK)
    # component c of sample i gets z[c * n + i]; s + scale * z is bitwise
    # s + normal(0, scale), the draw numpy's own normal() makes
    for start, z in noise.pieces(2 * n):
        for out, s, lo in ((noisy.real, samples.real, 0), (noisy.imag, samples.imag, n)):
            a, b = max(start, lo), min(start + z.size, lo + n)
            if a < b:
                part = scaled[: b - a]
                np.multiply(z[a - start: b - start], scale, out=part)
                np.add(s[a - lo: b - lo], part, out=out[a - lo: b - lo])
    return BasebandSignal(samples=noisy, sample_rate=signal.sample_rate)


def path_gain(budget: LinkBudget) -> float:
    """Power gain factor G_l * d**k * M_l between transmitter output and receiver."""
    return budget.g_l * budget.distance_m**budget.k_exp * budget.m_l
