"""Monte Carlo BER engine: codecs + modem + AWGN channel, with oracles.

Each sweep point runs the full pipeline (random info bits -> encode ->
GMSK modulate -> AWGN at rate-adjusted Eb/N0 -> demodulate -> decode ->
compare) in growing chunks until the stop rule is met.  Points derive
independent Philox substreams from (seed, Eb/N0), so results are identical
whether points run serially, in parallel, or in any order.  Eb/N0 is per
information bit by default: coded pipelines pay the rate penalty on the
channel.

Chunk ``i``'s data and noise are keyed by (seed, Eb/N0, i) and not by the
codec, so codecs measured at one Eb/N0 with one seed see the same bits and
the same noise stream: common random numbers, which makes their BER
differences less noisy than independent draws would.  :func:`run_points`
runs several codecs over one modem, stop rule and seed chunk by chunk.  Each
chunk draws its data bits once and shares one
:class:`~gmsklink.channel.NoiseStream`, dropped with the chunk, whose memo
holds as many normals as the longest signal in that chunk has samples.  A
signal of ``n`` samples reads ``2 n`` normals, so the normals past the memo
(the Q component of the longer signals) are drawn again by every codec that
reads them: a ``sweep-curve`` benchmark pass draws about 1.65 normals for
each distinct one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, NoiseStream, awgn, substream
from .errors import ConfigError
from .fec import CodeSpec, apply_code, block_layout, none_spec, strip_code
from .modem import (ModemConfig, demodulate, modulate, signal_length,
                    theoretical_ber)

_WILSON_Z = 1.959963984540054  # two-sided 95%

# domain separators for substream derivation
_DATA_TAG = 0x6D6B
_NOISE_TAG = 0x6E7A


@dataclass(frozen=True)
class StopRule:
    """Accumulate until ``min_bit_errors`` are seen or ``max_bits`` simulated."""

    min_bit_errors: int = 200
    max_bits: int = 10_000_000

    def __post_init__(self):
        if not self.min_bit_errors >= 1:
            raise ConfigError("min_bit_errors must be >= 1")
        if not self.max_bits >= 1:
            raise ConfigError("max_bits must be >= 1")


@dataclass(frozen=True)
class SweepSpec:
    """One BER-vs-Eb/N0 sweep: codec, modem, grid, stop rule and seed."""

    ebno_points: tuple
    codec: CodeSpec = field(default_factory=none_spec)
    modem: ModemConfig = field(default_factory=ModemConfig)
    stop_rule: StopRule = field(default_factory=StopRule)
    seed: int = 0

    def __post_init__(self):
        if len(self.ebno_points) == 0:
            raise ConfigError("ebno_points must be nonempty")
        if any(math.isnan(e) for e in self.ebno_points):
            raise ConfigError(f"ebno_points contains NaN: {self.ebno_points}")


@dataclass(frozen=True)
class BerPoint:
    """One measured point with its 95% Wilson confidence interval."""

    ebno_db: float
    measured_ber: float
    bit_errors: int
    bits_simulated: int
    ci_low: float
    ci_high: float
    low_confidence: bool


def wilson_interval(errors: int, n: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p = errors / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if errors == 0 else max(0.0, centre - half)
    hi = 1.0 if errors == n else min(1.0, centre + half)
    return lo, hi


def _ebno_entropy(ebno_db: float) -> int:
    # + 0.0 maps -0.0 to +0.0, so equal Eb/N0 values key the same streams
    return int(np.float64(ebno_db + 0.0).view(np.uint64))


def _noise_seed(seed: int, ebits: int, chunk_index: int) -> int:
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, ebits, _NOISE_TAG, chunk_index]
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def _chunk_errors(bits, codec: CodeSpec, modem: ModemConfig, ebno_db: float,
                  noise: NoiseStream) -> int:
    coded = apply_code(bits, codec)
    channel = ChannelConfig(ebno_db=ebno_db, code_rate=bits.size / coded.size,
                            samples_per_symbol=modem.samples_per_symbol,
                            seed=noise.seed)
    noisy = awgn(modulate(coded, modem), channel, noise=noise, overwrite_input=True)
    hard = demodulate(noisy, modem, coded.size)
    del noisy
    decoded = strip_code(hard, codec, bits.size)
    return int(np.count_nonzero(decoded != bits))


def run_points(codecs, ebno_db: float, modem: ModemConfig, stop_rule: StopRule,
               seed: int) -> list[BerPoint]:
    """Measure each codec's BER at one Eb/N0; equal to ``run_point`` per codec.

    Chunk 0 runs for every codec, then chunk 1 for the codecs short of
    ``stop_rule.min_bit_errors``, and so on until ``max_bits``.  Each chunk
    draws its data bits once and shares one :class:`NoiseStream` whose memo
    holds as many normals as the longest signal of the codecs running has
    samples; each codec draws for itself the normals it reads past the memo.
    """
    if math.isnan(ebno_db):
        raise ConfigError("ebno_db must not be NaN")
    ebits = _ebno_entropy(ebno_db)
    data_rng = substream(seed, ebits, _DATA_TAG)
    errors = [0] * len(codecs)
    bits_simulated = [0] * len(codecs)
    simulated, size, chunk_index = 0, 25_000, 0
    while simulated < stop_rule.max_bits:
        running = [i for i, e in enumerate(errors) if e < stop_rule.min_bit_errors]
        if not running:
            break
        n_bits = min(size, stop_rule.max_bits - simulated)
        bits = data_rng.integers(0, 2, n_bits).astype(np.uint8)
        n_max = max(signal_length(block_layout(n_bits, codecs[i]).coded_bits, modem)
                    for i in running)
        noise = NoiseStream(_noise_seed(seed, ebits, chunk_index), n_max)
        simulated += n_bits
        for i in running:
            errors[i] += _chunk_errors(bits, codecs[i], modem, ebno_db, noise)
            bits_simulated[i] = simulated
        size = min(2 * size, 200_000)
        chunk_index += 1
    points = []
    for e, n in zip(errors, bits_simulated):
        ci_low, ci_high = wilson_interval(e, n)
        points.append(BerPoint(ebno_db=float(ebno_db), measured_ber=e / n,
                               bit_errors=e, bits_simulated=n, ci_low=ci_low,
                               ci_high=ci_high,
                               low_confidence=e < stop_rule.min_bit_errors))
    return points


def run_point(spec: SweepSpec, ebno_db: float) -> BerPoint:
    """Measure the BER at one Eb/N0 value; deterministic given (seed, ebno_db)."""
    return run_points([spec.codec], ebno_db, spec.modem, spec.stop_rule, spec.seed)[0]


def run_sweep(spec: SweepSpec) -> list[BerPoint]:
    """Run every grid point; output sorted by Eb/N0."""
    return [run_point(spec, e) for e in sorted(spec.ebno_points)]


def crossover_ber(coded_curve: list[BerPoint],
                  uncoded_curve: list[BerPoint]) -> float | None:
    """BER level where a coded curve crosses the uncoded one.

    Both curves must share their Eb/N0 grid.  Interpolation is log-linear in
    BER; returns None when there is no strict crossing (or no usable points).
    """
    if [p.ebno_db for p in coded_curve] != [p.ebno_db for p in uncoded_curve]:
        raise ValueError("curves must share the same Eb/N0 grid")
    usable = [
        (c, u)
        for c, u in zip(coded_curve, uncoded_curve)
        if c.measured_ber > 0 and u.measured_ber > 0
    ]
    for (c0, u0), (c1, u1) in zip(usable, usable[1:]):
        d0 = math.log(c0.measured_ber) - math.log(u0.measured_ber)
        d1 = math.log(c1.measured_ber) - math.log(u1.measured_ber)
        if d0 == 0.0 or (d0 > 0) == (d1 > 0):
            continue
        frac = d0 / (d0 - d1)
        log_u0, log_u1 = math.log(u0.measured_ber), math.log(u1.measured_ber)
        return math.exp(log_u0 + frac * (log_u1 - log_u0))
    return None


def semi_analytic_coded_ber(spec: CodeSpec, ebno_db: float, alpha: float) -> float:
    """Post-decoding BER estimate for hard-decision bounded-distance decoding.

    Uses the standard union-style bound: a block with i > t channel-symbol
    errors decodes to roughly i + t wrong symbols out of n.  Supports the
    block codes only, the identity code included; the convolutional code has
    no closed form at this fidelity.
    """
    if spec.d_min is None:
        raise ValueError(f"no semi-analytic estimate for the {spec.name} code")
    chan_db = ebno_db + 10.0 * math.log10(spec.rate)
    p_bit = float(theoretical_ber(chan_db, alpha))
    if spec.symbol_bits > 1:
        p = 1.0 - (1.0 - p_bit) ** spec.symbol_bits
    else:
        p = p_bit
    if p == 0.0:
        return 0.0
    n, t = spec.n, spec.t
    out = 0.0
    for i in range(t + 1, n + 1):
        out += ((i + t) / n) * math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
    if spec.symbol_bits > 1:
        # average bit errors per wrong 2^m-ary symbol
        out *= (1 << (spec.symbol_bits - 1)) / ((1 << spec.symbol_bits) - 1)
    return out


def ber_csv_text(rows: list[tuple[str, BerPoint]]) -> str:
    """(codec, point) rows as text in the fixed sweep CSV schema."""
    lines = ["ebno_db,codec,ber,errors,bits,ci_low,ci_high,low_confidence_flag"]
    for codec_name, p in rows:
        lines.append(
            f"{p.ebno_db!r},{codec_name},{p.measured_ber!r},{p.bit_errors},"
            f"{p.bits_simulated},{p.ci_low!r},{p.ci_high!r},{int(p.low_confidence)}"
        )
    return "\n".join(lines) + "\n"
