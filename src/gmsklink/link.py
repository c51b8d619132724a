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
differences less noisy than independent draws would.  :func:`run_grid`
runs several codecs over one modem, stop rule, seed and Eb/N0 grid in chunk
rounds: round ``i`` runs for every point with a codec short of the stop rule
before round ``i + 1`` runs for any.  A point's round draws its data bits
once and its noise once: one buffer, allocated for the round's longest
signal and dropped when the round's channel phase ends, is filled for each
point in turn, and a codec's signal of ``m`` samples reads its first ``2 m``
normals, the stream :func:`~gmsklink.channel.awgn` would draw for it alone.
A codec whose noise scale is 0 (at an infinite Eb/N0) reads none, and a
point where no codec reads any draws none.
No full-length waveform is made: :func:`~gmsklink.modem.transceive`
modulates, adds noise and filters one decision block at a time, with the
row, noise and filter helpers of ``modulate``, ``awgn`` and ``demodulate``.

A codec with a batch decoder (the convolutional code) keeps only its hard
decisions and data bits until the end of the round, when every point's
stream of that round is decoded in one Viterbi call: the decoder's cost
per call is mostly per trellis step, so a wide batch amortises it.  Points
run in groups that keep that call within ``_DECODE_ROWS`` segments.  Since
every point keeps its own keys, the results are those of running each
point alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# modulate, awgn and demodulate stay bound here for the benchmark's tracer
from .channel import ChannelConfig, add_noise, awgn, noise_scale, substream  # noqa: F401
from .errors import ConfigError
from .fec import (CODECS, CodeSpec, apply_code, block_layout, none_spec,
                  strip_code)
from .modem import (ModemConfig, demodulate, modulate,  # noqa: F401
                    signal_length, theoretical_ber, transceive)

_WILSON_Z = 1.959963984540054  # two-sided 95%

# domain separators for substream derivation
_DATA_TAG = 0x6D6B
_NOISE_TAG = 0x6E7A

# Most segments one batched decode call takes, unless one point's chunk
# alone has more.  The Viterbi decoder's time per segment stops falling at
# about this width, and its traceback state for 512-bit segments is 4 MB.
_DECODE_ROWS = 512


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


def check_ebno(codecs, ebno_db: float, modem: ModemConfig):
    """Raise :class:`ConfigError` unless every chunk of every codec gets a
    finite noise variance at ``ebno_db``; NaN fails too.

    A one-bit chunk codes to the most channel bits per information bit, so
    it has the lowest code rate and the largest noise variance of any chunk.
    """
    rate = min((1 / block_layout(1, spec).coded_bits for spec in codecs), default=1.0)
    ChannelConfig(ebno_db=ebno_db, code_rate=rate,
                  samples_per_symbol=modem.samples_per_symbol)


def _rounds(max_bits: int):
    """Information bits of each chunk round: 25 000, doubling up to 200 000,
    until ``max_bits`` in all."""
    simulated, size = 0, 25_000
    while simulated < max_bits:
        n_bits = min(size, max_bits - simulated)
        yield n_bits
        simulated += n_bits
        size = min(2 * size, 200_000)


def _scale(ebno_db: float, n_bits: int, coded_bits: int, modem: ModemConfig) -> float:
    """The noise scale of ``n_bits`` sent as ``coded_bits`` channel bits."""
    return noise_scale(ChannelConfig(ebno_db=ebno_db, code_rate=n_bits / coded_bits,
                                     samples_per_symbol=modem.samples_per_symbol))


def _channel(bits, codec: CodeSpec, modem: ModemConfig, ebno_db: float,
             z: np.ndarray) -> np.ndarray:
    """The hard decisions on ``bits`` coded, modulated and sent through AWGN
    whose stream of normals starts with ``z``, which a noise scale of 0
    leaves unread."""
    coded = apply_code(bits, codec)
    scale = _scale(ebno_db, bits.size, coded.size, modem)
    n = signal_length(coded.size, modem)

    def impair(start, samples):
        stop = start + samples.size
        add_noise(samples, z[start:stop], z[n + start:n + stop], scale)

    return transceive(coded, modem, impair if scale else None)


class _Point:
    """One Eb/N0 point's data stream and its per-codec error and bit counts."""

    def __init__(self, ebno_db: float, n_codecs: int, seed: int):
        self.ebno_db = ebno_db
        self.ebits = _ebno_entropy(ebno_db)
        self.data_rng = substream(seed, self.ebits, _DATA_TAG)
        self.errors = [0] * n_codecs
        self.bits_simulated = [0] * n_codecs


def run_grid(codecs, ebno_points, modem: ModemConfig, stop_rule: StopRule,
             seed: int) -> list[list[BerPoint]]:
    """Measure each codec's BER at each Eb/N0; one list of points per Eb/N0,
    in the order given, each equal to ``run_point`` per codec.

    The points run in groups, chunk round by chunk round, and a codec with
    a batch decoder (``decode_rows``) has each round's streams of a group
    decoded in one call; groups are as large as keep that call within
    ``_DECODE_ROWS`` segments (see the module docstring).
    """
    codecs = list(codecs)
    for ebno_db in ebno_points:
        check_ebno(codecs, ebno_db, modem)
    held = [i for i, spec in enumerate(codecs) if CODECS[spec.name].decode_rows]
    # rounds past the fourth are never longer than it
    longest = max(itertools.islice(_rounds(stop_rule.max_bits), 4))
    rows = max((block_layout(longest, codecs[i]).n_blocks for i in held), default=1)
    group = max(1, _DECODE_ROWS // rows)
    out = []
    for g0 in range(0, len(ebno_points), group):
        points = [_Point(e, len(codecs), seed) for e in ebno_points[g0:g0 + group]]
        _run_rounds(points, codecs, held, modem, stop_rule, seed)
        out.extend(_ber_points(p, stop_rule) for p in points)
    return out


def _run_rounds(points, codecs, held, modem, stop_rule, seed):
    simulated = 0
    for chunk_index, n_bits in enumerate(_rounds(stop_rule.max_bits)):
        running = [[i for i, e in enumerate(point.errors)
                    if e < stop_rule.min_bit_errors] for point in points]
        if not any(running):
            break
        simulated += n_bits
        streams = {i: [] for i in held}  # (point, bits, hard decisions)
        coded_bits = [block_layout(n_bits, spec).coded_bits for spec in codecs]
        reads = [2 * signal_length(c, modem) for c in coded_bits]
        # the normals each point's codecs read: none at an infinite Eb/N0
        normals = [max((reads[i] for i in ids
                        if _scale(point.ebno_db, n_bits, coded_bits[i], modem)),
                       default=0)
                   for point, ids in zip(points, running)]
        z = np.empty(max(normals))
        for point, ids, n_normals in zip(points, running, normals):
            if not ids:
                continue
            bits = point.data_rng.integers(0, 2, n_bits).astype(np.uint8)
            if n_normals:
                substream(_noise_seed(seed, point.ebits, chunk_index)).standard_normal(
                    out=z[:n_normals])
            for i in ids:
                hard = _channel(bits, codecs[i], modem, point.ebno_db, z)
                if i in streams:
                    streams[i].append((point, bits, hard))
                else:
                    decoded = strip_code(hard, codecs[i], n_bits)
                    point.errors[i] += int(np.count_nonzero(decoded != bits))
                point.bits_simulated[i] = simulated
        del z  # free the noise before the batch decodes
        for i, round_streams in streams.items():
            if round_streams:
                owners, data, hard = zip(*round_streams)
                wrong = _held_errors(np.stack(hard), np.stack(data), codecs[i])
                for point, w in zip(owners, wrong):
                    point.errors[i] += w


def _held_errors(hard, data, codec: CodeSpec) -> list[int]:
    """Bit errors of each row of ``hard`` decoded as one batch."""
    decoded = CODECS[codec.name].decode_rows(hard, codec)
    return np.count_nonzero(decoded != data, axis=1).tolist()


def _ber_points(point: _Point, stop_rule: StopRule) -> list[BerPoint]:
    points = []
    for e, n in zip(point.errors, point.bits_simulated):
        ci_low, ci_high = wilson_interval(e, n)
        points.append(BerPoint(ebno_db=float(point.ebno_db), measured_ber=e / n,
                               bit_errors=e, bits_simulated=n, ci_low=ci_low,
                               ci_high=ci_high,
                               low_confidence=e < stop_rule.min_bit_errors))
    return points


def run_points(codecs, ebno_db: float, modem: ModemConfig, stop_rule: StopRule,
               seed: int) -> list[BerPoint]:
    """Measure each codec's BER at one Eb/N0: :func:`run_grid` of one point."""
    return run_grid(codecs, [ebno_db], modem, stop_rule, seed)[0]


def run_point(spec: SweepSpec, ebno_db: float) -> BerPoint:
    """Measure the BER at one Eb/N0 value; deterministic given (seed, ebno_db)."""
    return run_points([spec.codec], ebno_db, spec.modem, spec.stop_rule, spec.seed)[0]


def run_sweep(spec: SweepSpec) -> list[BerPoint]:
    """Run every grid point; output sorted by Eb/N0."""
    return [p[0] for p in run_grid([spec.codec], sorted(spec.ebno_points),
                                   spec.modem, spec.stop_rule, spec.seed)]


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
