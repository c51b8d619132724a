"""Monte Carlo BER engine: codecs + modem + AWGN channel, with oracles.

Each sweep point runs the pipeline (random info bits -> encode -> GMSK
over AWGN at rate-adjusted Eb/N0 -> hard decisions -> decode -> compare) in
growing chunks until the stop rule is met.  Points derive
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
once and streams its normals once, in chunks of whole frames: a codec's
signal of ``m`` samples reads the first ``2 m`` normals, ``z[:m]`` onto I
and ``z[m:2m]`` onto Q, the stream :func:`~gmsklink.channel.awgn` would draw
for it alone.  A codec whose noise scale is 0 (at an infinite Eb/N0) reads
none, and a point where no codec reads any keys no noise stream.

No waveform of a whole stream and no buffer of a point's normals is made.
The receiver keeps one number per bit, and that number is linear in the
signal and the noise, so codec decision ``k`` is
``table[key] + scale * d_k * N_k < 0``: the noiseless part from the modem's
statistic table or the waveform of the decision's few symbols
(:class:`~gmsklink.modem.StatisticBlocks`), and ``N_k`` the receiver
filter's output on the normals of the component decision ``k`` reads,
summed chunk by chunk (:func:`~gmsklink.modem.add_filtered`).  The hard
decisions are those of ``demodulate(awgn(modulate(bits)))`` up to a
statistic within about 1e-15 of 0, where the two float evaluation orders
may disagree.

Decisions are made a block at a time as their noise completes
(:func:`_statistics`).  The odd decisions read I, which comes first, so
each keeps its sum until the stream's Q part, which the even ones read;
an even decision keeps a sum only while a chunk of Q feeds it.  After each
chunk of Q, the decisions whose frames have all been read are decided and
their signs packed 8 to a byte; the transmitter precodes, so the signs are
the hard bits the decoder reads.  At its peak a point's round holds each
noisy codec's odd sums (4 bytes per decision), one chunk of normals and
its filtered frames, and the packed decisions of the round's points.

Every codec keeps only its packed decisions and data bits until the end of
the round, when its streams of that round, one per point, are decoded in
one call: the Viterbi decoder's cost per call is mostly per trellis step,
so a wide batch amortises it, and the block decoders take all their blocks
as one array.  Each codec's streams are freed once stacked for its call,
and its decode's arrays once it returns, so no two codecs' batches are
held at once.  Points run in groups whose
round holds at most ``_GROUP_BITS`` information bits.  Since every point
keeps its own keys, the results are those of running each point alone.

:func:`run_grid` is the one sweep entry; :func:`run_point` is its case of
one codec at one Eb/N0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# modulate, awgn, demodulate and strip_code stay bound here for the
# benchmark's tracer
from .channel import ChannelConfig, awgn, noise_scale, substream  # noqa: F401
from .errors import ConfigError
from .fec import CODECS, CodeSpec, apply_code, block_layout, strip_code  # noqa: F401
from .modem import (ModemConfig, StatisticBlocks, add_filtered,  # noqa: F401
                    constants, demodulate, modulate, signal_length,
                    theoretical_ber)

_WILSON_Z = 1.959963984540054  # two-sided 95%

# domain separators for substream derivation
_DATA_TAG = 0x6D6B
_NOISE_TAG = 0x6E7A

# Most information bits a group's round holds, unless one point's round
# alone has more: 512 segments of 512 bits for the convolutional code,
# whose Viterbi time per segment stops falling at about that batch width,
# with a traceback state of 2.1 MB of packed choices plus one 8-step stage
# of 0.25 MB.
_GROUP_BITS = 512 * 512

# Normals a point draws at a time, rounded down to whole frames.  Chunks
# of 16 Ki normals cut the traced peak of a sweep at the benchmark's
# sweep-dense shape from 2.95 to 2.15 MiB, but made its passes about 13 %
# slower (best of 10, 2-vCPU Xeon).
_CHUNK_NORMALS = 1 << 16

# Data bits drawn at a time: a 128 KiB int64 draw, not one of 8 bytes per
# bit of the round.
_DATA_SLICE = 1 << 14


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


def _statistics(coded, scales, modem: ModemConfig, rng):
    """Yield ``(i, stat)``: the statistic of the next block of stream
    ``i``'s decisions, with AWGN of its noise scale whose normals are the
    stream of ``rng``; each stream's blocks come in order and cover it.

    Stream ``i``'s signal of ``f`` frames reads the first ``2 f sps``
    normals, frames ``[0, f)`` onto I and ``[f, 2 f)`` onto Q, as
    :func:`awgn` draws them; a scale of 0 reads none, and its stream is one
    block, made first.  The normals come in chunks of whole frames, each
    filtered once for every stream whose component spans it; a component
    that starts or ends inside a chunk filters its own frames, as it would
    alone, since a BLAS kernel may round a row differently beside other
    rows (OpenBLAS's Prescott kernel does).  I feeds the odd decisions,
    which keep one float each; Q feeds the even ones, which keep one only
    from the first undecided decision to the last one the chunk feeds.
    After each chunk of its Q part, a stream's decisions whose frames have
    all been read are one block, cut to a multiple of 8 decisions unless it
    ends the stream, so that each block's signs pack into whole bytes.
    """
    c = constants(modem)
    sps, frames = modem.samples_per_symbol, c.taps.shape[1]
    blocks = [StatisticBlocks(bits, modem) for bits in coded]
    for i, scale in enumerate(scales):
        if not scale:
            yield i, blocks[i].noiseless(blocks[i].size)
            blocks[i] = None
    noisy = [i for i, scale in enumerate(scales) if scale]
    size = [bits.size for bits in coded]
    length = [signal_length(n, modem) // sps for n in size]  # frames a component
    odd = {i: np.zeros(size[i] // 2) for i in noisy}
    even = {i: (0, np.empty(0)) for i in noisy}  # (first decision, sums)
    done = dict.fromkeys(noisy, 0)  # the first undecided decision
    total = max((2 * length[i] for i in noisy), default=0)
    step = max(1, _CHUNK_NORMALS // sps)
    z = np.empty(min(step, total) * sps)
    for g0 in range(0, total, step):
        g1 = min(g0 + step, total)
        rng.standard_normal(out=z[:(g1 - g0) * sps])
        part = _filter(z, 0, g1 - g0, c)
        for i in noisy:
            n, f, k = size[i], length[i], done[i]
            if k == n:
                continue  # decided before its last frames were read
            if g0 < f:
                add_filtered(odd[i], part if g1 <= f else _filter(z, 0, f - g0, c),
                             g0, 1, c)
            a, b = max(g0, f), min(g1, 2 * f)
            if a >= b:
                continue
            # the even decisions from the first undecided one (a multiple
            # of 8) to the last one these frames feed, with the sums carried
            # from the last chunk
            v0, sums = even[i]
            carried = sums[(k - v0) // 2:]
            sums = np.zeros(max(0, min(b - f - c.q, n) - k + 1) // 2)
            sums[:carried.size] = carried
            add_filtered(sums, part if (a, b) == (g0, g1) else _filter(z, a - g0, b - g0, c),
                         a - f, k, c)
            even[i] = k, sums
            ready = n if b == 2 * f else min(n, max(k, (b - f - c.q - frames + 1) & ~7))
            if ready == k:
                continue
            noise = np.empty(ready - k)
            noise[::2] = sums[:(ready - k + 1) // 2]
            noise[1::2] = odd[i][k // 2:ready // 2]
            yield i, blocks[i].statistic(noise, scales[i])
            done[i] = ready
            if ready == n:
                blocks[i] = odd[i] = even[i] = None


def _filter(z: np.ndarray, m0: int, m1: int, c) -> np.ndarray:
    """Frames ``[m0, m1)`` of the normals ``z`` times the receiver taps."""
    sps = c.taps.shape[0]
    return z[m0 * sps:m1 * sps].reshape(-1, sps) @ c.taps


def _decide(coded, scales, modem: ModemConfig, rng) -> list:
    """The hard decisions on each coded stream sent through AWGN of its
    noise scale, whose normals are the stream of ``rng``, packed by
    ``np.packbits``: the signs of :func:`_statistics`'s blocks, each packed
    as it comes."""
    packed = [np.empty(-(-bits.size // 8), dtype=np.uint8) for bits in coded]
    made = [0] * len(coded)  # decisions packed
    for i, stat in _statistics(coded, scales, modem, rng):
        k = made[i]
        packed[i][k // 8:(k + stat.size + 7) // 8] = np.packbits(stat < 0)
        made[i] = k + stat.size
    return packed


def _data_bits(rng, n_bits: int) -> np.ndarray:
    """The ``uint8`` bits of ``rng.integers(0, 2, n_bits)``, drawn in slices
    of at most ``_DATA_SLICE``: the slices continue one stream, so no
    ``int64`` draw spans the round."""
    bits = np.empty(n_bits, dtype=np.uint8)
    for a in range(0, n_bits, _DATA_SLICE):
        bits[a:a + _DATA_SLICE] = rng.integers(0, 2, min(_DATA_SLICE, n_bits - a))
    return bits


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

    The points run in groups, chunk round by chunk round, and each codec's
    streams of a group's round are decoded in one call; a group's round
    holds at most ``_GROUP_BITS`` information bits, unless one point's
    alone has more (see the module docstring).
    """
    codecs = list(codecs)
    for ebno_db in ebno_points:
        check_ebno(codecs, ebno_db, modem)
    # rounds past the fourth are never longer than it
    longest = max(itertools.islice(_rounds(stop_rule.max_bits), 4))
    group = max(1, _GROUP_BITS // longest)
    out = []
    for g0 in range(0, len(ebno_points), group):
        points = [_Point(e, len(codecs), seed) for e in ebno_points[g0:g0 + group]]
        _run_rounds(points, codecs, modem, stop_rule, seed)
        out.extend(_ber_points(p, stop_rule) for p in points)
    return out


def run_point(codec: CodeSpec, ebno_db: float, modem: ModemConfig,
              stop_rule: StopRule, seed: int) -> BerPoint:
    """Measure one codec's BER at one Eb/N0: :func:`run_grid` of one codec
    and one point.  The package calls ``run_grid``; this stays because the
    benchmark's tracer wraps ``gmsklink.link.run_point``."""
    return run_grid([codec], [ebno_db], modem, stop_rule, seed)[0][0]


def _run_rounds(points, codecs, modem, stop_rule, seed):
    simulated = 0
    for chunk_index, n_bits in enumerate(_rounds(stop_rule.max_bits)):
        running = [[i for i, e in enumerate(point.errors)
                    if e < stop_rule.min_bit_errors] for point in points]
        if not any(running):
            break
        simulated += n_bits
        held = [[] for _ in codecs]  # each codec's (point, bits, packed decisions)
        for point, ids in zip(points, running):
            if not ids:
                continue
            bits = _data_bits(point.data_rng, n_bits)
            coded = [apply_code(bits, codecs[i]) for i in ids]
            scales = [_scale(point.ebno_db, n_bits, c.size, modem) for c in coded]
            # a point whose codecs read no noise keys no stream
            rng = (substream(_noise_seed(seed, point.ebits, chunk_index))
                   if any(scales) else None)
            for i, hard in zip(ids, _decide(coded, scales, modem, rng)):
                held[i].append((point, bits, hard))
                point.bits_simulated[i] = simulated
            del coded  # free the point's coded streams before the decodes
        for i, codec in enumerate(codecs):
            if held[i]:
                _decode_round(held, i, codec, n_bits)


def _decode_round(held, i, codec, n_bits):
    """Decode codec ``i``'s streams of a round in one call and add each
    point's bit errors.  Taken out of ``held``, the streams are freed once
    stacked and the stack once decoded; the decode's arrays go on return,
    so none of them is alive in the next codec's decode or the next
    round."""
    owners, data, packed = zip(*held[i])
    held[i] = None
    hard = np.unpackbits(np.stack(packed), axis=1,
                         count=block_layout(n_bits, codec).coded_bits)
    del packed
    decoded, _, _ = CODECS[codec.name].decode(hard, codec, n_bits)
    del hard
    wrong = np.count_nonzero(decoded != np.stack(data), axis=1)
    for point, w in zip(owners, wrong.tolist()):
        point.errors[i] += w


def _ber_points(point: _Point, stop_rule: StopRule) -> list[BerPoint]:
    points = []
    for e, n in zip(point.errors, point.bits_simulated):
        ci_low, ci_high = wilson_interval(e, n)
        points.append(BerPoint(ebno_db=float(point.ebno_db), measured_ber=e / n,
                               bit_errors=e, bits_simulated=n, ci_low=ci_low,
                               ci_high=ci_high,
                               low_confidence=e < stop_rule.min_bit_errors))
    return points


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
