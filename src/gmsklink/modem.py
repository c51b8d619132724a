"""GMSK baseband modulator/demodulator and its closed-form BER model.

The modulator is continuous-phase: Gaussian-filtered frequency pulses with
modulation index 0.5, so every bit advances the carrier phase by +-pi/2.  It
is table-driven: each symbol period's samples are a power of j (the pulses
that have ended) times a row of a small phasor table indexed by the window
of symbols whose pulses are still in flight, so no sample needs its own
phase accumulation or complex exponential.  The demodulator is a coherent
threshold receiver: a Gaussian predetection lowpass (default 3-dB bandwidth
0.5/T), evaluated only at the symbol-rate decision instants, per-bit
derotation by powers of j, and a sign decision.  The transmitter always
precodes differentially, so those decisions are the information bits.

The value a decision takes the sign of is linear in the signal and the
noise.  :class:`StatisticBlocks` computes it a block of the even or the
odd decisions at a time, from the waveform of only the few symbols the
decision's frames read
or from a table of such values, and the noise part from the receiver
filter applied to the noise alone (:func:`add_filtered`).  The BER engine
decides every bit that way;
``modulate``, ``awgn`` and ``demodulate`` stay as the library path and as
its oracle.  Everything these derive from a :class:`ModemConfig` is built
once, on first use (:func:`constants`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FramingError, as_bits

MODULATION_INDEX = 0.5

# Documented BT -> alpha table for the BER bound P_e = Q(sqrt(2 alpha Eb/N0)).
# Anchored at the classic literature values (0.68 at BT=0.25, 0.85 in the MSK
# limit, reached for practical purposes by BT=1); linear in BT between the
# anchors, clamped outside.  See README for the calibration discussion.
ALPHA_ANCHORS = ((0.25, 0.68), (1.0, 0.85))

# Exact powers of j (j**k = _JPOW[k % 4]).
_JPOW = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])

# A channel symbol's step of the quarter turns, mod 2**16 (see _modulate_tx).
_TURNS = np.array([2**16 - 1, 1], dtype=np.uint16)

# The frequency of a channel symbol, and of none (see _modulate_tx).
_LEVELS = np.array([-1.0, 1.0, 0.0, 0.0])

# Sign of the filter-output component that is decision k's derotated real
# part, by k % 4 (see demodulate).
_DEROTATE = np.array([-1.0, -1.0, 1.0, 1.0])

# Window delays per modulator phasor table: a table has 4 * 2**_TABLE_BITS
# rows of samples_per_symbol phasors, so it stays small for any pulse span.
_TABLE_BITS = 8

# Multiply-adds per receiver matrix product (decisions * 2 sps * 2), half
# the size at which OpenBLAS starts worker threads: their CPU time would be
# spent on top of the pass instead of saved from it.  It also bounds the
# taps times the decisions read from one waveform slice (_noiseless).
_PRODUCT_SIZE = 1 << 17

# Widest window of a statistic table, which bounds its memory at
# 2 * 2**_KEY_BITS doubles (256 KiB): a decision's symbols (2 * span + 1
# plus its frames less one; 10 at the default modem, 12 at a span of 4)
# and the data bit before them, in a uint16 key.  Wider configs (spans of 6
# and up, very narrow receiver filters) have no table.
_KEY_BITS = 14

# Decisions of one component whose table keys and values are made at a
# time, so that no key or value array spans a stream.  At 16 Ki decisions
# (a 128 KiB block of values) a block's fixed cost is lost in its work;
# blocks of 4 Ki made a sweep pass's statistic about 18 % slower.  The
# engine's blocks are smaller: one chunk of normals completes about 4 Ki
# decisions of a component.
_GATHER_BLOCK = 1 << 14

# Narrowest receiver lowpass: 64 symbol periods each side, as for the pulse.
_RX_BT_MIN = math.sqrt(math.log(2.0)) / (32.0 * math.pi)


def qfunc(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt(2)) / 2.

    Elementwise over an array of any shape; a 0-d input gives a numpy float.
    Uses :func:`math.erfc` one element at a time, which suits the few dozen
    pulse taps and Eb/N0 points it is called with.
    """
    z = np.asarray(x, dtype=float) / np.sqrt(2.0)
    return 0.5 * np.array([math.erfc(v) for v in z.flat]).reshape(z.shape)


def alpha_for_bt(bt_product: float) -> float:
    """Interpolated BER-model alpha for a given BT product."""
    if not bt_product > 0:
        raise ConfigError(f"BT product must be positive, got {bt_product}")
    (bt_lo, a_lo), (bt_hi, a_hi) = ALPHA_ANCHORS
    if bt_product <= bt_lo:
        return a_lo
    if bt_product >= bt_hi:
        return a_hi
    frac = (bt_product - bt_lo) / (bt_hi - bt_lo)
    return a_lo + frac * (a_hi - a_lo)


@dataclass(frozen=True)
class ModemConfig:
    """GMSK waveform parameters.

    bt_product: 3-dB bandwidth of the Gaussian filter times the bit period.
    samples_per_symbol: oversampling factor, even and >= 4.
    pulse_span_symbols: frequency-pulse truncation, in bit periods each side.
    bit_rate: bits per second.
    rx_bt: receiver predetection lowpass 3-dB bandwidth times the bit period,
        at least sqrt(ln 2) / (32 pi), about 0.0083.
    """

    bt_product: float = 0.3
    samples_per_symbol: int = 8
    pulse_span_symbols: int = 3
    bit_rate: float = 1e4
    rx_bt: float = 0.5

    def __post_init__(self):
        if not self.bt_product > 0:
            raise ConfigError(f"BT product must be positive, got {self.bt_product}")
        sps = self.samples_per_symbol
        if sps < 4 or sps % 2 != 0:
            raise ConfigError(f"samples_per_symbol must be even and >= 4, got {sps}")
        if not self.pulse_span_symbols >= 1:
            raise ConfigError("pulse_span_symbols must be >= 1")
        if self.bt_product <= 0.5 and self.pulse_span_symbols < 2:
            raise ConfigError(
                f"pulse_span_symbols={self.pulse_span_symbols} is below the "
                f"minimum of 2 for BT={self.bt_product}"
            )
        if not self.bit_rate > 0:
            raise ConfigError("bit_rate must be positive")
        if not self.rx_bt >= _RX_BT_MIN:
            raise ConfigError(f"rx_bt must be >= {_RX_BT_MIN:.6g} (a lowpass of at most "
                              f"64 symbol periods each side), got {self.rx_bt}")


@dataclass(frozen=True)
class BasebandSignal:
    """Complex baseband samples at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: float

    def __len__(self):
        return len(self.samples)


def gaussian_frequency_pulse(config: ModemConfig) -> np.ndarray:
    """Sampled GMSK frequency pulse (Gaussian convolved with one-bit rect).

    Returns ``(2 * span + 1) * sps`` taps, symmetric about the pulse centre
    and normalised to sum to exactly 0.5, so a single bit accumulates a total
    phase of pi/2 when the taps drive ``pi * cumsum``.
    """
    sps = config.samples_per_symbol
    span = config.pulse_span_symbols
    n = (2 * span + 1) * sps
    # Sample instants in bit periods; n is even so the grid straddles t=0.
    t = (np.arange(n) - (n - 1) / 2.0) / sps
    c = 2.0 * np.pi * config.bt_product / np.sqrt(np.log(2.0))
    taps = 0.5 * (qfunc(c * (t - 0.5)) - qfunc(c * (t + 0.5))) / sps
    total = taps.sum()
    if total <= 0:
        raise ConfigError("degenerate frequency pulse; check BT and span")
    return taps * (0.5 / total)


def _precode(bits: np.ndarray) -> np.ndarray:
    # a[k] = d[k] XOR d[k-1], with d[-1] = 0
    out = bits.copy()
    out[1:] ^= bits[:-1]
    return out


def _window_tables(cumtaps: np.ndarray) -> list:
    """Phasor tables for the pulses still in flight, one per group of delays.

    ``cumtaps`` is the running sum of the frequency pulse as a
    ``(window, sps)`` array: row ``d`` is the phase, over pi, that one +1
    symbol has built up ``d`` symbols after its pulse began.  The window is
    split into groups of at most ``_TABLE_BITS`` delays; group ``[d0, d1)``
    gets a table whose row ``i`` is ``exp(j pi sum_d s_d cumtaps[d])`` with
    ``s_d = +1`` where bit ``d - d0`` of ``i`` is set and -1 elsewhere.
    The first table is stacked four times, rotated by 1, j, -1 and -j, so
    one lookup at ``r * 2**bits + i`` also applies the rotation ``j**r``.
    Returns ``[(d0, d1, table), ...]``.
    """
    window, sps = cumtaps.shape
    groups = -(-window // _TABLE_BITS)
    edges = [g * window // groups for g in range(groups + 1)]
    tables = []
    for d0, d1 in zip(edges, edges[1:]):
        width = d1 - d0
        signs = 2.0 * ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1) - 1.0
        table = np.exp(1j * np.pi * (signs @ cumtaps[d0:d1]))
        if d0 == 0:
            table = (_JPOW[:, None, None] * table).reshape(-1, sps)
        tables.append((d0, d1, table))
    return tables


def receiver_lowpass(config: ModemConfig) -> np.ndarray:
    """Predetection Gaussian lowpass impulse response (odd length, unit DC gain)."""
    sps = config.samples_per_symbol
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * config.rx_bt)  # bit periods
    half = max(1, int(np.ceil(4.0 * sigma * sps)))
    t = np.arange(-half, half + 1) / sps
    # a tiny sigma overflows the square: exp(-inf) is the 0 tap it should be
    with np.errstate(over="ignore"):
        h = np.exp(-0.5 * (t / sigma) ** 2)
    return h / h.sum()


@dataclass(frozen=True)
class ModemConstants:
    """What the modulator, the receiver and :class:`StatisticBlocks` derive
    from one :class:`ModemConfig`; see :func:`constants`.

    cumtaps: the running sum of the frequency pulse as a ``(window, sps)``
        array, ``window = 2 * pulse_span_symbols + 1``.
    tables: the modulator's phasor tables (see :func:`_window_tables`).
    taps: the receiver lowpass as an ``(sps, frames)`` array: decision
        ``k`` filters one signal component as
        ``sum_t frame[k + q + t] @ taps[:, t]``, where frame ``m`` is that
        component's ``sps`` samples of symbol period ``m`` and zero outside
        the signal.
    q: the first frame decision 0 reads; negative for wide receiver filters.
    table: the statistic table (see :class:`StatisticBlocks`), or None
        where its key would be wider than ``_KEY_BITS`` bits; a cache of
        the waveform chain's statistic (see :func:`constants`).
    """

    cumtaps: np.ndarray
    tables: tuple
    taps: np.ndarray
    q: int
    table: np.ndarray | None

    @property
    def key_bits(self) -> int:
        """Symbols a decision's frames read: its window plus its frames."""
        return self.cumtaps.shape[0] + self.taps.shape[1] - 1


@functools.lru_cache(maxsize=32)
def constants(config: ModemConfig) -> ModemConstants:
    """The :class:`ModemConstants` of ``config``, built on its first use and
    shared, read-only, by every later call."""
    sps = config.samples_per_symbol
    window = 2 * config.pulse_span_symbols + 1
    cumtaps = np.cumsum(gaussian_frequency_pulse(config)).reshape(window, sps)
    h = receiver_lowpass(config)
    delay = window * sps // 2 + sps // 2 - 1 + (h.size - 1) // 2
    # The filter output at decision k is the sum over j of
    # samples[delay - (h.size - 1) + k * sps + j] * h[-1 - j]; that window
    # starts r samples into frame q + k.
    q, r = divmod(delay - (h.size - 1), sps)
    frames = (r + h.size - 1) // sps + 1
    taps = np.zeros(frames * sps)
    taps[r:r + h.size] = h[::-1]
    taps = np.ascontiguousarray(taps.reshape(frames, sps).T)
    tables = tuple(_window_tables(cumtaps))
    for array in (cumtaps, taps, *(t for _, _, t in tables)):
        array.flags.writeable = False
    c = ModemConstants(cumtaps, tables, taps, q, None)
    if c.key_bits > _KEY_BITS:
        return c
    # the table caches the waveform chain: the inner decisions of a de
    # Bruijn sequence of channel symbols read every window of them once, at
    # the parity of the ones before it.  The data bits those symbols precode
    # are their running parity; the complement of a key's data bits
    # precodes to the same symbols at the other parity, whose value is the
    # negation
    tx = _de_bruijn(c.key_bits)
    parity = _parity(tx)
    lo, hi = _inner(c, tx.size)
    key = _keys(c, parity[1:], lo + c.q - c.cumtaps.shape[0] + 1, hi - lo)
    table = np.empty(2 << c.key_bits)
    table[key] = value = _noiseless(c, tx, parity, lo, hi)
    table[key ^ ((2 << c.key_bits) - 1)] = -value
    table.flags.writeable = False
    return ModemConstants(cumtaps, tables, taps, q, table)


def _de_bruijn(order: int) -> np.ndarray:
    """``2**order + order - 1`` bits holding every window of ``order`` bits
    once: ``order`` zeros, then a one wherever its window is new (Martin)."""
    mask, last, out, seen = (1 << order) - 1, 0, [0] * order, {0}
    for _ in range(mask):
        last = (last << 1 | 1) & mask
        if last in seen:
            last ^= 1
        seen.add(last)
        out.append(last & 1)
    return np.array(out, dtype=np.uint8)


def signal_length(num_bits: int, config: ModemConfig) -> int:
    """Number of samples :func:`modulate` makes of ``num_bits`` bits."""
    return (num_bits + 2 * config.pulse_span_symbols) * config.samples_per_symbol


def modulate(bits, config: ModemConfig) -> BasebandSignal:
    """Modulate a bit sequence onto a unit-envelope GMSK baseband waveform.

    Precoded symbol 1 maps to +1 frequency deviation, symbol 0 to -1.  Output length is
    ``(len(bits) + 2 * pulse_span_symbols) * samples_per_symbol`` samples.
    """
    tx = _precode(as_bits(bits))
    return BasebandSignal(samples=_modulate_tx(tx, constants(config)),
                          sample_rate=config.bit_rate * config.samples_per_symbol)


def _modulate_tx(tx: np.ndarray, c: ModemConstants) -> np.ndarray:
    """The samples of the (precoded) nonempty uint8 channel symbols ``tx``.

    Sample ``m * sps + p`` has phase ``(pi/2) * (sum of the symbols whose
    pulse has ended) + pi * sum_d sym[m - d] * cumtaps[d * sps + p]`` over
    the ``2 * span + 1`` pulses still in flight.  The first term is an exact
    rotation by a power of j; the second depends only on the local symbol
    window and ``p``, so it is looked up in :func:`_window_tables`.  The
    ``2 * span`` rows at each end, whose window reaches past the symbol
    sequence, are evaluated directly.
    """
    window, sps = c.cumtaps.shape
    n = tx.size
    rows = n + window - 1
    out = np.empty((rows, sps), dtype=complex)
    tx16 = tx.astype(np.uint16)
    # quarter_turns[m] = (sum of sym[k] for k <= m - window) mod 4, summed
    # mod 2**16 (a symbol of -1 is 2**16 - 1), which keeps the sum mod 4
    quarter_turns = np.zeros(rows, dtype=np.uint16)
    np.cumsum(_TURNS[tx[:n - 1]], dtype=np.uint16, out=quarter_turns[window:])
    quarter_turns &= 3

    # Interior rows window-1 .. n-1: every pulse in flight is a real symbol.
    # Table indices are below 4 * 2**_TABLE_BITS (uint16).
    a, b = window - 1, n
    if a < b:
        interior = out[a:b]
        for d0, d1, table in c.tables:
            index = np.zeros(b - a, dtype=np.uint16)
            for d in range(d0, d1):
                index |= tx16[a - d:b - d] << (d - d0)
            if d0 == 0:
                index |= quarter_turns[a:b] << (d1 - d0)
                np.take(table, index, axis=0, out=interior, mode="clip")
            else:
                interior *= table[index]

    # Edge rows, whose window reaches past the symbols: sum the window
    # directly, with zero symbols past either end, all in one small product.
    # Row m reads symbol k = m - d at delay d, which lies outside the
    # sequence where k, read as unsigned (so negative k too), is not below n.
    edge = np.concatenate((np.arange(window - 1), np.arange(max(n, window - 1), rows)))
    k = edge[:, None] - np.arange(window)
    outside = k.view(np.uintp) >= n
    symbols = _LEVELS[tx.take(k, mode="clip") | outside << 1]
    out[edge] = _JPOW[quarter_turns[edge], None] * np.exp(1j * np.pi * (symbols @ c.cumtaps))
    return out.ravel()


def _statistic(samples: np.ndarray, c: ModemConstants, num_bits: int) -> np.ndarray:
    """Each of the receiver's ``num_bits`` decisions before its sign, read
    from the waveform ``samples`` one decision block at a time.

    The signal is viewed as float frames of one symbol each (``sps``
    interleaved I/Q pairs).  Decision ``k`` is the sum over the few frames
    its filter window touches of ``frame[k + q + t] @ poly[t]``, where
    ``poly[t]`` holds that frame's share of the taps for I and Q, derotated
    by ``j**(k + 1)``: its real part is -Q, -I, +Q and +I of the filter
    output for ``k`` = 0, 1, 2 and 3 (mod 4).
    """
    window, sps = c.cumtaps.shape
    frames_per_decision = c.taps.shape[1]
    poly = np.zeros((frames_per_decision, 2 * sps, 2))
    poly[:, 0::2, 0] = c.taps.T
    poly[:, 1::2, 1] = c.taps.T
    n_frames = num_bits + window - 1
    step = max(1, _PRODUCT_SIZE // (4 * sps))
    frames = np.empty((min(step, num_bits) + frames_per_decision - 1, 2 * sps))
    y = np.empty((min(step, num_bits), 2))
    stat = np.empty(num_bits)
    for b0 in range(0, num_bits, step):
        b1 = min(b0 + step, num_bits)
        f0, f1 = c.q + b0, c.q + b1 + frames_per_decision - 1
        a, b = max(f0, 0), min(f1, n_frames)
        src = frames[:f1 - f0]
        # Zero frames stand in for the convolution's zero padding where the
        # filter window reaches past either end of the signal.
        src[:a - f0] = 0.0
        src[b - f0:] = 0.0
        if a < b:
            np.copyto(src[a - f0:b - f0].view(complex),
                      samples[a * sps:b * sps].reshape(b - a, sps))
        block = y[:b1 - b0]
        np.matmul(src[:b1 - b0], poly[0], out=block)
        for t in range(1, frames_per_decision):
            block += src[t:t + b1 - b0] @ poly[t]
        for r in range(4):
            k0 = b0 + (r - b0) % 4
            np.multiply(block[k0 - b0::4, (r + 1) & 1], _DEROTATE[r],
                        out=stat[k0:b1:4])
    return stat


def demodulate(signal: BasebandSignal, config: ModemConfig, num_bits: int) -> np.ndarray:
    """Recover ``num_bits`` hard bit decisions from a GMSK baseband signal.

    Compensates the modulator and receiver-filter group delays internally;
    raises :class:`FramingError` when the signal length or sample rate is
    inconsistent with ``config`` and ``num_bits``.  The predetection lowpass
    is evaluated only at the ``num_bits`` decision instants.
    """
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    sps = config.samples_per_symbol
    samples = np.asarray(signal.samples)
    expected = signal_length(num_bits, config)
    if samples.size != expected:
        raise FramingError(
            f"signal has {samples.size} samples, expected {expected} "
            f"for {num_bits} bits at {sps} samples/symbol"
        )
    nominal_rate = config.bit_rate * sps
    if abs(signal.sample_rate - nominal_rate) > 1e-9 * nominal_rate:
        raise FramingError(
            f"sample rate {signal.sample_rate} does not match config ({nominal_rate})"
        )
    return (_statistic(samples, constants(config), num_bits) < 0).view(np.uint8)


def _parity(tx: np.ndarray) -> np.ndarray:
    """``parity[i]``, the parity of the ones in ``tx[:i]``, for i <= tx.size."""
    parity = np.zeros(tx.size + 1, dtype=np.uint8)
    np.logical_xor.accumulate(tx.view(bool), out=parity[1:].view(bool))
    return parity


def _inner(c: ModemConstants, n: int) -> tuple[int, int]:
    """The inner decisions ``[lo, hi)`` of ``n`` channel symbols: those
    whose frames all lie in the signal and carry no symbol past either end
    (see :class:`StatisticBlocks`)."""
    lo = min(max(0, c.cumtaps.shape[0] - 1 - c.q), n)
    return lo, max(lo, n - c.taps.shape[1] + 1 - c.q)


def _keys(c: ModemConstants, bits: np.ndarray, s: int, m: int,
          stride: int = 1) -> np.ndarray:
    """The statistic-table keys of ``m`` inner decisions ``stride`` apart,
    the first of whose windows starts at symbol ``s`` of the data bits
    ``bits``: the ``key_bits + 1`` bits from ``bits[s - 1]`` on, with a 0
    before the stream (see :class:`StatisticBlocks`).

    The window bits take ``log2(key_bits)`` array passes, not ``key_bits``,
    which keeps a block's fixed cost low.  The bits are first read as
    digits of ``stride`` bits, so every pass runs over one digit per key:
    ``run[i]`` holds the ``width`` digits from digit ``i`` on, ``width``
    doubles from 1, and the key takes in the run of each binary digit of
    its digit count, and is cut to ``key_bits + 1`` bits.
    """
    wanted = c.key_bits + 1
    digits = -(-wanted // stride)
    raw = np.zeros(stride * (m + digits - 1), dtype=np.uint16)
    a = max(s - 1, 0)
    window = bits[a:s - 1 + raw.size]  # short by up to stride - 1 at the stream's end
    raw[a - s + 1:a - s + 1 + window.size] = window
    run = raw[::stride]
    for r in range(1, stride):
        run = run | raw[r::stride] << r
    key, width, done = None, 1, 0
    while True:
        if digits & width:
            if key is None:  # the first run taken starts the key
                key = run[:m].copy()
            else:
                key |= run[done:done + m] << stride * done
            done += width
        if done == digits:
            break
        run = run[:-width] | run[width:] << stride * width
        width *= 2
    if stride * digits > wanted:
        key &= (1 << wanted) - 1
    return key


def _noiseless(c: ModemConstants, tx: np.ndarray, parity: np.ndarray,
               k0: int, k1: int) -> np.ndarray:
    """The noiseless statistic of decisions ``[k0, k1)`` on the channel
    symbols ``tx``, in blocks of ``_PRODUCT_SIZE // taps.size`` decisions.

    Block ``[b0, b1)`` reads symbols ``[s, e)``, from ``b0``'s window to
    ``b1 - 1``'s last frame (``s <= b0 <= b1 <= e``, as ``q <= span`` and
    ``q + frames >= 1``), whose waveform gives it up to a sign: the symbols
    before ``s`` turn that waveform by ``2 * ones - s`` quarter turns, and
    its receiver derotates by ``s`` fewer, which leaves ``(-1)**parity[s]``.
    """
    n, window, frames = tx.size, c.cumtaps.shape[0], c.taps.shape[1]
    block = max(1, _PRODUCT_SIZE // c.taps.size)
    out = np.empty(k1 - k0)
    for b0 in range(k0, k1, block):
        b1 = min(b0 + block, k1)
        s = max(b0 + c.q - window + 1, 0)
        e = min(b1 + c.q + frames - 1, n)
        stat = _statistic(_modulate_tx(tx[s:e], c), c, e - s)[b0 - s:b1 - s]
        out[b0 - k0:b1 - k0] = -stat if parity[s] else stat
    return out


class StatisticBlocks:
    """The decision statistic of one bit stream, made for one of its two
    components at a time, the even decisions (``first = 0``) or the odd
    ones (``first = 1``), a block of consecutive decisions of that parity
    at a time, in order, from their filtered noise.

    The value is linear in the signal and the noise.  The noiseless part of
    an inner decision, whose frames all lie in the signal and carry no
    symbol past either end, depends on nothing but its ``key_bits`` symbols
    and the parity of the ones before them (Laurent, IEEE Trans. Commun.
    34(2), 1986): the symbols before the window turn it by
    ``2 * ones - ended`` quarter turns, the derotation by ``k + 1`` more,
    and ``ended = k + q - window + 1``, so the total is
    ``window - q + 2 * ones`` (mod 4).  The data bits hold both: symbol
    ``i`` is ``bits[i] ^ bits[i - 1]``, and the ones before symbol ``s``
    have the parity of ``bits[s - 1]`` (with a 0 before the stream).  So
    those values are read from the statistic table at the ``key_bits + 1``
    data bits from ``bits[s - 1]`` on, where ``s`` is the window's first
    symbol, with keys made at stride 2 for ``_GATHER_BLOCK`` decisions of
    one component at a time: each value is gathered once.  The first and
    last few decisions of a tabled stream, and every decision of a config
    without a table, in :func:`_noiseless`'s blocks, are read from the
    waveform of their symbols.  Each such block is made once: the half of
    its values the other component reads is kept until it reads them.  No
    other array spans the stream: a table gather makes its keys from the
    data bits, and a waveform block its channel symbols and their parity,
    alone.  A block may start and end at any decision: each value is the
    same float whatever the blocks.
    """

    def __init__(self, bits, config: ModemConfig):
        self._bits = as_bits(bits)
        self._c = c = constants(config)
        self.size = n = self._bits.size
        # the inner decisions, read from the table; none without one
        self._lo, self._hi = _inner(c, n) if c.table is not None else (0, 0)
        # the waveform blocks' halves not yet read, by (first decision of
        # the block, parity)
        self._halves = {}
        self._next = [0, 1]  # the first decision of each component's next block

    def statistic(self, first: int, noise: np.ndarray, scale: float) -> np.ndarray:
        """The statistic of the next ``noise.size`` decisions of component
        ``first``, made in place in ``noise``, their filtered unit noise:
        scaled and derotated, then plus the noiseless part."""
        k0 = self._next[first]
        for j in (0, 1):
            noise[j::2] *= _DEROTATE[(k0 + 2 * j) % 4] * scale
        for a, values in self._pieces(first, noise.size):
            noise[a:a + values.size] += values
        return noise

    def noiseless(self, first: int, m: int) -> np.ndarray:
        """The noiseless statistic of the next ``m`` decisions of component
        ``first``."""
        stat = np.empty(m)
        for a, values in self._pieces(first, m):
            stat[a:a + values.size] = values
        return stat

    def _pieces(self, first: int, m: int):
        # (offset, values) covering the noiseless part of the component's
        # next m decisions
        c, k0 = self._c, self._next[first]
        k1 = k0 + 2 * m
        self._next[first] = k1
        k = k0
        while k < k1:
            if self._lo <= k < self._hi:
                b = min(k1, self._hi, k + 2 * _GATHER_BLOCK)
                s = k + c.q - c.cumtaps.shape[0] + 1
                key = _keys(c, self._bits, s, (b - k + 1) // 2, stride=2)
                values = np.take(c.table, key, mode="clip")
            else:
                values = self._waveform_half(k, (k1 - k + 1) // 2)
            yield (k - k0) // 2, values
            k += 2 * values.size

    def _waveform_half(self, k: int, most: int) -> np.ndarray:
        """The noiseless statistic of decision ``k`` and of the next ones of
        its parity, at most ``most`` in all, in the waveform block ``[b0,
        b1)`` that holds ``k``: an edge of a tabled stream, or one of
        :func:`_noiseless`'s blocks.  The block is made once, when either
        component first reads it, and each half is dropped once read."""
        c, n = self._c, self.size
        if c.table is not None:
            b0, b1 = (0, self._lo) if k < self._lo else (self._hi, n)
        else:
            step = max(1, _PRODUCT_SIZE // c.taps.size)
            b0 = k - k % step
            b1 = min(b0 + step, n)
        if (b0, k % 2) not in self._halves:
            # the symbols _noiseless reads
            s = max(b0 + c.q - c.cumtaps.shape[0] + 1, 0)
            tx, parity = self._symbols(s, min(b1 + c.q + c.taps.shape[1] - 1, n))
            values = _noiseless(c, tx, parity, b0 - s, b1 - s)
            for p in (0, 1):
                half = values[(p - b0) % 2::2]
                if half.size:
                    self._halves[b0, p] = half.copy()
        half = self._halves[b0, k % 2]
        j = (k - b0) // 2
        values = half[j:j + most]
        if j + values.size == half.size:
            del self._halves[b0, k % 2]
        return values

    def _symbols(self, s: int, e: int):
        """The channel symbols ``[s, e)`` and, for ``i <= e - s``, the
        parity of the ones before symbol ``s + i``."""
        bits = self._bits
        # the precoding of bits[:s] telescopes: its ones have the parity of
        # bits[s - 1]
        before = bits[s - 1] if s else 0
        tx = _precode(bits[s:e])
        tx[:1] ^= before
        parity = _parity(tx)
        parity ^= before
        return tx, parity


def add_filtered(acc: np.ndarray, part: np.ndarray, frame: int, first: int,
                 c: ModemConstants) -> None:
    """Add filtered noise to the decisions ``first, first + 2, ...``, whose
    sums ``acc`` holds in that order.

    ``part`` is frames ``frame, frame + 1, ...`` of one noise component
    ``@ c.taps``: ``part[m, t]`` is frame ``frame + m``'s share of decision
    ``frame + m - q - t``.  The shares are added ``t`` ascending; decisions
    outside ``acc`` are skipped.
    """
    for t in range(c.taps.shape[1]):
        k0 = max(frame - c.q - t, first)
        k0 += (k0 - first) % 2
        k1 = min(frame + part.shape[0] - c.q - t, first + 2 * acc.size)
        if k0 < k1:
            m0, j0 = k0 + c.q + t - frame, (k0 - first) // 2
            acc[j0:j0 + (k1 - k0 + 1) // 2] += part[m0:m0 + k1 - k0:2, t]


def theoretical_ber(ebno_db, alpha: float):
    """BER bound Q(sqrt(2 alpha Eb/N0)) for coherent GMSK detection."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    snr = 10.0 ** (np.asarray(ebno_db, dtype=float) / 10.0)
    return qfunc(np.sqrt(2.0 * alpha * snr))
