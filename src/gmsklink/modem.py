"""GMSK baseband modulator/demodulator and its closed-form BER model.

The modulator is continuous-phase: Gaussian-filtered frequency pulses with
modulation index 0.5, so every bit advances the carrier phase by +-pi/2.  It
is table-driven: each symbol period's samples are a power of j (the pulses
that have ended) times a row of a small phasor table indexed by the window
of symbols whose pulses are still in flight, so no sample needs its own
phase accumulation or complex exponential.  The demodulator is a coherent
threshold receiver: a Gaussian predetection lowpass (default 3-dB bandwidth
0.5/T), evaluated only at the symbol-rate decision instants, per-bit
derotation by powers of j, and a sign decision.  Differential precoding at
the transmitter (on by default) makes those decisions map directly to
information bits.
"""

from __future__ import annotations

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

# Sign of the filter-output component that is decision k's derotated real
# part, by k % 4 (see demodulate).
_DEROTATE = np.array([-1.0, -1.0, 1.0, 1.0])

# Window delays per modulator phasor table: a table has 4 * 2**_TABLE_BITS
# rows of samples_per_symbol phasors, so it stays small for any pulse span.
_TABLE_BITS = 8

# Multiply-adds per receiver matrix product (decisions * 2 sps * 2), half
# the size at which OpenBLAS starts worker threads: their CPU time would be
# spent on top of the pass instead of saved from it.
_PRODUCT_SIZE = 1 << 17


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
    rx_bt: receiver predetection lowpass 3-dB bandwidth times the bit period.
    differential_precoding: precode bits at the transmitter so receiver
        threshold decisions map directly to information bits.
    """

    bt_product: float = 0.3
    samples_per_symbol: int = 8
    pulse_span_symbols: int = 3
    bit_rate: float = 1e4
    rx_bt: float = 0.5
    differential_precoding: bool = True

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
        if not self.rx_bt > 0:
            raise ConfigError("rx_bt must be positive")


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


def signal_length(num_bits: int, config: ModemConfig) -> int:
    """Number of samples :func:`modulate` makes of ``num_bits`` bits."""
    return (num_bits + 2 * config.pulse_span_symbols) * config.samples_per_symbol


def _waveform_rows(bits: np.ndarray, config: ModemConfig):
    """The rows of :func:`modulate`'s waveform of ``bits``, any range at a time.

    Row ``m`` is the ``sps`` samples of symbol period ``m``.  Returns
    ``fill(r0, r1, out)``, which writes rows ``r0`` to ``r1 - 1`` into the
    ``(r1 - r0, sps)`` complex array ``out``; a row's samples do not depend
    on the range it is written in.
    """
    sps = config.samples_per_symbol
    tx = _precode(bits) if config.differential_precoding else bits
    n = tx.size
    window = 2 * config.pulse_span_symbols + 1
    rows = n + window - 1
    cumtaps = np.cumsum(gaussian_frequency_pulse(config)).reshape(window, sps)
    tables = _window_tables(cumtaps)
    tx16 = tx.astype(np.uint16)
    # quarter_turns[m] = (sum of sym[k] for k <= m - window) mod 4, summed
    # mod 2**16 (a symbol of -1 is 2**16 - 1), which keeps the sum mod 4
    quarter_turns = np.zeros(rows, dtype=np.uint16)
    np.cumsum(2 * tx16[:n - 1] - 1, dtype=np.uint16, out=quarter_turns[window:])
    quarter_turns &= 3

    # Edge rows, whose window reaches past the bit sequence: sum the window
    # directly, with zero symbols past either end, all in one small product.
    edge = np.r_[0:window - 1, max(n, window - 1):rows]
    k = edge[:, None] - np.arange(window)
    inside = (k >= 0) & (k < n)
    symbols = np.where(inside, 2.0 * tx[np.clip(k, 0, n - 1)] - 1.0, 0.0)
    local = symbols @ cumtaps
    edge_rows = _JPOW[quarter_turns[edge], None] * np.exp(1j * np.pi * local)

    def fill(r0, r1, out):
        # Interior rows window-1 .. n-1: every pulse in flight is a real
        # symbol.  Table indices are below 4 * 2**_TABLE_BITS (uint16).
        a, b = max(r0, window - 1), min(r1, n)
        if a < b:
            interior = out[a - r0:b - r0]
            for d0, d1, table in tables:
                index = np.zeros(b - a, dtype=np.uint16)
                for d in range(d0, d1):
                    index |= tx16[a - d:b - d] << (d - d0)
                if d0 == 0:
                    index |= quarter_turns[a:b] << (d1 - d0)
                    np.take(table, index, axis=0, out=interior, mode="clip")
                else:
                    interior *= table[index]
        e0, e1 = np.searchsorted(edge, (r0, r1))
        out[edge[e0:e1] - r0] = edge_rows[e0:e1]

    return fill


def modulate(bits, config: ModemConfig) -> BasebandSignal:
    """Modulate a bit sequence onto a unit-envelope GMSK baseband waveform.

    Bit 1 maps to +1 frequency deviation, bit 0 to -1.  Output length is
    ``(len(bits) + 2 * pulse_span_symbols) * samples_per_symbol`` samples.

    Sample ``m * sps + p`` has phase ``(pi/2) * (sum of the symbols whose
    pulse has ended) + pi * sum_d sym[m - d] * cumtaps[d * sps + p]`` over
    the ``2 * span + 1`` pulses still in flight.  The first term is an exact
    rotation by a power of j; the second depends only on the local symbol
    window and ``p``, so it is looked up in :func:`_window_tables`.  The
    ``2 * span`` rows at each end, whose window reaches past the bit
    sequence, are evaluated directly.
    """
    bits = as_bits(bits)
    out = np.empty((bits.size + 2 * config.pulse_span_symbols,
                    config.samples_per_symbol), dtype=complex)
    _waveform_rows(bits, config)(0, out.shape[0], out)
    return BasebandSignal(samples=out.ravel(),
                          sample_rate=config.bit_rate * config.samples_per_symbol)


def receiver_lowpass(config: ModemConfig) -> np.ndarray:
    """Predetection Gaussian lowpass impulse response (odd length, unit DC gain)."""
    sps = config.samples_per_symbol
    sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * config.rx_bt)  # bit periods
    half = max(1, int(np.ceil(4.0 * sigma * sps)))
    t = np.arange(-half, half + 1) / sps
    h = np.exp(-0.5 * (t / sigma) ** 2)
    return h / h.sum()


def _decisions(fill, config: ModemConfig, num_bits: int) -> np.ndarray:
    """The receiver's ``num_bits`` hard decisions, one decision block at a time.

    The signal is viewed as float frames of one symbol each (``sps``
    interleaved I/Q pairs); ``fill(a, b, out)`` writes frames ``a`` to
    ``b - 1`` into ``out``, a block's frames at a time.  Decision ``k`` is
    the sum over the few frames its filter window touches of
    ``frame[k + q + t] @ poly[t]``, where ``poly[t]`` holds that frame's
    share of the taps for I and Q.
    """
    sps = config.samples_per_symbol
    span = config.pulse_span_symbols
    h = receiver_lowpass(config)
    pulse_len = (2 * span + 1) * sps
    delay = pulse_len // 2 + sps // 2 - 1 + (h.size - 1) // 2
    # The filter output at decision k is the sum over j of
    # samples[delay - (h.size - 1) + k * sps + j] * h[-1 - j]; that window
    # starts r samples into frame q + k.
    q, r = divmod(delay - (h.size - 1), sps)
    frames_per_decision = (r + h.size - 1) // sps + 1
    taps = np.zeros(frames_per_decision * sps)
    taps[r:r + h.size] = h[::-1]
    poly = np.zeros((frames_per_decision, 2 * sps, 2))
    poly[:, 0::2, 0] = taps.reshape(frames_per_decision, sps)
    poly[:, 1::2, 1] = poly[:, 0::2, 0]
    n_frames = num_bits + 2 * span
    step = max(1, _PRODUCT_SIZE // (4 * sps))
    frames = np.empty((min(step, num_bits) + frames_per_decision - 1, 2 * sps))
    y = np.empty((min(step, num_bits), 2))
    decisions = np.empty(num_bits, dtype=np.uint8)
    for b0 in range(0, num_bits, step):
        b1 = min(b0 + step, num_bits)
        f0, f1 = q + b0, q + b1 + frames_per_decision - 1
        a, b = max(f0, 0), min(f1, n_frames)
        src = frames[:f1 - f0]
        # Zero frames stand in for the convolution's zero padding where the
        # filter window reaches past either end of the signal.
        src[:a - f0] = 0.0
        src[b - f0:] = 0.0
        fill(a, b, src[a - f0:b - f0])
        block = y[:b1 - b0]
        np.matmul(src[:b1 - b0], poly[0], out=block)
        for t in range(1, frames_per_decision):
            block += src[t:t + b1 - b0] @ poly[t]
        # Derotating decision k by j**(k+1) leaves as its real part -Q, -I,
        # +Q and +I of the filter output for k = 0, 1, 2 and 3 (mod 4).
        k = np.arange(b0, b1)
        np.less(block[k - b0, (k + 1) & 1] * _DEROTATE[k & 3], 0,
                out=decisions[b0:b1])
    if config.differential_precoding:
        return decisions
    out = decisions.copy()
    out[1:] ^= decisions[:-1]
    return out


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

    def fill(a, b, out):
        np.copyto(out.view(complex), samples[a * sps:b * sps].reshape(b - a, sps))

    return _decisions(fill, config, num_bits)


def transceive(bits, config: ModemConfig, impair=None) -> np.ndarray:
    """Hard decisions on ``bits`` modulated, impaired and demodulated.

    ``impair(start, samples)``, if given, changes in place the run of
    waveform samples from ``start`` on as it would within the whole
    waveform.  The result is :func:`demodulate`'s, byte for byte, but each
    decision block's frames are modulated, impaired and filtered in one
    small buffer, and no full-length waveform is made.
    """
    bits = as_bits(bits)
    rows = _waveform_rows(bits, config)
    sps = config.samples_per_symbol

    def fill(a, b, out):
        samples = out.view(complex)
        rows(a, b, samples)
        if impair is not None:
            impair(a * sps, samples.reshape(-1))

    return _decisions(fill, config, bits.size)


def theoretical_ber(ebno_db, alpha: float):
    """BER bound Q(sqrt(2 alpha Eb/N0)) for coherent GMSK detection."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    snr = 10.0 ** (np.asarray(ebno_db, dtype=float) / 10.0)
    return qfunc(np.sqrt(2.0 * alpha * snr))
