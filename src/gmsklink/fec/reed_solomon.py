"""Reed-Solomon (15, 11) over GF(16): table-driven encoder and syndrome decoder.

GF(16) is built on x^4 + x + 1 and the code on the generator roots a^1 .. a^4,
so d_min = 5 and every pattern of at most 2 symbol errors is corrected.
Symbol i of a word is the coefficient of x^(14 - i); the first 11 are the
message.  Parity and syndromes are linear in the symbols, so each is an XOR
of per-(position, symbol) table entries.  A word's four 4-bit syndromes pack
into 16 bits, and a 65536-entry table maps each syndrome to the one error
pattern of weight <= 2 that has it (23 851 patterns, zero included) or marks
the word uncorrectable: exact bounded-distance decoding (standard syndrome
decoding; Lin & Costello, *Error Control Coding*).  An entry is a ``uint16``
correction, 0xPVQW for symbol P ^= V and symbol Q ^= W, and an ``int8``
weight (-1 for uncorrectable), so decoding a word is at most two symbol
XORs.  The tables are built on first use, so importing the package costs
nothing.

Symbols are ``uint8`` in the bit conversions; the encoder and decoder keep
the integer type they are given (promoted with ``uint8``), so the codec's
own path holds symbols at one byte each.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import DecodeFailure, as_bits

N_SYMBOLS = 15
K_SYMBOLS = 11
SYMBOL_BITS = 4
D_MIN = 5
T_CORRECT = 2

_SHIFTS = np.array([12, 8, 4, 0], dtype=np.uint8)  # four 4-bit fields in 16 bits
_BIT_SHIFTS = np.array([3, 2, 1, 0], dtype=np.uint8)  # a symbol's bits, MSB first
_POSITIONS = np.arange(N_SYMBOLS)
# row i * 16 of the flattened syndrome table starts position i's entries;
# every index is below 240, so a uint8 symbol array indexes it in uint8
_ROWS = (_POSITIONS * 16).astype(np.uint8)


@functools.cache
def _syndrome_table() -> np.ndarray:
    """table[i, v]: packed syndromes r(a^1) .. r(a^4) of symbol v at position i."""
    exp = [1]  # exp[e] = a^e
    for _ in range(2 * N_SYMBOLS):
        x = exp[-1] << 1
        exp.append(x ^ 0b10011 if x & 16 else x)
    exp = np.array(exp)
    degree = (np.arange(1, 5) * (N_SYMBOLS - 1 - _POSITIONS[:, None])) % N_SYMBOLS
    table = np.zeros((N_SYMBOLS, 16), dtype=np.uint16)
    for b in range(SYMBOL_BITS):  # v . a^e: XOR of a^(e + b) over the set bits b of v
        packed = (exp[degree + b] << _SHIFTS).sum(axis=1).astype(np.uint16)
        table ^= np.where((np.arange(16) >> b) & 1, packed[:, None], np.uint16(0))
    return table


@functools.cache
def _parity_table() -> np.ndarray:
    """table[i, v]: packed parity symbols cancelling symbol v at message position i.

    Any 4 columns of the check matrix are independent, so the 65536 parity
    words map one-to-one onto the 65536 syndromes.
    """
    syndrome = _syndrome_table()
    syn = np.zeros(1, dtype=np.uint16)  # ends as the syndromes of parity words 0..65535
    for contributions in syndrome[K_SYMBOLS:]:
        syn = (syn[:, None] ^ contributions).reshape(-1)
    cancel = np.empty(1 << 16, dtype=np.uint16)
    cancel[syn] = np.arange(1 << 16, dtype=np.uint16)
    return cancel[syndrome[:K_SYMBOLS]]


@functools.cache
def _decoding_table() -> tuple:
    """(fix, weight)[s]: the one error pattern of weight <= 2 with syndrome s,
    filled one first position at a time, with every later second position."""
    syndrome = _syndrome_table()
    fix = np.zeros(1 << 16, dtype=np.uint16)
    weight = np.full(1 << 16, -1, dtype=np.int8)
    weight[0] = 0  # syndrome 0: the zero pattern
    values = np.arange(1, 16, dtype=np.uint16)
    for p in range(N_SYMBOLS):
        first = np.uint16(p << 12) | values << 8  # (15,): symbol p ^= v
        fix[syndrome[p, 1:]] = first
        weight[syndrome[p, 1:]] = 1
        later = np.arange(p + 1, N_SYMBOLS, dtype=np.uint16)
        syn = syndrome[p, 1:, None, None] ^ syndrome[later, 1:]  # (15, later, 15)
        fix[syn] = first[:, None, None] | later[:, None] << 4 | values
        weight[syn] = 2
    return fix, weight


def _as_symbols(symbols, width: int) -> np.ndarray:
    """``symbols`` as a (B, ``width``) integer array in [0, 16), checked in
    its own type: it is not cast (bools become ``uint8``), so no value can
    wrap into range."""
    s = np.asarray(symbols)
    if s.dtype.kind not in "biu":  # a cast would truncate 3.5 to symbol 3
        raise ValueError(f"symbols must be integers, got dtype {s.dtype}")
    if s.ndim != 2 or s.shape[1] != width:
        raise ValueError(f"expected a (B, {width}) symbol array, got shape {s.shape}")
    if s.size and (s.min() < 0 or s.max() > 15):
        raise ValueError("symbols must lie in [0, 16)")
    return s.astype(np.uint8) if s.dtype.kind == "b" else s


def encode_words(messages) -> np.ndarray:
    """Encode a (B, 11) symbol array into (B, 15) systematic codewords."""
    msgs = _as_symbols(messages, K_SYMBOLS)
    packed = np.bitwise_xor.reduce(_parity_table()[_POSITIONS[:K_SYMBOLS], msgs], axis=1)
    parity = ((packed[:, None] >> _SHIFTS) & 15).astype(np.uint8)
    return np.concatenate([msgs, parity], axis=1)


def decode_words(received):
    """Decode a (B, 15) array of integer symbols.

    Returns ``(words, corrected, failed)``: the decoded (B, 15) words, the
    per-word count of corrected symbols, and a boolean failure mask.  Failed
    words (no error pattern of weight <= 2 fits) keep their raw received
    symbols so residual errors stay measurable.
    """
    r = _as_symbols(received, N_SYMBOLS)
    # flat indices into one table row per position: a 2-D fancy index, as
    # the encoder's, costs about a quarter more here
    syndromes = np.bitwise_xor.reduce(_syndrome_table().reshape(-1)[_ROWS + r], axis=1)
    fix, weight = (column[syndromes] for column in _decoding_table())
    hit = np.flatnonzero(weight > 0)
    words, fix = r.copy(), fix[hit]
    # one flat index per correction: a 2-D fancy index costs about a fifth
    # more
    flat, first = words.reshape(-1), hit * N_SYMBOLS
    for shift in (8, 0):  # the first pair, then the second
        flat[first + ((fix >> (shift + 4)) & 15)] ^= (fix >> shift) & 15
    return words, np.maximum(weight, 0), weight < 0


def bits_to_symbols(bits) -> np.ndarray:
    """Bit array (a multiple of 4 long) -> ``uint8`` symbols, MSB first per
    symbol; ValueError unless every bit is 0 or 1."""
    b = as_bits(np.asarray(bits).reshape(-1))
    if b.size % SYMBOL_BITS:
        raise ValueError(f"bit count must be a multiple of {SYMBOL_BITS}")
    b = b.reshape(-1, SYMBOL_BITS)
    s = b[:, 0] << 3
    for i in range(1, SYMBOL_BITS):
        s |= b[:, i] << (3 - i)
    return s


def symbols_to_bits(symbols) -> np.ndarray:
    """Symbols -> flat ``uint8`` bit array, MSB first per symbol."""
    s = np.asarray(symbols)
    if s.dtype.kind not in "biu":
        s = s.astype(np.int64)
    bits = s.reshape(-1, 1) >> _BIT_SHIFTS
    bits &= 1
    return bits.astype(np.uint8, copy=False).reshape(-1)


def unpack_nibbles(packed: np.ndarray) -> np.ndarray:
    """(R, m) bytes packed by ``np.packbits`` -> (R, 2 m) ``uint8``
    symbols, the high nibble of each byte first."""
    out = np.empty((*packed.shape, 2), dtype=np.uint8)
    np.right_shift(packed, 4, out=out[..., 0])
    np.bitwise_and(packed, 15, out=out[..., 1])
    return out.reshape(len(packed), -1)


def pack_nibbles(symbols: np.ndarray) -> np.ndarray:
    """(R, m) symbols -> (R, ceil(m / 2)) bytes, two symbols a byte, the
    first in the high nibble (a last single one beside a 0)."""
    rows, count = symbols.shape
    out = np.zeros((rows, -(-count // 2)), dtype=np.uint8)
    out[:, :count // 2] = symbols[:, 1::2]
    out |= symbols[:, ::2] << 4
    return out


def rs_encode(message) -> np.ndarray:
    """Encode exactly 11 GF(16) symbols into a systematic 15-symbol codeword."""
    msg = np.asarray(message)
    if msg.shape != (K_SYMBOLS,):
        raise ValueError(f"message must be {K_SYMBOLS} symbols, got shape {msg.shape}")
    return encode_words(msg[None, :])[0]


def rs_decode(received):
    """Decode 15 symbols; returns ``(message, corrected_symbols)``.

    Raises :class:`DecodeFailure` when no codeword lies within distance 2.
    """
    r = np.asarray(received)
    if r.shape != (N_SYMBOLS,):
        raise ValueError(f"word must be {N_SYMBOLS} symbols, got shape {r.shape}")
    words, corrected, failed = decode_words(r[None, :])
    if failed[0]:
        raise DecodeFailure("uncorrectable RS block (more than 2 symbol errors)")
    return words[0, :K_SYMBOLS], int(corrected[0])
