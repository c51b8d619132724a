"""Extended binary Golay (24, 12, 8) encoder and decoder.

Systematic construction with generator [I | B], using the standard symmetric
12x12 matrix B.  Decoding is syndrome decoding: a 4096-entry table maps each
12-bit syndrome to the error pattern of weight <= 3 that has it, so every
such pattern is corrected and weight-4 patterns are reported as failures.
Bits are ``uint8``, messages and syndromes ``uint16``, codewords and error
patterns ``uint32``.  The word-level routines are vectorised so exhaustive
sweeps over all messages and error patterns stay cheap.  Both tables are
built on first use, so importing the package costs nothing for them.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..errors import DecodeFailure, as_bits

N_BITS = 24
K_BITS = 12
D_MIN = 8
T_CORRECT = 3

# The rows of B as 12-bit integers, column 0 at bit 11.
B_ROWS = np.array([
    0b110111000101,
    0b101110001011,
    0b011100010111,
    0b111000101101,
    0b110001011011,
    0b100010110111,
    0b000101101111,
    0b001011011101,
    0b010110111001,
    0b101101110001,
    0b011011100011,
    0b111111111110,
], dtype=np.uint16)


@functools.cache
def _product_table() -> np.ndarray:
    """table[u] = u . B over GF(2) for every 12-bit row vector u."""
    table = np.zeros(4096, dtype=np.uint16)
    u = np.arange(4096, dtype=np.uint16)
    for i in range(12):
        table ^= np.where((u >> (11 - i)) & 1, B_ROWS[i], 0).astype(np.uint16)
    return table


def encode_words(messages: np.ndarray) -> np.ndarray:
    """Encode 12-bit message integers into 24-bit codeword integers."""
    messages = np.asarray(messages, dtype=np.uint32)
    return (messages << 12) | _product_table()[messages]


@functools.cache
def _error_table() -> np.ndarray:
    """table[s]: the one error pattern of weight <= 3 with syndrome s, or
    1 << 24, above every pattern, where none has it.

    The 2325 patterns of weight <= 3 have distinct syndromes (d_min = 8); the
    other 1771 syndromes are those of weight-4 cosets, which are uncorrectable.
    """
    patterns = np.array([sum(1 << i for i in bits) for w in range(T_CORRECT + 1)
                         for bits in itertools.combinations(range(N_BITS), w)],
                        dtype=np.uint32)
    table = np.full(1 << K_BITS, 1 << N_BITS, dtype=np.uint32)
    table[_product_table()[patterns >> 12] ^ (patterns & 0xFFF)] = patterns
    return table


def decode_words(words: np.ndarray):
    """Decode 24-bit received words.

    Returns ``(messages, corrected, failed)``: the 12-bit message estimates,
    per-word count of corrected bits, and a boolean failure mask.  Failed
    words (no error pattern of weight <= 3 fits) carry their raw systematic
    half in ``messages`` so residual errors stay measurable.
    """
    words = np.atleast_1d(np.asarray(words, dtype=np.uint32))
    r1 = (words >> 12).astype(np.uint16)
    errors = _error_table()[_product_table()[r1] ^ (words & 0xFFF)]
    failed = errors >> N_BITS > 0
    errors[failed] = 0
    messages = r1 ^ (errors >> 12).astype(np.uint16)
    return messages, np.bitwise_count(errors), failed


def pack_message_bits(bits: np.ndarray) -> np.ndarray:
    """(B, 12) bit array -> ``uint16`` 12-bit integers, first bit at the MSB."""
    return np.packbits(bits, axis=-1).view(">u2")[:, 0] >> 4  # the last 4 bits are 0


def unpack_message_bits(values: np.ndarray) -> np.ndarray:
    """12-bit integers -> (B, 12) ``uint8`` bit array."""
    top = (np.asarray(values, dtype=np.uint16) << 4).astype(">u2")
    return np.unpackbits(top.view(np.uint8).reshape(-1, 2), axis=1, count=K_BITS)


def pack_codeword_bits(bits: np.ndarray) -> np.ndarray:
    """(B, 24) bit array -> ``uint32`` 24-bit integers, first bit at the MSB."""
    return codeword_values(np.packbits(np.reshape(bits, -1)))


def codeword_values(packed: np.ndarray) -> np.ndarray:
    """Bytes packed by ``np.packbits``, 3 a codeword, -> the flat ``uint32``
    24-bit codewords, first bit at the MSB."""
    values = np.zeros(packed.size // 3, dtype=np.uint32)
    for byte in packed.reshape(-1, 3).T:
        values <<= 8
        values |= byte
    return values


def pack_messages(messages: np.ndarray) -> np.ndarray:
    """(R, B) 12-bit integers -> each row's message bits packed as
    ``np.packbits`` packs them, first bit at the MSB, 3 bytes a pair of
    messages (a last single one padded with a 0 message)."""
    rows, count = messages.shape
    pairs = np.zeros((rows, -(-count // 2), 2), dtype=np.uint32)
    pairs.reshape(rows, -1)[:, :count] = messages
    values = pairs[..., 0] << 12 | pairs[..., 1]
    out = np.empty((*values.shape, 3), dtype=np.uint8)
    for j in range(3):
        out[..., j] = values >> (16 - 8 * j)  # cast to its low byte
    return out.reshape(rows, -1)


def unpack_codeword_bits(values: np.ndarray) -> np.ndarray:
    """24-bit integers -> (B, 24) ``uint8`` bit array."""
    top = (np.asarray(values, dtype=np.uint32) << 8).astype(">u4")
    return np.unpackbits(top.view(np.uint8).reshape(-1, 4), axis=1, count=N_BITS)


def golay_encode(message_bits) -> np.ndarray:
    """Encode exactly 12 bits into a systematic 24-bit codeword; ValueError
    unless every bit is 0 or 1."""
    bits = as_bits(message_bits)
    if bits.shape != (12,):
        raise ValueError(f"Golay message must be 12 bits, got shape {bits.shape}")
    word = encode_words(pack_message_bits(bits[None, :]))
    return unpack_codeword_bits(word)[0]


def golay_decode(received_bits):
    """Decode a 24-bit word; returns ``(message_bits, corrected_errors)``.

    Raises :class:`DecodeFailure` on uncorrectable (weight >= 4) patterns,
    and ValueError unless every bit is 0 or 1.
    """
    bits = as_bits(received_bits)
    if bits.shape != (24,):
        raise ValueError(f"Golay word must be 24 bits, got shape {bits.shape}")
    msgs, corrected, failed = decode_words(pack_codeword_bits(bits[None, :]))
    if failed[0]:
        raise DecodeFailure("uncorrectable Golay block (more than 3 bit errors)")
    return unpack_message_bits(msgs)[0], int(corrected[0])
