"""Forward-error-correction codecs and the registry keyed by their names.

The extended Golay (24, 12), Reed-Solomon (15, 11) over GF(16), a K = 7
rate-1/2 convolutional code with hard-decision Viterbi decoding, and the
identity code ``none``.  :data:`CODECS` holds one :class:`Codec` per name;
everything that depends on a codec name reads it.  Block codes zero-pad the
last partial block; the convolutional code ends each segment with a tail.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, FramingError, as_bits
from . import convolutional, golay, reed_solomon
from .convolutional import conv_encode, viterbi_decode, viterbi_decode_segments
from .golay import golay_decode, golay_encode
from .reed_solomon import rs_decode, rs_encode

__all__ = [
    "CODECS",
    "Codec",
    "CodeSpec",
    "CodecPowerProfile",
    "BlockLayout",
    "none_spec",
    "golay_spec",
    "rs_spec",
    "conv_spec",
    "apply_code",
    "strip_code",
    "block_layout",
    "golay_encode",
    "golay_decode",
    "rs_encode",
    "rs_decode",
    "conv_encode",
    "viterbi_decode",
]


@dataclass(frozen=True)
class CodeSpec:
    """Static parameters of an error-correcting code.

    ``name`` must be a key of :data:`CODECS`.  ``n`` and ``k`` are in bits
    for binary codes and in symbols for Reed-Solomon (``symbol_bits`` > 1).
    ``d_min`` is the minimum distance where defined; convolutional codes
    carry ``d_free`` instead.  ``g_code_db`` is the coding gain used by the
    energy model.
    """

    name: str
    n: int
    k: int
    t: int
    d_min: int | None = None
    d_free: int | None = None
    symbol_bits: int = 1
    g_code_db: float = 0.0

    def __post_init__(self):
        codec = CODECS.get(self.name)
        if codec is None:
            raise ConfigError(f"unknown code name {self.name!r}")
        if not 0 < self.k <= self.n:
            raise ConfigError(f"require 0 < k <= n, got k={self.k}, n={self.n}")
        shape = (self.n, self.k, self.t, self.d_min, self.symbol_bits)
        if codec.shape is not None and shape != codec.shape:
            raise ConfigError(f"{self.name} has (n, k, t, d_min, symbol_bits) = "
                              f"{codec.shape}, got {shape}")
        if self.rate == 1.0 and self.g_code_db != 0.0:
            raise ConfigError("a rate-1 code has no coding gain")

    @property
    def rate(self) -> float:
        return self.k / self.n

    @property
    def k_bits(self) -> int:
        return self.k * self.symbol_bits

    @property
    def n_bits(self) -> int:
        return self.n * self.symbol_bits


@dataclass(frozen=True)
class CodecPowerProfile:
    """Encoder and decoder power draw in watts."""

    p_enc: float = 0.028
    p_dec: float = 0.035

    def __post_init__(self):
        if not (self.p_enc >= 0 and self.p_dec >= 0):
            raise ConfigError("codec powers must be >= 0")


@dataclass(frozen=True)
class BlockLayout:
    """How an information stream maps onto code blocks."""

    n_blocks: int
    coded_bits: int
    pad_bits: int


def _padded_layout(info_len: int, spec: CodeSpec) -> BlockLayout:
    blocks = math.ceil(info_len / spec.k_bits)
    return BlockLayout(blocks, blocks * spec.n_bits, blocks * spec.k_bits - info_len)


@dataclass(frozen=True)
class Codec:
    """One codec: ``spec(g_code_db)`` builds its :class:`CodeSpec`.

    ``decode(coded, spec, info_len)`` undoes ``encode(bits, spec)`` for one
    coded stream, or for a ``(P, L)`` array of ``P`` streams of equal
    length in one call, and returns ``(bits, corrected, failed)``: the
    decoded ``info_len`` bits of each stream, in the input's leading shape,
    and the channel errors corrected (in the code's symbols) and the blocks
    flagged uncorrectable, summed over the streams.  ``layout`` frames a
    stream; a fixed code's specs all have its ``shape``, that is
    ``(n, k, t, d_min, symbol_bits)``.
    """

    name: str
    spec: Callable[[float], CodeSpec]
    encode: Callable[[np.ndarray, CodeSpec], np.ndarray]
    decode: Callable[[np.ndarray, CodeSpec, int], tuple[np.ndarray, int, int]]
    layout: Callable[[int, CodeSpec], BlockLayout] = _padded_layout
    shape: tuple | None = None


def _fixed_spec(codec: Codec, g_code_db: float) -> CodeSpec:
    n, k, t, d_min, symbol_bits = codec.shape
    return CodeSpec(name=codec.name, n=n, k=k, t=t, d_min=d_min,
                    symbol_bits=symbol_bits, g_code_db=g_code_db)


def none_spec() -> CodeSpec:
    return _fixed_spec(_NONE, 0.0)


def golay_spec(g_code_db: float = 4.0) -> CodeSpec:
    return _fixed_spec(_GOLAY, g_code_db)


def rs_spec(g_code_db: float = 4.0) -> CodeSpec:
    return _fixed_spec(_RS, g_code_db)


def conv_spec(segment_bits: int = 512, g_code_db: float = 4.0) -> CodeSpec:
    if segment_bits < 1:
        raise ConfigError("segment_bits must be >= 1")
    n = 2 * (segment_bits + convolutional.CONSTRAINT_LENGTH - 1)
    return CodeSpec(name=_CONV.name, n=n, k=segment_bits,
                    t=(convolutional.D_FREE - 1) // 2,
                    d_free=convolutional.D_FREE, g_code_db=g_code_db)


def _padded(bits: np.ndarray, spec: CodeSpec) -> np.ndarray:
    pad = _padded_layout(bits.size, spec).pad_bits
    return np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])


def _streams(bits: np.ndarray, coded: np.ndarray, info_len: int) -> np.ndarray:
    """Decoded ``bits`` of every block, split back into ``coded``'s streams."""
    return bits.reshape(*coded.shape[:-1], -1)[..., :info_len]


def _golay_encode(bits, spec):
    msgs = golay.pack_message_bits(_padded(bits, spec).reshape(-1, spec.k))
    return golay.unpack_codeword_bits(golay.encode_words(msgs)).reshape(-1)


def _golay_decode(coded, spec, info_len):
    words = golay.pack_codeword_bits(coded.reshape(-1, spec.n))
    msgs, corrected, failed = golay.decode_words(words)
    bits = _streams(golay.unpack_message_bits(msgs), coded, info_len)
    return bits, int(corrected.sum()), int(failed.sum())


def _rs_encode(bits, spec):
    symbols = reed_solomon.bits_to_symbols(_padded(bits, spec)).reshape(-1, spec.k)
    return reed_solomon.symbols_to_bits(reed_solomon.encode_words(symbols))


def _rs_decode(coded, spec, info_len):
    received = reed_solomon.bits_to_symbols(coded).reshape(-1, spec.n)
    words, corrected, failed = reed_solomon.decode_words(received)
    bits = _streams(reed_solomon.symbols_to_bits(words[:, : spec.k]), coded, info_len)
    return bits, int(corrected.sum()), int(failed.sum())


def _conv_layout(info_len, spec):
    # each segment, a short last one too, codes to 2 bits per input bit plus a tail
    blocks = math.ceil(info_len / spec.k)
    return BlockLayout(blocks, 2 * info_len + blocks * (spec.n - 2 * spec.k), 0)


def _conv_encode(bits, spec):
    return np.concatenate([conv_encode(bits[i: i + spec.k])
                           for i in range(0, bits.size, spec.k)])


def _conv_decode(coded, spec, info_len):
    # Viterbi flags no block and counts no corrections
    return viterbi_decode_segments(coded, spec.n), 0, 0


_NONE = Codec("none", lambda g_code_db: none_spec(), lambda bits, spec: bits.copy(),
              lambda coded, spec, info_len: (coded.copy(), 0, 0),
              layout=lambda info_len, spec: BlockLayout(1, info_len, 0),
              shape=(1, 1, 0, 1, 1))
_GOLAY = Codec("golay", golay_spec, _golay_encode, _golay_decode,
               shape=(golay.N_BITS, golay.K_BITS, golay.T_CORRECT, golay.D_MIN, 1))
_RS = Codec("reed_solomon", rs_spec, _rs_encode, _rs_decode,
            shape=(reed_solomon.N_SYMBOLS, reed_solomon.K_SYMBOLS,
                   reed_solomon.T_CORRECT, reed_solomon.D_MIN, reed_solomon.SYMBOL_BITS))
_CONV = Codec("convolutional", lambda g_code_db: conv_spec(g_code_db=g_code_db),
              _conv_encode, _conv_decode, layout=_conv_layout)

CODECS = {codec.name: codec for codec in (_NONE, _GOLAY, _RS, _CONV)}


def block_layout(info_len: int, spec: CodeSpec) -> BlockLayout:
    """Blocks, coded length and zero padding for an ``info_len``-bit stream."""
    if info_len < 1:
        raise ValueError("info_len must be >= 1")
    return CODECS[spec.name].layout(info_len, spec)


def apply_code(bits, spec: CodeSpec) -> np.ndarray:
    """Segment an information stream into blocks and encode each one."""
    return CODECS[spec.name].encode(as_bits(bits), spec)


def strip_code(coded, spec: CodeSpec, info_len: int) -> np.ndarray:
    """Decode a stream produced by :func:`apply_code` back to ``info_len`` bits.

    This is the one-stream call; a codec's ``decode`` also takes a batch.
    Uncorrectable Golay and Reed-Solomon blocks fall back to their raw
    systematic bits, so residual errors stay measurable instead of erasing
    whole blocks.
    """
    coded = as_bits(coded)
    layout = block_layout(info_len, spec)
    if coded.size != layout.coded_bits:
        raise FramingError(
            f"coded stream has {coded.size} bits, expected {layout.coded_bits}"
        )
    return CODECS[spec.name].decode(coded, spec, info_len)[0]
