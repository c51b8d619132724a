"""Rate-1/2 convolutional code, K = 7, generators (171, 133) octal.

Tail-terminated: every encoded block carries K - 1 = 6 flush bits so the
trellis ends in the zero state.  Decoding is hard-decision Viterbi over the
terminated trellis, vectorised across a batch of blocks (the time recursion
is the only Python loop), one add-compare-select over the 32 butterflies of
the trellis per step.  Free distance of this generator pair is 10.
"""

from __future__ import annotations

import numpy as np

from ..errors import FramingError, as_bits

CONSTRAINT_LENGTH = 7
D_FREE = 10

# Generator taps, most significant octal digit first: tap j multiplies x[i-j].
G1_TAPS = np.array([1, 1, 1, 1, 0, 0, 1], dtype=np.uint8)  # 171 octal
G2_TAPS = np.array([1, 0, 1, 1, 0, 1, 1], dtype=np.uint8)  # 133 octal

_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)
_HALF = _N_STATES // 2

# Steps whose add-compare-select choices are kept a byte per choice before
# they are packed eight to the byte.
_STAGE = 64


def _branch_tables():
    """Branch metrics of the butterflies, indexed by the received pair.

    State ``s`` holds the previous 6 inputs, newest at bit 0; input ``b``
    moves it to ``(b | s << 1) & 63``.  So next state ``2j + b`` is reached
    from ``j`` (pred0) and from ``j + 32`` (pred1).  ``bm0[r, b, j]`` is the
    Hamming distance between the received pair ``r = r1 << 1 | r2`` and the
    pair emitted on the edge ``j -> 2j + b``; ``bm1`` is the same for
    ``j + 32 -> 2j + b``.
    """
    # reg bit i (from LSB) is x[t-i], so tap i of a generator masks reg bit i
    g1 = sum(int(tap) << i for i, tap in enumerate(G1_TAPS))
    g2 = sum(int(tap) << i for i, tap in enumerate(G2_TAPS))
    reg = np.arange(2)[:, None] | (np.arange(_N_STATES) << 1)  # [b, s]
    out = (np.bitwise_count(reg & g1) & 1) << 1 | (np.bitwise_count(reg & g2) & 1)
    received = np.arange(4)[:, None, None]
    bm = np.bitwise_count(received ^ out[None]).astype(np.int8)  # [r, b, s]
    return bm[:, :, :_HALF], bm[:, :, _HALF:]


_BM0, _BM1 = _branch_tables()


def conv_encode(bits) -> np.ndarray:
    """Encode a bit stream; output length is 2 * (len(bits) + 6)."""
    x = np.concatenate([as_bits(bits), np.zeros(CONSTRAINT_LENGTH - 1, dtype=np.uint8)])
    v1 = np.convolve(x, G1_TAPS)[: x.size] & 1
    v2 = np.convolve(x, G2_TAPS)[: x.size] & 1
    out = np.empty(2 * x.size, dtype=np.uint8)
    out[0::2] = v1
    out[1::2] = v2
    return out


def viterbi_decode(coded) -> np.ndarray:
    """Maximum-likelihood hard-decision decode of one tail-terminated block."""
    c = np.asarray(coded, dtype=np.uint8)
    if c.ndim != 1:
        raise FramingError("coded stream must be one-dimensional")
    return viterbi_decode_segments(c, c.size)


def viterbi_decode_segments(coded: np.ndarray, n: int) -> np.ndarray:
    """Decode streams of terminated segments of ``n`` coded bits each, the
    last of which may be shorter; returns the information bits.

    ``coded`` is one stream, or a ``(P, L)`` array of ``P`` streams of equal
    length decoded in one batch; the result has the same number of
    dimensions.  Each stream's short last segment rides in the batch with
    the full ones: it is padded with zeros at the front, and its trellis
    restarts in the zero state at its own first step, so it decodes as it
    would alone.  Raises :class:`FramingError` unless every segment, the
    short one too, is a whole number of steps and holds at least one
    information bit besides its tail.
    """
    c = np.asarray(coded, dtype=np.uint8)
    if c.ndim not in (1, 2) or c.shape[-1] == 0:
        raise FramingError("expected a nonempty coded stream or a (P, L) batch of them")
    _check_segment(n)
    _check_segment(c.shape[-1] % n or n)
    streams = c.reshape(-1, c.shape[-1])
    count, length = streams.shape
    full = length - length % n
    pad = -length % n
    batch = np.zeros((count, length + pad), dtype=np.uint8)
    batch[:, :full] = streams[:, :full]
    batch[:, full + pad:] = streams[:, full:]
    segments = batch.shape[1] // n
    restart = np.zeros((count, segments), dtype=np.intp)
    restart[:, -1] = pad // 2
    bits = _decode(batch.reshape(-1, n), restart.ravel()).reshape(count, segments, -1)
    out = np.concatenate([bits[:, :-1].reshape(count, -1), bits[:, -1, pad // 2:]],
                         axis=1)
    return out.reshape(*c.shape[:-1], -1)


def _check_segment(width: int):
    if width % 2 or width < 2 * CONSTRAINT_LENGTH:
        raise FramingError(f"a terminated segment of {width} coded bits is odd "
                           f"or shorter than {2 * CONSTRAINT_LENGTH}")


def _decode(c: np.ndarray, restart: np.ndarray | None = None) -> np.ndarray:
    """Hard-decision Viterbi over a (B, 2T) batch; returns (B, T - 6) bits.

    Row ``i``'s trellis restarts in the zero state at step ``restart[i]``
    (0 for every row when ``restart`` is None), so its bits before that
    step mean nothing.  Each step is one add-compare-select over the 32
    butterflies: both predecessor halves of the metric vector are views,
    ties keep pred0, and the winners go straight into the natural-order
    view of the next metric vector.  Paths from a nonzero start state carry
    a penalty above any metric a zero-start path reaches, so they never win
    against one; metrics stay within ``4 T + 1`` and use the narrowest
    integer type that holds it.  The choices are kept at one bit each.
    """
    nb, width = c.shape
    steps = width // 2
    received = ((c[:, 0::2] << 1) | c[:, 1::2]).T.copy()  # (T, B)
    penalty = 2 * steps + 1
    dtype = np.min_scalar_type(-2 * penalty)
    bm0, bm1 = _BM0.astype(dtype), _BM1.astype(dtype)
    start = np.full(_N_STATES, penalty, dtype=dtype)
    start[0] = 0
    pm = np.tile(start, (nb, 1))
    nxt = np.empty_like(pm)
    b0, b1, c0, c1 = (np.empty((nb, 2, _HALF), dtype=dtype) for _ in range(4))
    # the choices of _STAGE steps at a time, one byte each, are packed into
    # back at eight to the byte
    stage = np.empty((_STAGE, nb * _N_STATES), dtype=bool)
    back = np.empty((steps, nb * _N_STATES // 8), dtype=np.uint8)
    restarts = {}
    if restart is not None:
        for t in np.unique(restart[restart > 0]):
            restarts[int(t)] = np.flatnonzero(restart == t)
    for t in range(steps):
        rows = restarts.get(t)
        if rows is not None:
            pm[rows] = start
        np.take(bm0, received[t], axis=0, out=b0)
        np.take(bm1, received[t], axis=0, out=b1)
        np.add(pm[:, None, :_HALF], b0, out=c0)
        np.add(pm[:, None, _HALF:], b1, out=c1)
        np.less(c1, c0, out=stage[t % _STAGE].reshape(nb, 2, _HALF))
        np.minimum(c0, c1, out=nxt.reshape(nb, _HALF, 2).transpose(0, 2, 1))
        pm, nxt = nxt, pm
        if t % _STAGE == _STAGE - 1 or t == steps - 1:
            t0 = t - t % _STAGE
            back[t0:t + 1] = np.packbits(stage[:t + 1 - t0], axis=None,
                                         bitorder="little").reshape(t + 1 - t0, -1)

    # tail-terminated: trace back from state 0; choice b * 32 + j of row i
    # at step t, flat[t, 64 i + 32 b + j], is the choice into state 2j + b
    base = np.arange(nb) * _N_STATES
    state = np.zeros(nb, dtype=np.intp)
    bits = np.empty((steps, nb), dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        if t == steps - 1 or t % _STAGE == _STAGE - 1:
            t0 = t - t % _STAGE
            flat = np.unpackbits(back[t0:t + 1], axis=None, bitorder="little")
            flat = flat.reshape(t + 1 - t0, -1)
        bit = state & 1
        bits[t] = bit
        j = state >> 1
        state = j | (flat[t - t0, base + (bit * _HALF + j)].astype(np.intp) * _HALF)
    return bits[: steps - (CONSTRAINT_LENGTH - 1)].T.copy()
