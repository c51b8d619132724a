"""Rate-1/2 convolutional code, K = 7, generators (171, 133) octal.

Tail-terminated: every encoded block carries K - 1 = 6 flush bits so the
trellis ends in the zero state.  Decoding is hard-decision Viterbi over the
terminated trellis, vectorised across a batch of blocks (the time recursion
is the only Python loop), one add-compare-select over the 32 butterflies of
the trellis per step.  Free distance of this generator pair is 10.
"""

from __future__ import annotations

import numpy as np

from ..errors import FramingError

CONSTRAINT_LENGTH = 7
D_FREE = 10

# Generator taps, most significant octal digit first: tap j multiplies x[i-j].
G1_TAPS = np.array([1, 1, 1, 1, 0, 0, 1], dtype=np.uint8)  # 171 octal
G2_TAPS = np.array([1, 0, 1, 1, 0, 1, 1], dtype=np.uint8)  # 133 octal

_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)
_HALF = _N_STATES // 2


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
    b = np.asarray(bits, dtype=np.uint8)
    if b.ndim != 1 or b.size == 0:
        raise ValueError("input must be a nonempty 1-d bit sequence")
    x = np.concatenate([b, np.zeros(CONSTRAINT_LENGTH - 1, dtype=np.uint8)])
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
    if c.size % 2 != 0:
        raise FramingError(f"coded stream length {c.size} is not a multiple of 2")
    steps = c.size // 2
    if steps < CONSTRAINT_LENGTH:
        raise FramingError(
            f"coded stream too short ({c.size} bits) for a tail-terminated block"
        )
    return viterbi_decode_blocks(c[None, :])[0]


def viterbi_decode_blocks(coded: np.ndarray) -> np.ndarray:
    """Viterbi-decode a (B, 2T) array of equal-length terminated blocks."""
    c = np.asarray(coded, dtype=np.uint8)
    if c.ndim != 2 or c.shape[1] % 2 != 0:
        raise FramingError("expected a (B, 2T) coded array")
    return _decode(c)


def viterbi_decode_segments(coded: np.ndarray, n: int) -> np.ndarray:
    """Decode a stream of terminated segments of ``n`` coded bits each, the
    last of which may be shorter; returns the information bits.

    The short last segment rides in the same batch as the full ones: it is
    padded with zeros at the front, and its trellis restarts in the zero
    state at its own first step, so it decodes as it would alone.
    """
    c = np.asarray(coded, dtype=np.uint8)
    pad = -c.size % n
    batch = np.insert(c, c.size - c.size % n, np.zeros(pad, np.uint8)).reshape(-1, n)
    bits = _decode(batch, last_start=pad // 2)
    return np.concatenate([bits[:-1].reshape(-1), bits[-1, pad // 2:]])


def _decode(c: np.ndarray, last_start: int = 0) -> np.ndarray:
    """Hard-decision Viterbi over a (B, 2T) batch; returns (B, T - 6) bits.

    The last row's trellis restarts in the zero state at step
    ``last_start``, so its bits before that step mean nothing.  Each step
    is one add-compare-select over the 32 butterflies: both predecessor
    halves of the metric vector are views, ties keep pred0, and the winners
    go straight into the natural-order view of the next metric vector.
    Paths from a nonzero start state carry a penalty above any metric a
    zero-start path reaches, so they never win against one; metrics stay
    within ``4 T + 1`` and use the narrowest integer type that holds it.
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
    back = np.empty((steps, nb, 2, _HALF), dtype=bool)
    for t in range(steps):
        if t == last_start:
            pm[-1] = start
        np.take(bm0, received[t], axis=0, out=b0)
        np.take(bm1, received[t], axis=0, out=b1)
        np.add(pm[:, None, :_HALF], b0, out=c0)
        np.add(pm[:, None, _HALF:], b1, out=c1)
        np.less(c1, c0, out=back[t])
        np.minimum(c0, c1, out=nxt.reshape(nb, _HALF, 2).transpose(0, 2, 1))
        pm, nxt = nxt, pm

    # tail-terminated: trace back from state 0; back[t, i, b, j] is the
    # choice into state 2j + b
    flat = back.reshape(steps, nb * _N_STATES)
    base = np.arange(nb) * _N_STATES
    state = np.zeros(nb, dtype=np.intp)
    bits = np.empty((steps, nb), dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        bit = state & 1
        bits[t] = bit
        j = state >> 1
        state = j | (flat[t, base + (bit * _HALF + j)].astype(np.intp) * _HALF)
    return bits[: steps - (CONSTRAINT_LENGTH - 1)].T.copy()
