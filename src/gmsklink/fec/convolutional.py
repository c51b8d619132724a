"""Rate-1/2 convolutional code, K = 7, generators (171, 133) octal.

Tail-terminated: every encoded block carries K - 1 = 6 flush bits so the
trellis ends in the zero state.  Decoding is hard-decision Viterbi over the
terminated trellis, vectorised across a batch of blocks (the time recursion
is the only Python loop), one add-compare-select over the 32 butterflies of
the trellis per step.  The decoder reads streams packed 8 bits to a byte,
4 received pairs to a byte, and returns packed bits (:func:`decode_rows`).
Free distance of this generator pair is 10.
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
# they are packed eight to the byte, and which traceback unpacks at a time.
# Eight steps keep each unpacked block to 8 * 64 bytes a row (a 343-row
# batch of 518 steps peaks at 1.70 MiB, 1.36 MiB of it the packed choices,
# the one array the size of the trellis).  The metrics are renormalised
# once a stage, which keeps them in int8 (see _decode).
_STAGE = 8


def _edge_costs():
    """``(pairs, costs)``: the pair ``o1 << 1 | o2`` that the edge from
    ``j`` into each state ``2j + b`` emits, and ``costs[o, r]``, the Hamming
    distance less 1 between the emitted pair ``o`` and the received pair
    ``r = r1 << 1 | r2``, as ``int8``.

    State ``s`` holds the previous 6 inputs, newest at bit 0; input ``b``
    moves it to ``(b | s << 1) & 63``.  So next state ``2j + b`` is reached
    from ``j`` (pred0) and from ``j + 32`` (pred1).  Both generators tap the
    register's bit 6, so the edge from ``j + 32`` emits the complement
    ``3 - o`` of the pair ``o`` the edge from ``j`` does, whose distance
    less 1 is the negation.
    """
    # reg bit i (from LSB) is x[t-i], so tap i of a generator masks reg bit i
    g1 = sum(int(tap) << i for i, tap in enumerate(G1_TAPS))
    g2 = sum(int(tap) << i for i, tap in enumerate(G2_TAPS))
    reg = np.arange(_N_STATES)  # the register of the edge j -> 2j + b is 2j + b
    pairs = (np.bitwise_count(reg & g1) & 1) << 1 | (np.bitwise_count(reg & g2) & 1)
    costs = np.bitwise_count(np.arange(4)[:, None] ^ np.arange(4)) - 1
    return pairs.astype(np.intp), costs.astype(np.int8)


_PAIRS, _COSTS = _edge_costs()

# The start metric of every state but 0 (see _decode).
_PENALTY = 13


def _encode_rows(x: np.ndarray) -> np.ndarray:
    """Encode every row of the ``(S, L)`` bit array ``x``, each ending in
    its zero tail; returns ``(S, 2 L)``, the two generators' outputs
    interleaved.  Each generator is a shift-XOR over the whole array."""
    out = np.empty((x.shape[0], 2 * x.shape[1]), dtype=np.uint8)
    for column, taps in ((0, G1_TAPS), (1, G2_TAPS)):
        v = x.copy()  # tap 0 of both generators is set
        for j in np.flatnonzero(taps[1:]) + 1:
            v[:, j:] ^= x[:, :-j]
        out[:, column::2] = v
    return out


def conv_encode(bits) -> np.ndarray:
    """Encode a bit stream; output length is 2 * (len(bits) + 6)."""
    x = np.concatenate([as_bits(bits), np.zeros(CONSTRAINT_LENGTH - 1, dtype=np.uint8)])
    return _encode_rows(x[None])[0]


def conv_encode_segments(bits: np.ndarray, k: int) -> np.ndarray:
    """Encode ``bits`` in segments of ``k`` bits, the last of which may be
    shorter, each with its own tail: the concatenation of
    :func:`conv_encode` of every segment, in one array pass.  A short last
    segment's row runs on in zeros past its tail, which leave the encoder in
    the zero state and emit zeros; they are cut off."""
    segments = -(-bits.size // k)
    padded = np.zeros(segments * k, dtype=np.uint8)
    padded[:bits.size] = bits
    rows = np.zeros((segments, k + CONSTRAINT_LENGTH - 1), dtype=np.uint8)
    rows[:, :k] = padded.reshape(segments, k)
    coded = _encode_rows(rows).reshape(-1)
    return coded[:2 * (bits.size + segments * (CONSTRAINT_LENGTH - 1))]


def viterbi_decode(coded) -> np.ndarray:
    """Maximum-likelihood hard-decision decode of one tail-terminated block."""
    c = np.asarray(coded)
    if c.ndim != 1:
        raise FramingError("coded stream must be one-dimensional")
    return viterbi_decode_segments(c, c.size)


def viterbi_decode_segments(coded: np.ndarray, n: int) -> np.ndarray:
    """Decode streams of terminated segments of ``n`` coded bits each, the
    last of which may be shorter; returns the information bits.

    ``coded`` is one stream, or a ``(P, L)`` array of ``P`` streams of equal
    length decoded in one batch; the result has the same number of
    dimensions.  The streams are packed and decoded by :func:`decode_rows`,
    the codec's path.  Raises :class:`FramingError` unless every segment,
    the short one too, is a whole number of steps and holds at least one
    information bit besides its tail, and raises ValueError unless every
    coded bit is 0 or 1 (see :func:`~gmsklink.errors.as_bits`).
    """
    raw = np.asarray(coded)
    if raw.ndim not in (1, 2) or raw.shape[-1] == 0:
        raise FramingError("expected a nonempty coded stream or a (P, L) batch of them")
    c = as_bits(raw.reshape(-1)).reshape(raw.shape)
    streams = c.reshape(-1, c.shape[-1])
    length = streams.shape[1]
    bits = decode_rows(np.packbits(streams, axis=1), length, n)
    info = length // 2 - -(-length // n) * (CONSTRAINT_LENGTH - 1)
    return np.unpackbits(bits, axis=1, count=info).reshape(*c.shape[:-1], -1)


def decode_rows(rows: np.ndarray, length: int, n: int) -> np.ndarray:
    """Decode the ``(P, ceil(length / 8))`` streams of ``length`` coded
    bits packed by ``np.packbits``, each in terminated segments of ``n``
    coded bits, the last of which may be shorter; returns their information
    bits packed the same way, pad bits 0.

    Each stream's short last segment rides in the batch with the full
    ones: it is padded with zero pairs at the front, and its trellis
    restarts in the zero state at its own first step, so it decodes as it
    would alone.  Raises :class:`FramingError` unless every segment, the
    short one too, is a whole number of steps and holds at least one
    information bit besides its tail.
    """
    _check_segment(n)
    _check_segment(length % n or n)
    count = rows.shape[0]
    segments = -(-length // n)
    pad = (-length % n) // 2  # zero pairs before the short last segment
    restart = np.zeros((count, segments), dtype=np.intp)
    restart[:, -1] = pad
    bits = _decode(_received_pairs(rows, length, n), restart.ravel())
    bits = bits.reshape(count, segments, -1)
    out = np.concatenate([bits[:, :-1].reshape(count, -1), bits[:, -1, pad:]], axis=1)
    return np.packbits(out, axis=1)


def _received_pairs(rows: np.ndarray, length: int, n: int) -> np.ndarray:
    """The received pairs ``r1 << 1 | r2`` of every segment of ``n`` coded
    bits of the packed ``(P, ceil(length / 8))`` streams of ``length``
    bits, 4 pairs to a byte, as the ``(P * S, n // 2)`` transpose of a
    C-ordered array: row ``p * S + g`` is segment ``g`` of stream ``p``, a
    short last segment with zero pairs in front.  Each stream's pairs are
    read from its bytes into one array of a byte a pair, then written in
    place."""
    count = rows.shape[0]
    steps = n // 2
    full, rest = divmod(length, n)
    stream = np.empty((*rows.shape, 4), dtype=np.uint8)
    for j in range(4):  # the first pair in a byte's top two bits
        np.right_shift(rows, 6 - 2 * j, out=stream[..., j])
    stream &= 3
    stream = stream.reshape(count, -1)
    pairs = np.zeros((steps, count, full + (rest > 0)), dtype=np.uint8)
    pairs[:, :, :full].transpose(1, 2, 0)[...] = (
        stream[:, :full * steps].reshape(count, full, steps))
    if rest:
        pairs[steps - rest // 2:, :, full] = stream[:, full * steps:length // 2].T
    return pairs.reshape(steps, -1).T


def _check_segment(width: int):
    if width % 2 or width < 2 * CONSTRAINT_LENGTH:
        raise FramingError(f"a terminated segment of {width} coded bits is odd "
                           f"or shorter than {2 * CONSTRAINT_LENGTH}")


def _decode(pairs: np.ndarray, restart: np.ndarray | None = None) -> np.ndarray:
    """Hard-decision Viterbi over a (B, T) batch of received pairs
    ``r1 << 1 | r2`` (``uint8``, 0-3); returns (B, T - 6) ``uint8`` bits.

    The pairs are read a step at a time, so they are best the transpose of
    a C-ordered (T, B) array; the codec reads them so from its packed rows,
    4 pairs to a byte (see :func:`_received_pairs`).  They, the
    stage and the metrics are let go once the forward pass is done, and the
    traceback writes its bits straight into the result: beside the packed
    choices, the traceback holds only the result and one unpacked stage.

    Row ``i``'s trellis restarts in the zero state at step ``restart[i]``
    (0 for every row when ``restart`` is None), so its bits before that
    step mean nothing.  The metrics are state-major, a ``(64, B)`` array
    with the rows innermost, so every operation of a step runs over
    contiguous rows.  Each step gathers the cost of every edge, its branch
    metric less 1 (see :func:`_edge_costs`), then makes one add-compare-
    select over the 32 butterflies: into state ``2j + b`` the candidates
    are ``pm[j] + cost`` and ``pm[j + 32] - cost``, ties keep pred0, and
    the winners and choices go straight into natural-order views.  Paths
    from a nonzero start state carry a penalty of 13, above the 12 any
    zero-start path reaches in the 6 steps after which every state has one,
    so they never win against one.  A row's metrics then lie within 25 of
    its least, which moves by at most 1 a step; after each stage of
    ``_STAGE`` steps that least is subtracted, so every metric stays within
    -8 and 33 and is an ``int8``.  The choices are kept at one bit each.
    """
    nb, steps = pairs.shape
    received, pairs = pairs.T, None  # (T, B); freed below unless the caller holds it
    start = np.full((_N_STATES, 1), _PENALTY, dtype=np.int8)
    start[0] = 0
    pm = np.repeat(start, nb, axis=1)
    nxt = np.empty_like(pm)
    # the costs of each received pair, and the costs and candidates of the
    # edges into each state, as (32, 2, B) views [j, b] of 2j + b
    costs = np.empty((4, nb), dtype=np.int8)
    edge, c0, c1 = (np.empty((_HALF, 2, nb), dtype=np.int8) for _ in range(3))
    stage = np.empty((_STAGE, _N_STATES * nb), dtype=bool)
    back = np.empty((steps, _N_STATES * nb // 8), dtype=np.uint8)
    restarts = {}
    if restart is not None:
        # a plain grouping: np.unique would import numpy.ma on numpy 2.4
        for t in sorted(set(restart[restart > 0].tolist())):
            restarts[t] = np.flatnonzero(restart == t)
    for t in range(steps):
        rows = restarts.get(t)
        if rows is not None:
            pm[:, rows] = start
        # pairs are 0-3: "clip" spares the copy of out that "raise" makes
        np.take(_COSTS, received[t], axis=1, out=costs, mode="clip")
        np.take(costs, _PAIRS, axis=0, out=edge.reshape(_N_STATES, nb), mode="clip")
        np.add(pm[:_HALF, None], edge, out=c0)
        np.subtract(pm[_HALF:, None], edge, out=c1)
        np.less(c1, c0, out=stage[t % _STAGE].reshape(_HALF, 2, nb))
        np.minimum(c0, c1, out=nxt.reshape(_HALF, 2, nb))
        pm, nxt = nxt, pm
        if t % _STAGE == _STAGE - 1 or t == steps - 1:
            pm -= pm.min(axis=0)
            t0 = t - t % _STAGE
            back[t0:t + 1] = np.packbits(stage[:t + 1 - t0], axis=None,
                                         bitorder="little").reshape(t + 1 - t0, -1)
    del received, stage, pm, nxt, costs, edge, c0, c1

    # tail-terminated: trace back from state 0; the choice into state s of
    # row i at step t, flat[t, s * B + i], is 1 where s came from
    # s >> 1 | 32
    rows = np.arange(nb)
    state = np.zeros(nb, dtype=np.intp)
    info = steps - (CONSTRAINT_LENGTH - 1)
    bits = np.empty((nb, info), dtype=np.uint8)
    for t in range(steps - 1, -1, -1):
        if t == steps - 1 or t % _STAGE == _STAGE - 1:
            t0 = t - t % _STAGE
            flat = None  # one unpacked stage at a time
            flat = np.unpackbits(back[t0:t + 1], axis=None, bitorder="little")
            flat = flat.reshape(t + 1 - t0, -1)
        if t < info:
            bits[:, t] = state & 1
        choice = flat[t - t0, state * nb + rows]
        state = state >> 1 | choice.astype(np.intp) << (CONSTRAINT_LENGTH - 2)
    return bits
