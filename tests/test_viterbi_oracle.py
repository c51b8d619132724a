"""The butterfly Viterbi decoder against the straightforward one it replaced.

``reference_viterbi_decode_batch`` is the earlier decoder: per step it
gathers both predecessor metrics of every state and selects with
``np.where``, in int32 with a 2**20 start penalty.  The production decoder
must return the same bits on every input, ties included, though it keeps
its metrics in int8, renormalised once per 8-step stage, with a start
penalty of 13: long worst-case segments, restarts at every offset of a
stage and one-row batches check that.
"""

import numpy as np
import pytest

from gmsklink.fec import CODECS, apply_code, conv_spec, strip_code
from gmsklink.fec.convolutional import (CONSTRAINT_LENGTH, G1_TAPS, G2_TAPS,
                                        _decode, _received_pairs, conv_encode,
                                        viterbi_decode, viterbi_decode_segments)

_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)


def _transition_tables():
    # state s holds the previous 6 inputs, newest at bit 0; register value
    # for input b is reg = b | (s << 1), next state is reg & 63.
    g1_mask = int("".join(map(str, G1_TAPS)), 2)
    g2_mask = int("".join(map(str, G2_TAPS)), 2)
    # reg bit j (from LSB) is x[i-j], so reverse the tap masks
    g1 = int(f"{g1_mask:07b}"[::-1], 2)
    g2 = int(f"{g2_mask:07b}"[::-1], 2)
    out1 = np.zeros((_N_STATES, 2), dtype=np.uint8)
    out2 = np.zeros((_N_STATES, 2), dtype=np.uint8)
    for s in range(_N_STATES):
        for b in (0, 1):
            reg = b | (s << 1)
            out1[s, b] = bin(reg & g1).count("1") & 1
            out2[s, b] = bin(reg & g2).count("1") & 1
    # predecessor view: state s' was reached with input b = s' & 1 from
    # either s' >> 1 or (s' >> 1) | 32
    pred0 = np.arange(_N_STATES) >> 1
    pred1 = pred0 | (_N_STATES >> 1)
    bit = np.arange(_N_STATES) & 1
    o1_p0 = out1[pred0, bit]
    o1_p1 = out1[pred1, bit]
    o2_p0 = out2[pred0, bit]
    o2_p1 = out2[pred1, bit]
    return pred0, pred1, o1_p0, o1_p1, o2_p0, o2_p1


_PRED0, _PRED1, _O1P0, _O1P1, _O2P0, _O2P1 = _transition_tables()


def reference_viterbi_decode_batch(coded: np.ndarray) -> np.ndarray:
    """Viterbi-decode a (B, 2T) array of equal-length terminated blocks."""
    c = np.asarray(coded, dtype=np.uint8)
    nb, width = c.shape
    steps = width // 2
    r1 = c[:, 0::2]
    r2 = c[:, 1::2]

    big = np.int32(1 << 20)
    pm = np.full((nb, _N_STATES), big, dtype=np.int32)
    pm[:, 0] = 0
    back = np.empty((steps, nb, _N_STATES), dtype=bool)
    for t in range(steps):
        bm0 = (_O1P0 ^ r1[:, t, None]) + (_O2P0 ^ r2[:, t, None])
        bm1 = (_O1P1 ^ r1[:, t, None]) + (_O2P1 ^ r2[:, t, None])
        cand0 = pm[:, _PRED0] + bm0
        cand1 = pm[:, _PRED1] + bm1
        choose1 = cand1 < cand0
        back[t] = choose1
        pm = np.where(choose1, cand1, cand0)

    # tail-terminated: start traceback in state 0
    state = np.zeros(nb, dtype=np.int64)
    bits = np.empty((steps, nb), dtype=np.uint8)
    rows = np.arange(nb)
    for t in range(steps - 1, -1, -1):
        bits[t] = state & 1
        came1 = back[t][rows, state]
        state = (state >> 1) | (came1.astype(np.int64) << (CONSTRAINT_LENGTH - 2))
    return bits[: steps - (CONSTRAINT_LENGTH - 1)].T.copy()


def _noisy_blocks(rng, blocks, info_bits, p):
    coded = np.stack([conv_encode(b) for b in
                      rng.integers(0, 2, (blocks, info_bits)).astype(np.uint8)])
    return coded ^ (rng.random(coded.shape) < p).astype(np.uint8)


@pytest.mark.parametrize("p", [0.0, 0.02, 0.08, 0.2, 0.5])
def test_random_blocks_match_reference(p):
    # trellises of 7 to 518 steps, those around one and two of the
    # decoder's 8-step stages included; then two blocks and a short one of
    # 7 steps in one stream, whose trellis restarts mid-stage at step
    # steps - 7 (but for 15 steps)
    rng = np.random.default_rng(int(p * 1000) + 7)
    for steps in (7, 8, 9, 15, 16, 17, 36, 518):
        received = _noisy_blocks(rng, 40, steps - (CONSTRAINT_LENGTH - 1), p)
        np.testing.assert_array_equal(
            viterbi_decode_segments(received, received.shape[1]),
            reference_viterbi_decode_batch(received))
        if steps > 7:
            short = _noisy_blocks(rng, 1, 1, p)
            stream = np.concatenate([received[0], received[1], short[0]])
            want = np.concatenate([*reference_viterbi_decode_batch(received[:2]),
                                   reference_viterbi_decode_batch(short)[0]])
            np.testing.assert_array_equal(
                viterbi_decode_segments(stream, received.shape[1]), want)


def test_every_received_word_of_a_seven_step_block():
    # 7 steps, 14 coded bits: every one of the 2**14 words, ties and all
    words = np.arange(1 << 14)
    received = ((words[:, None] >> np.arange(13, -1, -1)) & 1).astype(np.uint8)
    np.testing.assert_array_equal(viterbi_decode_segments(received, 14),
                                  reference_viterbi_decode_batch(received))


def test_block_past_the_int16_metric_range():
    # 9000 steps: unrenormalised metrics would reach 4 * 9000 + 1 > 32767
    rng = np.random.default_rng(11)
    received = _noisy_blocks(rng, 1, 9000 - (CONSTRAINT_LENGTH - 1), 0.3)
    got = viterbi_decode(received[0])
    np.testing.assert_array_equal(got, reference_viterbi_decode_batch(received)[0])


@pytest.mark.parametrize("short", [*range(1, 65), *range(500, 513)])
def test_short_last_segment_in_the_batch(short):
    # three full 512-bit segments and a last one of `short` information bits
    rng = np.random.default_rng(short)
    spec = conv_spec(512)
    info = rng.integers(0, 2, 3 * 512 + short).astype(np.uint8)
    coded = apply_code(info, spec)
    received = coded ^ (rng.random(coded.size) < 0.06).astype(np.uint8)
    full = received[: 3 * spec.n].reshape(3, spec.n)
    want = np.concatenate([reference_viterbi_decode_batch(full).reshape(-1),
                           reference_viterbi_decode_batch(received[None, 3 * spec.n:])[0]])
    np.testing.assert_array_equal(viterbi_decode_segments(received, spec.n), want)
    np.testing.assert_array_equal(strip_code(received, spec, info.size), want)
    bits, _, _ = CODECS["convolutional"].decode(np.packbits(received)[None], spec, info.size)
    np.testing.assert_array_equal(bits, np.packbits(want)[None])


def test_short_segment_alone():
    rng = np.random.default_rng(5)
    received = _noisy_blocks(rng, 1, 40, 0.1)[0]
    np.testing.assert_array_equal(
        viterbi_decode_segments(received, 2 * (512 + CONSTRAINT_LENGTH - 1)),
        reference_viterbi_decode_batch(received[None])[0])


# at a channel error rate of 0.3 a path that leaves the zero state inside
# a short segment's zero padding can win, so a missed restart shows
@pytest.mark.parametrize("p", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("remainder", range(16))
def test_equal_length_streams_decode_as_segments_alone(remainder, p):
    # (P, L) streams of 16-bit segments, with and without full segments
    # before the short last one, against viterbi_decode of each segment
    spec = conv_spec(16)
    rng = np.random.default_rng(remainder + int(p * 1000))
    for info_len in (remainder, 3 * 16 + remainder):
        if info_len == 0:
            continue
        info = rng.integers(0, 2, (9, info_len)).astype(np.uint8)
        coded = np.stack([apply_code(row, spec) for row in info])
        coded ^= (rng.random(coded.shape) < p).astype(np.uint8)
        want = np.stack([
            np.concatenate([viterbi_decode(row[i:i + spec.n])
                            for i in range(0, row.size, spec.n)])
            for row in coded])
        if p == 0.0:
            np.testing.assert_array_equal(want, info)
        for streams in range(1, 10):
            np.testing.assert_array_equal(
                viterbi_decode_segments(coded[:streams], spec.n), want[:streams])
        np.testing.assert_array_equal(viterbi_decode_segments(coded[0], spec.n), want[0])


def _repeated(pattern, steps):
    # the coded bits of `steps` received pairs repeating `pattern`
    pairs = np.resize(np.array(pattern, dtype=np.uint8), steps)
    return np.stack([pairs >> 1, pairs & 1], axis=1).reshape(-1)


# received pairs that move the int8 metrics fastest or farthest apart: all
# pairs flipped from the zero codeword (the all-ones codeword, whose path
# metric falls by 1 a step below every other), alternating flipped and
# clean pairs, and alternating pairs of one flipped bit
_WORST = [(3,), (3, 0), (1, 2), (2, 1, 3, 0)]


@pytest.mark.parametrize("steps", [4096, 4101])
def test_long_worst_case_segments_match_reference(steps):
    # each pattern alone (a one-row batch) and all of them with noisy
    # codewords in one batch, whose rows' least metrics drift apart
    rng = np.random.default_rng(steps)
    rows = [_repeated(pattern, steps) for pattern in _WORST]
    rows += list(_noisy_blocks(rng, 2, steps - (CONSTRAINT_LENGTH - 1), 0.3))
    received = np.stack(rows)
    want = reference_viterbi_decode_batch(received)
    for row, bits in zip(received[:len(_WORST)], want):
        np.testing.assert_array_equal(viterbi_decode(row), bits)
    np.testing.assert_array_equal(viterbi_decode_segments(received, received.shape[1]), want)


def _pairs(blocks):
    # the received pairs of (B, L) terminated blocks, read as the codec
    # reads them, from packed bits
    return _received_pairs(np.packbits(blocks, axis=1), blocks.shape[1], blocks.shape[1])


@pytest.mark.parametrize("p", [0.0, 0.3])
def test_one_row_batch_matches_reference(p):
    rng = np.random.default_rng(int(p * 10) + 3)
    for steps in (7, 8, 15, 518):
        received = _noisy_blocks(rng, 1, steps - (CONSTRAINT_LENGTH - 1), p)
        np.testing.assert_array_equal(_decode(_pairs(received)),
                                      reference_viterbi_decode_batch(received))


@pytest.mark.parametrize("p", [0.05, 0.3])
def test_restarts_at_every_offset_of_a_stage(p):
    # one batch of rows that restart at every step 0 to 40, at every
    # offset of an 8-step stage five times over, each after random pairs
    # and then holding a noisy terminated block to the end, against that
    # block decoded alone; at a channel error rate of 0.3 a path from the
    # random pairs can win where a restart is missed
    rng = np.random.default_rng(int(p * 100))
    steps = 60
    restart = np.arange(41)
    pairs = rng.integers(0, 4, (restart.size, steps)).astype(np.uint8)
    want = []
    for row, t in zip(pairs, restart):
        block = _noisy_blocks(rng, 1, steps - t - (CONSTRAINT_LENGTH - 1), p)
        row[t:] = _pairs(block)[0]
        want.append(reference_viterbi_decode_batch(block)[0])
    got = _decode(np.ascontiguousarray(pairs.T).T, restart)
    for bits, t, expected in zip(got, restart, want):
        np.testing.assert_array_equal(bits[t:], expected, err_msg=f"restart at {t}")
