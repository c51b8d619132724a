"""Tests for the K = 7 rate-1/2 convolutional code and Viterbi decoder."""

import tracemalloc

import numpy as np
import pytest

from gmsklink.errors import FramingError
from gmsklink.fec import conv_encode, viterbi_decode
from gmsklink.fec import apply_code, conv_spec, strip_code
from gmsklink.fec.convolutional import (D_FREE, G1_TAPS, G2_TAPS,
                                        conv_encode_segments,
                                        viterbi_decode_segments)


def _reference_encode(bits):
    # the generators as mod-2 convolutions of the stream and its zero tail
    x = np.concatenate([bits, np.zeros(6, np.uint8)])
    out = np.empty(2 * x.size, np.uint8)
    out[0::2] = np.convolve(x, G1_TAPS)[:x.size] & 1
    out[1::2] = np.convolve(x, G2_TAPS)[:x.size] & 1
    return out


def test_all_zero_input_gives_all_zero_output():
    assert not conv_encode(np.zeros(50, np.uint8)).any()


def test_single_one_gives_generator_impulse_response():
    out = conv_encode(np.array([1], dtype=np.uint8))
    expected = np.empty(14, np.uint8)
    expected[0::2] = G1_TAPS
    expected[1::2] = G2_TAPS
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("length", [1, 17, 200])
def test_output_length_includes_tail(length):
    bits = np.ones(length, np.uint8)
    assert conv_encode(bits).size == 2 * (length + 6)


@pytest.mark.parametrize("length", [1, 2, 6, 7, 13, 200, 1000])
def test_matches_the_convolution_reference(length):
    bits = np.random.default_rng(length).integers(0, 2, length).astype(np.uint8)
    np.testing.assert_array_equal(conv_encode(bits), _reference_encode(bits))


@pytest.mark.parametrize("k", [1, 7, 64, 512])
@pytest.mark.parametrize("length", [1, 6, 7, 63, 64, 65, 511, 512, 513, 1500, 25_000])
def test_segments_in_one_pass_match_each_segment_alone(k, length):
    # every segment goes through one array pass, a short last one padded
    # with zeros past its tail
    bits = np.random.default_rng(k * length).integers(0, 2, length).astype(np.uint8)
    want = np.concatenate([_reference_encode(bits[i:i + k]) for i in range(0, length, k)])
    np.testing.assert_array_equal(conv_encode_segments(bits, k), want)
    np.testing.assert_array_equal(apply_code(bits, conv_spec(k)), want)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        conv_encode(np.array([], dtype=np.uint8))


def test_noiseless_roundtrips():
    rng = np.random.default_rng(0)
    for length in (1, 7, 64, 333):
        bits = rng.integers(0, 2, length).astype(np.uint8)
        np.testing.assert_array_equal(viterbi_decode(conv_encode(bits)), bits)


def test_odd_length_raises_framing_error():
    with pytest.raises(FramingError):
        viterbi_decode(np.zeros(15, np.uint8))


def test_too_short_stream_raises():
    with pytest.raises(FramingError):
        viterbi_decode(np.zeros(8, np.uint8))


def test_free_distance_guarantee_on_isolated_errors():
    # any floor((d_free - 1) / 2) = 4 well-separated errors are corrected
    rng = np.random.default_rng(1)
    assert (D_FREE - 1) // 2 == 4
    bits = rng.integers(0, 2, 300).astype(np.uint8)
    coded = conv_encode(bits)
    positions = [40, 180, 350, 550]  # far apart on the coded stream
    corrupted = coded.copy()
    corrupted[positions] ^= 1
    np.testing.assert_array_equal(viterbi_decode(corrupted), bits)


def test_double_errors_in_200_bit_blocks():
    rng = np.random.default_rng(2)
    for _ in range(100):
        bits = rng.integers(0, 2, 94).astype(np.uint8)  # 2(94+6) = 200 coded
        coded = conv_encode(bits)
        assert coded.size == 200
        pos = rng.choice(200, 2, replace=False)
        coded[pos] ^= 1
        np.testing.assert_array_equal(viterbi_decode(coded), bits)


def test_batch_decoder_matches_single():
    rng = np.random.default_rng(3)
    data = rng.integers(0, 2, (20, 60)).astype(np.uint8)
    coded = np.array([conv_encode(row) for row in data])
    noisy = coded.copy()
    noisy[:, 7] ^= 1
    batch = viterbi_decode_segments(noisy, noisy.shape[1])
    for i in range(20):
        np.testing.assert_array_equal(batch[i], viterbi_decode(noisy[i]))
        np.testing.assert_array_equal(batch[i], data[i])


@pytest.mark.parametrize("shape, n", [
    pytest.param((3, 4), 4, id="blocks-of-4"),
    pytest.param((3, 12), 12, id="blocks-of-12"),
    pytest.param(26, 3, id="n-3"),
    pytest.param(26, 13, id="n-13"),
    pytest.param(40, 16, id="short-last-8"),
    pytest.param(31, 16, id="odd-last-15"),
    pytest.param(0, 16, id="empty"),
    pytest.param((2, 0), 16, id="empty-rows"),
    pytest.param((2, 2, 16), 16, id="three-dims"),
])
def test_segments_must_be_whole_steps_and_hold_a_tail(shape, n):
    with pytest.raises(FramingError):
        viterbi_decode_segments(np.zeros(shape, np.uint8), n)


def test_single_block_decode_takes_one_stream():
    with pytest.raises(FramingError):
        viterbi_decode(np.zeros((2, 14), np.uint8))


@pytest.mark.parametrize("value", [2, 255, -1, 0.5])
def test_values_other_than_bits_rejected(value):
    # an int64 or float block alone, in a batch, and through the codec's
    # unpacked entry (the codec's own decode takes packed bits)
    coded = np.tile(conv_encode(np.ones(8, np.uint8)), (3, 1)).astype(type(value))
    coded[1, 3] = value
    for decode in (lambda: viterbi_decode(coded[1]), lambda: viterbi_decode_segments(coded, 28),
                   lambda: strip_code(coded[1], conv_spec(8), 8)):
        with pytest.raises(ValueError, match="may only contain 0s and 1s"):
            decode()


def test_batch_peak_memory():
    # seven streams of 25 000 bits in 512-bit segments, 343 of them: the
    # packed choices (1.4 MiB) are the one array the size of the trellis,
    # and the stage of choices kept a byte each and the block traceback
    # unpacks are eight steps each.  The peak read 2.8 MiB, against 6.3 MiB
    # with 64-step stages.
    rng = np.random.default_rng(9)
    spec = conv_spec()
    coded = np.stack([apply_code(row, spec) for row in
                      rng.integers(0, 2, (7, 25_000)).astype(np.uint8)])
    coded ^= (rng.random(coded.shape) < 0.05).astype(np.uint8)
    viterbi_decode_segments(coded[:, :3 * spec.n], spec.n)  # numpy's first-call setup
    tracemalloc.start()
    try:
        viterbi_decode_segments(coded, spec.n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.4 * 2**20
