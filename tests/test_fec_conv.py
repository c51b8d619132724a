"""Tests for the K = 7 rate-1/2 convolutional code and Viterbi decoder."""

import numpy as np
import pytest

from gmsklink.errors import FramingError
from gmsklink.fec import conv_encode, viterbi_decode
from gmsklink.fec.convolutional import (D_FREE, G1_TAPS, G2_TAPS,
                                        viterbi_decode_segments)


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
