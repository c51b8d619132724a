"""Tests for the extended Golay (24, 12) codec."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsklink.errors import DecodeFailure
from gmsklink.fec import CODECS, apply_code, golay_decode, golay_encode, golay_spec
from gmsklink.fec.golay import (B_ROWS, decode_words, encode_words, pack_codeword_bits,
                                pack_message_bits, unpack_codeword_bits,
                                unpack_message_bits)

ALL_MESSAGES = np.arange(4096, dtype=np.uint32)
ALL_WORDS = encode_words(ALL_MESSAGES)


def test_b_matrix_symmetric_and_self_inverse():
    rows = np.array([[int(b) for b in f"{r:012b}"] for r in B_ROWS])
    np.testing.assert_array_equal(rows, rows.T)
    np.testing.assert_array_equal((rows @ rows) % 2, np.eye(12, dtype=int))


def test_all_zero_message_encodes_to_all_zero():
    np.testing.assert_array_equal(golay_encode(np.zeros(12, np.uint8)),
                                  np.zeros(24, np.uint8))


def test_encode_is_injective():
    assert len(np.unique(ALL_WORDS)) == 4096


def test_minimum_nonzero_weight_is_8():
    weights = np.bitwise_count(ALL_WORDS[1:])
    assert weights.min() == 8


def test_weight_distribution():
    weights = np.bitwise_count(ALL_WORDS)
    counts = np.bincount(weights, minlength=25)
    assert counts[0] == 1 and counts[8] == 759
    assert counts[12] == 2576 and counts[16] == 759 and counts[24] == 1


@given(st.integers(0, 4095), st.integers(0, 4095))
@settings(max_examples=200, deadline=None)
def test_linearity(a, b):
    ea, eb = encode_words(np.uint32(a)), encode_words(np.uint32(b))
    assert encode_words(np.uint32(a ^ b)) == ea ^ eb


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        golay_encode(np.zeros(11, np.uint8))
    with pytest.raises(ValueError):
        golay_decode(np.zeros(23, np.uint8))


def test_encode_rejects_a_trailing_two():
    # a 2 used to carry into the next bit and encode the message ...1, 0
    with pytest.raises(ValueError, match="only contain 0s and 1s"):
        golay_encode([0] * 11 + [2])


def test_encode_rejects_a_leading_two():
    # a leading 2 used to index past the 4096-entry product table
    with pytest.raises(ValueError, match="only contain 0s and 1s"):
        golay_encode([2] + [0] * 11)


def test_decode_rejects_a_trailing_two():
    # the zero word with a trailing 2 used to decode with one corrected error
    with pytest.raises(ValueError, match="only contain 0s and 1s"):
        golay_decode([0] * 23 + [2])


def test_zero_error_decoding_all_messages():
    msgs, corrected, failed = decode_words(ALL_WORDS)
    assert not failed.any()
    assert not corrected.any()
    np.testing.assert_array_equal(msgs, ALL_MESSAGES)


@pytest.mark.parametrize("weight", [1, 2, 3])
def test_correction_radius_sampled(weight):
    # full exhaustive run lives in the acceptance suite; sample here
    rng = np.random.default_rng(weight)
    for _ in range(40):
        positions = rng.choice(24, weight, replace=False)
        pattern = np.uint32(sum(1 << int(p) for p in positions))
        msgs, corrected, failed = decode_words(ALL_WORDS[::37] ^ pattern)
        assert not failed.any()
        np.testing.assert_array_equal(msgs, ALL_MESSAGES[::37])
        assert (corrected == weight).all()


def test_weight_four_patterns_fail_not_miscorrect():
    rng = np.random.default_rng(4)
    words = ALL_WORDS[rng.choice(4096, 64, replace=False)]
    for _ in range(80):
        positions = rng.choice(24, 4, replace=False)
        pattern = np.uint32(sum(1 << int(p) for p in positions))
        _, _, failed = decode_words(words ^ pattern)
        assert failed.all()


def test_failure_keeps_raw_systematic_bits():
    word = ALL_WORDS[123]
    corrupted = word ^ np.uint32(0b1111)  # 4 errors in the parity half
    msgs, _, failed = decode_words(np.array([corrupted]))
    assert failed[0]
    assert msgs[0] == 123  # systematic half untouched by the parity errors


def test_bit_level_roundtrip_and_failure():
    rng = np.random.default_rng(9)
    msg = rng.integers(0, 2, 12).astype(np.uint8)
    word = golay_encode(msg)
    got, corrected = golay_decode(word)
    np.testing.assert_array_equal(got, msg)
    assert corrected == 0

    word[0] ^= 1
    word[5] ^= 1
    got, corrected = golay_decode(word)
    np.testing.assert_array_equal(got, msg)
    assert corrected == 2

    word[9] ^= 1
    word[17] ^= 1  # four errors total
    with pytest.raises(DecodeFailure):
        golay_decode(word)


def test_pack_unpack_consistency():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, (10, 24)).astype(np.uint8)
    words = pack_codeword_bits(bits)
    np.testing.assert_array_equal(unpack_message_bits((words >> 12).astype(np.uint16)),
                                  bits[:, :12])


def test_pack_and_unpack_keep_natural_widths():
    bits = np.random.default_rng(3).integers(0, 2, (5, 24)).astype(np.uint8)
    assert pack_message_bits(bits[:, :12]).dtype == np.uint16
    assert pack_codeword_bits(bits).dtype == np.uint32
    assert unpack_message_bits(np.arange(5, dtype=np.uint16)).dtype == np.uint8
    assert unpack_codeword_bits(np.arange(5, dtype=np.uint32)).dtype == np.uint8
    msgs, corrected, failed = decode_words(pack_codeword_bits(bits))
    assert (msgs.dtype, corrected.dtype, failed.dtype) == (np.uint16, np.uint8, np.bool_)


def test_message_bits_roundtrip_every_12_bit_value():
    values = np.arange(1 << 12, dtype=np.uint16)
    bits = unpack_message_bits(values)
    want = (values[:, None].astype(np.int64) >> np.arange(11, -1, -1)) & 1
    np.testing.assert_array_equal(bits, want)
    np.testing.assert_array_equal(pack_message_bits(bits), values)


def test_codeword_bits_roundtrip_every_24_bit_value():
    # a slice of 2**20 values at a time; each half of a word unpacks as the
    # 12-bit value it holds, which the test above checks bit by bit
    for start in range(0, 1 << 24, 1 << 20):
        values = np.arange(start, start + (1 << 20), dtype=np.uint32)
        bits = unpack_codeword_bits(values)
        np.testing.assert_array_equal(pack_codeword_bits(bits), values)
        np.testing.assert_array_equal(bits[:, :12], unpack_message_bits(values >> 12))
        np.testing.assert_array_equal(bits[:, 12:], unpack_message_bits(values & 0xFFF))


def _peak(call):
    call()  # first-call setup and tables, untraced
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_encode_peak_memory():
    # 50 000 bits, 4167 blocks: the bits, the packed messages and the
    # codeword bits, a byte or two per value.  The peak read 0.14 MiB; with
    # the codeword bits unpacked through an int64 shift it read 0.91 MiB.
    bits = np.random.default_rng(4).integers(0, 2, 50_000).astype(np.uint8)
    assert _peak(lambda: apply_code(bits, golay_spec())) <= 0.3 * 2**20


def test_decode_peak_memory():
    # seven streams of 25 000 bits, 14 588 blocks, decoded from packed rows
    # in one call.  The peak read 0.26 MiB (0.34 MiB from unpacked bits);
    # with the bits packed through a uint32 copy and the error patterns
    # held as int64 it read 1.61 MiB.
    rng = np.random.default_rng(5)
    spec = golay_spec()
    coded = np.stack([apply_code(row, spec) for row in
                      rng.integers(0, 2, (7, 25_000)).astype(np.uint8)])
    coded ^= (rng.random(coded.shape) < 0.03).astype(np.uint8)
    rows = np.packbits(coded, axis=1)
    decode = CODECS["golay"].decode
    assert _peak(lambda: decode(rows, spec, 25_000)) <= 0.8 * 2**20
