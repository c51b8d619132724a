"""Tests for the Reed-Solomon (15, 11) codec over GF(16)."""

import itertools

import numpy as np
import pytest

from gmsklink.errors import DecodeFailure
from gmsklink.fec import reed_solomon as rs
from gmsklink.fec import rs_decode, rs_encode, rs_spec


def test_parameters():
    assert (rs.N_SYMBOLS, rs.K_SYMBOLS, rs.T_CORRECT) == (15, 11, 2)
    assert rs.D_MIN == rs.N_SYMBOLS - rs.K_SYMBOLS + 1 == 5
    spec = rs_spec()
    assert (spec.n, spec.k, spec.t, spec.d_min, spec.symbol_bits) == (15, 11, 2, 5, 4)


def test_all_zero_message():
    np.testing.assert_array_equal(rs_encode(np.zeros(11, int)), np.zeros(15, int))


def test_systematic():
    rng = np.random.default_rng(0)
    msg = rng.integers(0, 16, 11)
    np.testing.assert_array_equal(rs_encode(msg)[:11], msg)


def test_noiseless_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        msg = rng.integers(0, 16, 11)
        got, corrected = rs_decode(rs_encode(msg))
        np.testing.assert_array_equal(got, msg)
        assert corrected == 0


def test_linearity_symbolwise():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 16, (200, 11))
    b = rng.integers(0, 16, (200, 11))
    np.testing.assert_array_equal(rs.encode_words(a ^ b),
                                  rs.encode_words(a) ^ rs.encode_words(b))


def test_out_of_range_symbol_rejected():
    msg = np.zeros(11, int)
    msg[3] = 16
    with pytest.raises(ValueError):
        rs_encode(msg)
    with pytest.raises(ValueError):
        rs_decode(np.full(15, 16))
    with pytest.raises(ValueError):
        rs.decode_words(np.full((2, 15), -1))


def test_encode_rejects_a_fractional_symbol():
    # 3.5 used to be cast to symbol 3
    with pytest.raises(ValueError, match="must be integers"):
        rs_encode([3.5] + [0] * 10)


def test_decode_rejects_a_fractional_symbol():
    with pytest.raises(ValueError, match="must be integers"):
        rs_decode([3.5] + [0] * 14)


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        rs_encode(np.zeros(12, int))
    with pytest.raises(ValueError):
        rs.encode_words(np.zeros((3, 15), int))
    with pytest.raises(ValueError):
        rs.decode_words(np.zeros(15, int))


def test_single_errors_exhaustive():
    cw = rs_encode(np.arange(11) % 16)
    errors = [(pos, mag) for pos in range(15) for mag in range(1, 16)]
    received = np.tile(cw, (len(errors), 1))
    for row, (pos, mag) in enumerate(errors):
        received[row, pos] ^= mag
    words, corrected, failed = rs.decode_words(received)
    assert not failed.any()
    np.testing.assert_array_equal(words, np.tile(cw, (len(errors), 1)))
    assert (corrected == 1).all()


def test_double_errors_all_position_pairs():
    rng = np.random.default_rng(3)
    cw = rs_encode(rng.integers(0, 16, 11))
    pairs = list(itertools.combinations(range(15), 2))
    received = np.tile(cw, (len(pairs), 1))
    for row, (p1, p2) in enumerate(pairs):
        received[row, p1] ^= int(rng.integers(1, 16))
        received[row, p2] ^= int(rng.integers(1, 16))
    words, corrected, failed = rs.decode_words(received)
    assert not failed.any()
    np.testing.assert_array_equal(words, np.tile(cw, (len(pairs), 1)))
    assert (corrected == 2).all()


def test_triple_errors_never_crash():
    rng = np.random.default_rng(4)
    msgs = rng.integers(0, 16, (500, 11))
    received = rs.encode_words(msgs)
    for row in received:
        for p in rng.choice(15, 3, replace=False):
            row[p] ^= int(rng.integers(1, 16))
    words, corrected, failed = rs.decode_words(received)
    # failed words pass through raw
    np.testing.assert_array_equal(words[failed], received[failed])
    assert (corrected[failed] == 0).all()
    # any success is a codeword within distance t
    ok = ~failed
    np.testing.assert_array_equal(rs.encode_words(words[ok, :11]), words[ok])
    distance = np.count_nonzero(words[ok] != received[ok], axis=1)
    assert (distance <= rs.T_CORRECT).all()
    np.testing.assert_array_equal(distance, corrected[ok])
    assert failed.sum() > 0  # overwhelmingly the common case


def test_every_syndrome_exhaustive():
    # the 65536 words [0]*11 + parity cover every syndrome exactly once
    parity = np.arange(1 << 16)
    received = np.zeros((parity.size, 15), dtype=np.int64)
    received[:, 11:] = (parity[:, None] >> np.array([12, 8, 4, 0])) & 15
    words, corrected, failed = rs.decode_words(received)
    assert int((~failed).sum()) == 23_851  # every error pattern of weight <= 2
    ok = ~failed
    np.testing.assert_array_equal(rs.encode_words(words[ok, :11]), words[ok])
    distance = np.count_nonzero(words[ok] != received[ok], axis=1)
    assert distance.max() <= 2
    np.testing.assert_array_equal(distance, corrected[ok])
    np.testing.assert_array_equal(words[failed], received[failed])
    assert (corrected[failed] == 0).all()


def test_decode_raises_on_failure():
    r = rs_encode(np.zeros(11, int))
    r[0] ^= 1
    r[5] ^= 7
    r[9] ^= 3
    _, _, failed = rs.decode_words(r[None, :])
    assert failed[0]
    with pytest.raises(DecodeFailure):
        rs_decode(r)


def test_module_level_helpers():
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 16, 11)
    cw = rs_encode(msg)
    got, corrected = rs_decode(cw)
    np.testing.assert_array_equal(got, msg)
    assert corrected == 0


def test_bits_symbols_roundtrip():
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, 44).astype(np.uint8)
    np.testing.assert_array_equal(rs.symbols_to_bits(rs.bits_to_symbols(bits)), bits)
