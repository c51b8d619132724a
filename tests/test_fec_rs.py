"""Tests for the Reed-Solomon (15, 11) codec over GF(16)."""

import itertools
import tracemalloc

import numpy as np
import pytest

from gmsklink.errors import DecodeFailure
from gmsklink.fec import CODECS, apply_code
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


def test_bits_to_symbols_rejects_values_other_than_bits():
    # a 2 in a symbol's last bit used to pass as symbol 2
    with pytest.raises(ValueError, match="0s and 1s"):
        rs.bits_to_symbols([0, 0, 0, 2])


def _int64_decode(coded, info_len):
    """The codec's decode with the symbols held as int64: the bits summed
    by a matrix product, the words decoded and split by int64 shifts."""
    symbols = coded.reshape(-1, rs.SYMBOL_BITS).astype(np.int64) @ np.array([8, 4, 2, 1])
    words, corrected, failed = rs.decode_words(symbols.reshape(-1, rs.N_SYMBOLS))
    assert words.dtype == np.int64
    message = words[:, :rs.K_SYMBOLS].reshape(-1, 1)
    bits = ((message >> np.array([3, 2, 1, 0])) & 1).astype(np.uint8)
    return (bits.reshape(*coded.shape[:-1], -1)[..., :info_len],
            int(corrected.sum()), int(failed.sum()))


@pytest.mark.parametrize("p", [0.0, 0.01, 0.05, 0.2])
def test_uint8_batch_decode_matches_streams_and_int64_path(p):
    # five streams of 1000 bits (23 blocks, the last one padded), with
    # channel errors from none to mostly uncorrectable blocks
    rng = np.random.default_rng(int(p * 100) + 8)
    spec, info_len = rs_spec(), 1000
    coded = np.stack([apply_code(rng.integers(0, 2, info_len).astype(np.uint8), spec)
                      for _ in range(5)])
    coded ^= (rng.random(coded.shape) < p).astype(np.uint8)
    decode = CODECS["reed_solomon"].decode
    rows = np.packbits(coded, axis=1)
    bits, corrected, failed = decode(rows, spec, info_len)
    assert bits.dtype == np.uint8 and bits.shape == (5, info_len // 8)
    want_bits, want_corrected, want_failed = _int64_decode(coded, info_len)
    np.testing.assert_array_equal(bits, np.packbits(want_bits, axis=1))
    assert (corrected, failed) == (want_corrected, want_failed)
    alone = [decode(row[None], spec, info_len) for row in rows]
    np.testing.assert_array_equal(bits, np.concatenate([b for b, _, _ in alone]))
    assert (corrected, failed) == (sum(c for _, c, _ in alone), sum(f for _, _, f in alone))
    if p == 0.05:
        assert corrected > 0 and failed > 0


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16, np.int32, np.uint64])
def test_decode_words_keeps_its_results_for_any_integer_type(dtype):
    rng = np.random.default_rng(9)
    received = rs.encode_words(rng.integers(0, 16, (300, 11)))
    received[rng.random(received.shape) < 0.1] ^= 5
    for got, want in zip(rs.decode_words(received.astype(dtype)), rs.decode_words(received)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.int64, np.uint16])
def test_symbol_range_is_checked_before_any_cast(dtype):
    # 256 would wrap to symbol 0 in uint8
    with pytest.raises(ValueError, match=r"\[0, 16\)"):
        rs.decode_words(np.full((1, 15), 256, dtype=dtype))


def test_decoding_table_entries_have_their_syndromes():
    # every entry's correction, applied to the zero word, has the syndrome
    # that indexes it and as many nonzero symbols as its weight says
    fix, weight = rs._decoding_table()
    words = np.zeros((fix.size, rs.N_SYMBOLS), dtype=np.uint8)
    rows = np.arange(fix.size)
    for shift in (8, 0):
        words[rows, (fix >> (shift + 4)) & 15] ^= (fix >> shift) & 15
    syndromes = np.bitwise_xor.reduce(rs._syndrome_table()[rs._POSITIONS, words], axis=1)
    ok = weight >= 0
    np.testing.assert_array_equal(syndromes[ok], rows[ok])
    np.testing.assert_array_equal(np.count_nonzero(words[ok], axis=1), weight[ok])
    assert not words[~ok].any()
    assert np.bincount(weight + 1).tolist() == [65_536 - 23_851, 1, 225, 23_625]


def test_symbols_keep_natural_widths():
    bits = np.random.default_rng(7).integers(0, 2, 4 * 15 * 6).astype(np.uint8)
    symbols = rs.bits_to_symbols(bits).reshape(-1, 15)
    assert symbols.dtype == np.uint8
    assert rs.encode_words(symbols[:, :11]).dtype == np.uint8
    words, corrected, failed = rs.decode_words(symbols)
    assert (words.dtype, failed.dtype) == (np.uint8, np.bool_)
    assert corrected.dtype.itemsize == 1
    assert rs.symbols_to_bits(words).dtype == np.uint8


def _cold_build(table):
    """Peak and kept traced bytes of ``table``'s first build."""
    rs._syndrome_table()
    table.cache_clear()
    tracemalloc.start()
    try:
        table()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, kept


def test_decoding_table_cold_build_memory():
    # the table is 65 536 entries of three bytes (0.19 MiB), filled one first
    # position at a time.  The build peaked at 0.23 MiB.  The three tables
    # it replaced (every pattern of weight <= 2 as 15 bytes, their weights
    # and a syndrome -> row index), built from int64 pair indices, peaked
    # at 1.42 MiB and kept 0.49 MiB.
    peak, kept = _cold_build(rs._decoding_table)
    assert peak <= 0.5 * 2**20
    assert kept <= 0.25 * 2**20


def test_parity_table_cold_build_memory():
    # the syndromes of the 65 536 parity words and their inverse, two bytes
    # an entry.  The build peaked at 0.44 MiB; with the parity words
    # numbered by an int64 arange it peaked at 0.83 MiB.
    peak, _ = _cold_build(rs._parity_table)
    assert peak <= 0.5 * 2**20
