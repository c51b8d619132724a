"""Tests for CodeSpec and the apply_code / strip_code dispatcher."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsklink.errors import ConfigError, FramingError
from gmsklink.fec import (CODECS, CodecPowerProfile, CodeSpec, apply_code,
                          block_layout, conv_spec, golay_spec, none_spec,
                          rs_spec, strip_code)

ALL_SPECS = [none_spec(), golay_spec(), rs_spec(), conv_spec()]


class TestCodeSpec:
    def test_factory_parameters(self):
        g = golay_spec()
        assert (g.n, g.k, g.rate, g.d_min, g.t) == (24, 12, 0.5, 8, 3)
        r = rs_spec()
        assert (r.n, r.k, r.d_min, r.t, r.symbol_bits) == (15, 11, 5, 2, 4)
        c = conv_spec()
        assert c.d_free == 10 and c.rate == 512 / 1036
        n = none_spec()
        assert n.rate == 1.0 and n.g_code_db == 0.0

    def test_rate_must_be_exact(self):
        # the rate is k / n by construction; it cannot be given separately
        with pytest.raises(TypeError):
            CodeSpec(name="golay", n=24, k=12, rate=0.51, t=3, d_min=8)
        for spec in ALL_SPECS:
            assert spec.rate == spec.k / spec.n

    def test_rs_invariants_enforced(self):
        with pytest.raises(ConfigError):
            CodeSpec(name="reed_solomon", n=15, k=11, t=2, d_min=4, symbol_bits=4)

    def test_singleton_bound(self):
        # d_min <= n - k + 1 for the block codes, equality exactly for RS
        for spec in (golay_spec(), rs_spec()):
            assert spec.d_min <= spec.n - spec.k + 1
        assert rs_spec().d_min == rs_spec().n - rs_spec().k + 1
        assert golay_spec().d_min < golay_spec().n - golay_spec().k + 1


class TestBlockLayout:
    def test_golay_1000_bits(self):
        layout = block_layout(1000, golay_spec())
        assert (layout.n_blocks, layout.coded_bits, layout.pad_bits) == (84, 2016, 8)

    def test_rs_partial_block(self):
        layout = block_layout(45, rs_spec())
        assert layout.n_blocks == 2
        assert layout.coded_bits == 120
        assert layout.pad_bits == 43

    def test_conv_no_padding(self):
        layout = block_layout(1000, conv_spec())
        assert layout.pad_bits == 0
        assert layout.coded_bits == 2 * (512 + 6) + 2 * (488 + 6)

    def test_none_identity(self):
        layout = block_layout(77, none_spec())
        assert (layout.n_blocks, layout.coded_bits, layout.pad_bits) == (1, 77, 0)


class TestRoundtrip:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_noiseless_identity(self, spec):
        rng = np.random.default_rng(5)
        for length in (1, 12, 44, 513, 2000):
            bits = rng.integers(0, 2, length).astype(np.uint8)
            coded = apply_code(bits, spec)
            assert coded.size == block_layout(length, spec).coded_bits
            np.testing.assert_array_equal(strip_code(coded, spec, length), bits)

    @given(st.integers(1, 600), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_roundtrip_and_rate_bookkeeping(self, length, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, length).astype(np.uint8)
        for spec in ALL_SPECS:
            coded = apply_code(bits, spec)
            assert coded.size * spec.rate >= length - 1e-9
            np.testing.assert_array_equal(strip_code(coded, spec, length), bits)

    def test_none_spec_is_identity(self):
        bits = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        np.testing.assert_array_equal(apply_code(bits, none_spec()), bits)

    def test_wrong_coded_length_raises(self):
        bits = np.ones(24, np.uint8)
        coded = apply_code(bits, golay_spec())
        with pytest.raises(FramingError):
            strip_code(coded[:-1], golay_spec(), 24)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    @pytest.mark.parametrize("value, dtype", [
        (2, np.uint8), (3, np.uint8), (255, np.uint8), (-1, np.int64),
        (256, np.int64), (0.5, float),
    ])
    def test_values_other_than_0_and_1_rejected(self, spec, value, dtype):
        bits = np.zeros(40, dtype)
        bits[7] = value
        with pytest.raises(ValueError, match="0s and 1s"):
            apply_code(bits, spec)
        coded = apply_code(np.zeros(40, np.uint8), spec).astype(dtype)
        coded[3] = value
        with pytest.raises(ValueError, match="0s and 1s"):
            strip_code(coded, spec, 40)

    @pytest.mark.parametrize("spec", ALL_SPECS + [conv_spec(16)], ids=lambda s: s.name)
    def test_batch_decode_equals_each_stream(self, spec):
        # five noisy streams of one length decoded in one call, against
        # strip_code of each; the counts are summed over the streams
        rng = np.random.default_rng(12)
        info = rng.integers(0, 2, (5, 301)).astype(np.uint8)
        coded = np.stack([apply_code(row, spec) for row in info])
        coded ^= (rng.random(coded.shape) < 0.03).astype(np.uint8)
        decode = CODECS[spec.name].decode
        bits, corrected, failed = decode(coded, spec, 301)
        alone = [decode(row, spec, 301) for row in coded]
        np.testing.assert_array_equal(bits, [strip_code(row, spec, 301) for row in coded])
        assert (corrected, failed) == (sum(a[1] for a in alone), sum(a[2] for a in alone))


class TestErrorCorrectionThroughPipeline:
    def test_golay_corrects_scattered_errors(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2, 240).astype(np.uint8)
        coded = apply_code(bits, golay_spec())
        # two errors in each 24-bit block stay within the radius
        for blk in range(coded.size // 24):
            pos = rng.choice(24, 2, replace=False)
            coded[blk * 24 + pos] ^= 1
        np.testing.assert_array_equal(strip_code(coded, golay_spec(), 240), bits)

    def test_rs_corrects_symbol_errors(self):
        rng = np.random.default_rng(9)
        bits = rng.integers(0, 2, 88).astype(np.uint8)
        coded = apply_code(bits, rs_spec())
        # corrupt two whole symbols in each 60-bit block
        for blk in range(coded.size // 60):
            syms = rng.choice(15, 2, replace=False)
            for s in syms:
                coded[blk * 60 + 4 * s: blk * 60 + 4 * s + 4] ^= 1
        np.testing.assert_array_equal(strip_code(coded, rs_spec(), 88), bits)

    def test_uncorrectable_block_degrades_not_erases(self):
        # 4 errors in one Golay block are detected, never corrected; the
        # raw systematic bits must pass through
        bits = np.zeros(12, np.uint8)
        coded = apply_code(bits, golay_spec())
        coded[[12, 13, 14, 15]] ^= 1  # parity half only
        got = strip_code(coded, golay_spec(), 12)
        np.testing.assert_array_equal(got, bits)  # systematic half was clean


def test_codec_power_profile_validation():
    CodecPowerProfile(0.0, 0.0)
    with pytest.raises(ConfigError):
        CodecPowerProfile(-0.01, 0.035)
