"""Tests for the GMSK modulator, demodulator and BER model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, erfcinv

from gmsklink.errors import ConfigError, FramingError
from gmsklink.modem import (BasebandSignal, ModemConfig, alpha_for_bt,
                            demodulate, gaussian_frequency_pulse, modulate,
                            qfunc, receiver_lowpass, theoretical_ber)


class TestModemConfig:
    def test_defaults_valid(self):
        cfg = ModemConfig()
        assert cfg.bt_product == 0.3
        assert cfg.samples_per_symbol == 8

    def test_rejects_nonpositive_bt(self):
        with pytest.raises(ConfigError):
            ModemConfig(bt_product=0.0)

    def test_rejects_odd_oversampling(self):
        with pytest.raises(ConfigError):
            ModemConfig(samples_per_symbol=7)

    def test_rejects_short_span_at_low_bt(self):
        with pytest.raises(ConfigError):
            ModemConfig(bt_product=0.3, pulse_span_symbols=1)

    def test_wide_bt_allows_short_span(self):
        ModemConfig(bt_product=2.0, pulse_span_symbols=1)

    def test_rejects_nan_span(self):
        with pytest.raises(ConfigError, match="pulse_span_symbols must be >= 1"):
            ModemConfig(bt_product=2.0, pulse_span_symbols=float("nan"))

    def test_rx_bt_floor_is_inclusive(self):
        floor = np.sqrt(np.log(2.0)) / (32.0 * np.pi)  # 64 symbol periods each side
        assert receiver_lowpass(ModemConfig(rx_bt=floor)).size == 2 * 64 * 8 + 1
        with pytest.raises(ConfigError, match="rx_bt must be >= 0.00828"):
            ModemConfig(rx_bt=np.nextafter(floor, 0.0))


class TestFrequencyPulse:
    def test_taps_sum_to_half(self):
        taps = gaussian_frequency_pulse(ModemConfig(bt_product=0.3))
        assert abs(taps.sum() - 0.5) < 1e-6

    def test_symmetric_about_centre(self):
        taps = gaussian_frequency_pulse(ModemConfig(bt_product=0.3))
        np.testing.assert_allclose(taps, taps[::-1], atol=1e-15)

    def test_matches_quadrature_oracle(self):
        # independent evaluation: integrate the Gaussian density over each
        # one-bit window instead of using the closed erfc form
        bt, sps, span = 0.3, 8, 3
        taps = gaussian_frequency_pulse(
            ModemConfig(bt_product=bt, samples_per_symbol=sps,
                        pulse_span_symbols=span))
        sigma = np.sqrt(np.log(2.0)) / (2.0 * np.pi * bt)

        def density(t):
            return np.exp(-0.5 * (t / sigma) ** 2) / (np.sqrt(2 * np.pi) * sigma)

        n = (2 * span + 1) * sps
        grid = (np.arange(n) - (n - 1) / 2) / sps
        oracle = np.array([0.5 * quad(density, t - 0.5, t + 0.5)[0] / sps
                           for t in grid])
        oracle *= 0.5 / oracle.sum()
        np.testing.assert_allclose(taps, oracle, atol=1e-12)

    def test_msk_limit_is_rectangular(self):
        sps = 8
        for bt, tol in ((100.0, 1e-9), (10.0, 1e-3)):
            taps = gaussian_frequency_pulse(
                ModemConfig(bt_product=bt, samples_per_symbol=sps,
                            pulse_span_symbols=2))
            rect = np.zeros_like(taps)
            centre = len(taps) // 2
            rect[centre - sps // 2: centre + sps // 2] = 0.5 / sps
            assert np.abs(taps - rect).max() < tol
            assert abs(taps.sum() - 0.5) < 1e-9


class TestModulate:
    def test_output_length(self):
        cfg = ModemConfig()
        sig = modulate(np.zeros(100, dtype=np.uint8), cfg)
        assert len(sig) == (100 + 2 * cfg.pulse_span_symbols) * cfg.samples_per_symbol

    def test_constant_envelope(self):
        rng = np.random.default_rng(1)
        sig = modulate(rng.integers(0, 2, 400), ModemConfig())
        assert np.abs(np.abs(sig.samples) - 1.0).max() < 1e-9

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            modulate(np.array([], dtype=np.uint8), ModemConfig())

    def test_all_zeros_gives_descending_ramp(self):
        cfg = ModemConfig()
        phase = np.unwrap(np.angle(modulate(np.zeros(24, np.uint8), cfg).samples))
        assert np.all(np.diff(phase) <= 1e-12)
        # interior symbols advance -pi/2 each
        sps = cfg.samples_per_symbol
        per_symbol = (phase[16 * sps] - phase[8 * sps]) / 8
        assert per_symbol == pytest.approx(-np.pi / 2, abs=1e-3)

    def test_bit_conjugation_under_antipodal_mapping(self):
        # bits 01 and 11 precode to the channel symbols 01 and 10
        cfg = ModemConfig()
        fwd = modulate(np.array([0, 1], np.uint8), cfg).samples
        rev = modulate(np.array([1, 1], np.uint8), cfg).samples
        np.testing.assert_allclose(fwd, np.conj(rev), atol=1e-12)

    def test_phase_continuity(self):
        rng = np.random.default_rng(7)
        for bt in (0.25, 0.3, 0.5):
            cfg = ModemConfig(bt_product=bt)
            s = modulate(rng.integers(0, 2, 3000), cfg).samples
            dphi = np.abs(np.angle(s[1:] * np.conj(s[:-1])))
            assert dphi.max() <= np.pi * 0.5 / cfg.samples_per_symbol + 1e-6

    def test_deterministic(self):
        bits = np.random.default_rng(3).integers(0, 2, 200)
        a = modulate(bits, ModemConfig()).samples
        b = modulate(bits, ModemConfig()).samples
        np.testing.assert_array_equal(a, b)


class TestDemodulate:
    @pytest.mark.parametrize("bt", [0.25, 0.3, 0.5])
    def test_noiseless_roundtrip_100k_bits(self, bt):
        cfg = ModemConfig(bt_product=bt)
        rng = np.random.default_rng(int(bt * 100))
        bits = rng.integers(0, 2, 100_000).astype(np.uint8)
        out = demodulate(modulate(bits, cfg), cfg, bits.size)
        np.testing.assert_array_equal(out, bits)

    def test_truncated_signal_raises_framing_error(self):
        cfg = ModemConfig()
        sig = modulate(np.ones(50, np.uint8), cfg)
        clipped = BasebandSignal(sig.samples[:-3], sig.sample_rate)
        with pytest.raises(FramingError):
            demodulate(clipped, cfg, 50)

    def test_wrong_sample_rate_raises(self):
        cfg = ModemConfig()
        sig = modulate(np.ones(50, np.uint8), cfg)
        bad = BasebandSignal(sig.samples, sig.sample_rate * 2)
        with pytest.raises(FramingError):
            demodulate(bad, cfg, 50)


class TestTheoreticalBer:
    def test_zero_snr_is_half(self):
        assert theoretical_ber(-np.inf, 0.68) == pytest.approx(0.5)

    def test_infinite_snr_is_zero(self):
        assert theoretical_ber(np.inf, 0.68) == 0.0

    def test_inverse_q_identity(self):
        # pick Eb/N0 so that 2 alpha Eb/N0 = Qinv(1e-4)^2, then P_e = 1e-4
        alpha = 0.68
        target = 2.0 * float(erfcinv(2e-4)) ** 2 / (2 * alpha)
        ebno_db = 10 * np.log10(target)
        assert theoretical_ber(ebno_db, alpha) == pytest.approx(1e-4, rel=1e-9)

    def test_against_high_precision_erfc(self):
        import mpmath

        for ebno in (0.0, 4.0, 8.0, 12.0):
            snr = 10 ** (ebno / 10)
            exact = float(0.5 * mpmath.erfc(mpmath.sqrt(0.68 * snr)))
            assert theoretical_ber(ebno, 0.68) == pytest.approx(exact, rel=1e-12)

    @given(st.floats(-10, 14), st.floats(-10, 14))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing_in_ebno(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo > 1e-9:
            assert theoretical_ber(hi, 0.7) < theoretical_ber(lo, 0.7)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_monotone_decreasing_in_alpha(self, a, b):
        lo, hi = sorted((a, b))
        if hi - lo > 1e-9:
            assert theoretical_ber(6.0, hi) < theoretical_ber(6.0, lo)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            theoretical_ber(6.0, 0.0)
        with pytest.raises(ValueError):
            theoretical_ber(6.0, 1.5)


class TestAlphaTable:
    def test_classic_anchors(self):
        assert alpha_for_bt(0.25) == 0.68
        assert alpha_for_bt(1.0) == 0.85
        assert alpha_for_bt(100.0) == 0.85  # MSK limit clamp

    def test_linear_between_anchors(self):
        mid = alpha_for_bt(0.625)
        assert mid == pytest.approx(0.68 + 0.17 * 0.5)

    def test_monotone(self):
        grid = np.linspace(0.2, 2.0, 40)
        vals = [alpha_for_bt(b) for b in grid]
        assert all(x <= y + 1e-15 for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bt", [0.0, -0.3, float("nan")])
    def test_rejects_non_positive_bt(self, bt):
        with pytest.raises(ConfigError, match="BT product must be positive"):
            alpha_for_bt(bt)


class TestQfunc:
    def test_matches_scipy_erfc(self):
        x = np.linspace(-10.0, 37.0, 4701)
        np.testing.assert_allclose(qfunc(x), 0.5 * erfc(x / np.sqrt(2.0)),
                                   rtol=1e-12, atol=0)

    def test_scalar_gives_numpy_float(self):
        for x in (1.5, 2, np.float64(0.5), np.array(-1.0)):
            q = qfunc(x)
            assert isinstance(q, np.float64)
            assert q == pytest.approx(0.5 * float(erfc(float(x) / np.sqrt(2.0))),
                                      rel=1e-12)

    def test_array_keeps_shape(self):
        for shape in ((3,), (2, 3), (0, 4), (2, 1, 2)):
            q = qfunc(np.full(shape, 1.0))
            assert isinstance(q, np.ndarray)
            assert q.shape == shape and q.dtype == np.float64
        assert qfunc([0.0, 1.0]).shape == (2,)

    def test_limits(self):
        q = qfunc([np.inf, -np.inf, np.nan, 0.0])
        assert q[0] == 0.0 and q[1] == 1.0 and np.isnan(q[2]) and q[3] == 0.5
