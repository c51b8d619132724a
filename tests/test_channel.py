"""Tests for AWGN calibration and the path-gain model."""

import numpy as np
import pytest

from gmsklink.channel import (ChannelConfig, LinkBudget, awgn, noise_variance,
                              path_gain, substream)
from gmsklink.errors import ConfigError
from gmsklink.modem import BasebandSignal


def _unit_signal(n, sps=8):
    return BasebandSignal(samples=np.ones(n, dtype=complex), sample_rate=sps * 1e4)


class TestAwgn:
    def test_infinite_ebno_returns_input_unchanged(self):
        sig = _unit_signal(1000)
        out = awgn(sig, ChannelConfig(ebno_db=np.inf, samples_per_symbol=8))
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_variance_within_one_percent(self):
        n = 1_000_000
        cfg = ChannelConfig(ebno_db=6.0, samples_per_symbol=8, seed=17)
        out = awgn(_unit_signal(n), cfg)
        noise = out.samples - 1.0
        target = noise_variance(cfg)
        measured = np.mean(np.abs(noise) ** 2)
        assert abs(measured / target - 1.0) < 0.01

    def test_rate_adjustment_shifts_variance(self):
        cfg_full = ChannelConfig(ebno_db=6.0, code_rate=1.0, samples_per_symbol=8)
        cfg_half = ChannelConfig(ebno_db=6.0, code_rate=0.5, samples_per_symbol=8)
        assert noise_variance(cfg_half) == pytest.approx(2 * noise_variance(cfg_full))

    def test_same_seed_bit_identical(self):
        sig = _unit_signal(5000)
        cfg = ChannelConfig(ebno_db=3.0, samples_per_symbol=8, seed=99)
        np.testing.assert_array_equal(awgn(sig, cfg).samples, awgn(sig, cfg).samples)

    def test_different_seeds_differ(self):
        sig = _unit_signal(5000)
        a = awgn(sig, ChannelConfig(ebno_db=3.0, samples_per_symbol=8, seed=1))
        b = awgn(sig, ChannelConfig(ebno_db=3.0, samples_per_symbol=8, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_noise_whiteness(self):
        n = 1_000_000
        cfg = ChannelConfig(ebno_db=0.0, samples_per_symbol=8, seed=5)
        noise = awgn(_unit_signal(n), cfg).samples - 1.0
        var = np.mean(np.abs(noise) ** 2)
        for lag in (1, 2, 5):
            corr = np.mean(noise[lag:] * np.conj(noise[:-lag]))
            # estimator std of the autocorrelation is var / sqrt(n)
            assert abs(corr) < 3 * var / np.sqrt(n - lag)

    def test_iq_balance_and_independence(self):
        n = 1_000_000
        cfg = ChannelConfig(ebno_db=0.0, samples_per_symbol=8, seed=6)
        noise = awgn(_unit_signal(n), cfg).samples - 1.0
        vi, vq = noise.real.var(), noise.imag.var()
        assert abs(vi / vq - 1.0) < 0.01
        rho = np.mean(noise.real * noise.imag) / np.sqrt(vi * vq)
        assert abs(rho) < 0.005

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ChannelConfig(ebno_db=5.0, code_rate=0.0)
        with pytest.raises(ConfigError):
            ChannelConfig(ebno_db=5.0, samples_per_symbol=0)

    def test_nan_ebno_rejected(self):
        with pytest.raises(ConfigError, match="NaN"):
            ChannelConfig(ebno_db=float("nan"))

    @pytest.mark.parametrize("ebno_db, code_rate", [
        (-np.inf, 1.0),      # 10 ** (Eb/N0 / 10) is 0: the variance divides by it
        (-4000.0, 1.0),
        (-3200.0, 1 / 60),   # subnormal Eb/N0 per channel bit: variance inf
    ])
    def test_infinite_noise_variance_rejected(self, ebno_db, code_rate):
        with pytest.raises(ConfigError, match="noise variance that is not finite"):
            ChannelConfig(ebno_db=ebno_db, code_rate=code_rate)

    def test_huge_ebno_is_noise_free(self):
        # 10.0 ** 400 overflows a Python float
        assert noise_variance(ChannelConfig(ebno_db=4000.0)) == 0.0

    def test_nan_samples_per_symbol_rejected(self):
        with pytest.raises(ConfigError, match="samples_per_symbol must be >= 1"):
            ChannelConfig(ebno_db=5.0, samples_per_symbol=float("nan"))


class TestPathGain:
    def test_reference_distance(self):
        assert path_gain(LinkBudget(distance_m=1.0)) == pytest.approx(1e7)

    def test_hundred_meters_k3(self):
        assert path_gain(LinkBudget(distance_m=100.0)) == pytest.approx(1e13)

    def test_doubling_distance_cubes(self):
        g1 = path_gain(LinkBudget(distance_m=50.0))
        g2 = path_gain(LinkBudget(distance_m=100.0))
        assert g2 / g1 == pytest.approx(8.0)

    def test_strictly_increasing(self):
        base = dict(g_l=1e3, m_l=1e4, k_exp=3.0, distance_m=10.0)
        ref = path_gain(LinkBudget(**base))
        assert path_gain(LinkBudget(**{**base, "distance_m": 11.0})) > ref
        assert path_gain(LinkBudget(**{**base, "k_exp": 3.1})) > ref
        assert path_gain(LinkBudget(**{**base, "g_l": 1.1e3})) > ref
        assert path_gain(LinkBudget(**{**base, "m_l": 1.1e4})) > ref

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            LinkBudget(k_exp=5.0)
        with pytest.raises(ConfigError):
            LinkBudget(distance_m=0.0)
        with pytest.raises(ConfigError):
            LinkBudget(sigma2=-1.0)

    @pytest.mark.parametrize("name", ["g_l", "m_l", "n_f", "sigma2"])
    def test_nan_budget_rejected(self, name):
        with pytest.raises(ConfigError, match="must be positive"):
            LinkBudget(**{name: float("nan")})


def test_substream_reproducible_and_independent():
    a = substream(1, 2, 3).normal(size=8)
    b = substream(1, 2, 3).normal(size=8)
    c = substream(1, 2, 4).normal(size=8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
