"""Tests for AWGN calibration and the path-gain model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmsklink.channel import (ChannelConfig, LinkBudget, awgn, noise_variance,
                              substream, substream_random)
from gmsklink.energy import (PowerProfile, TimingProfile, rx_energy_per_bit,
                             total_energy_uncoded)
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


def _path_gain(budget):
    """G_l * d**k * M_l, written out: the oracle for the energy model's path gain."""
    return budget.g_l * budget.distance_m**budget.k_exp * budget.m_l


def _model_gain(budget):
    """The path gain the energy model charges: its radiated energy over the
    energy per bit the receiver needs, per bit sent."""
    timing = TimingProfile()
    radiated = total_energy_uncoded(PowerProfile(), timing, budget, 1e-4,
                                    0.68).e_tx_radiated
    return radiated / rx_energy_per_bit(1e-4, 0.68, budget.sigma2, budget.n_f) / timing.l_bits


class TestPathGain:
    def test_reference_distance(self):
        budget = LinkBudget(distance_m=1.0)
        assert _model_gain(budget) == pytest.approx(1e7)
        assert _model_gain(budget) == pytest.approx(_path_gain(budget), rel=1e-12)

    def test_hundred_meters_k3(self):
        budget = LinkBudget(distance_m=100.0)
        assert _model_gain(budget) == pytest.approx(1e13)
        assert _model_gain(budget) == pytest.approx(_path_gain(budget), rel=1e-12)

    def test_doubling_distance_cubes(self):
        g1 = _model_gain(LinkBudget(distance_m=50.0))
        g2 = _model_gain(LinkBudget(distance_m=100.0))
        assert g2 / g1 == pytest.approx(8.0)

    def test_strictly_increasing(self):
        base = dict(g_l=1e3, m_l=1e4, k_exp=3.0, distance_m=10.0)
        ref = _model_gain(LinkBudget(**base))
        assert ref == pytest.approx(_path_gain(LinkBudget(**base)), rel=1e-12)
        assert _model_gain(LinkBudget(**{**base, "distance_m": 11.0})) > ref
        assert _model_gain(LinkBudget(**{**base, "k_exp": 3.1})) > ref
        assert _model_gain(LinkBudget(**{**base, "g_l": 1.1e3})) > ref
        assert _model_gain(LinkBudget(**{**base, "m_l": 1.1e4})) > ref

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


def _assert_rows_are_substreams(entropy, count):
    rows = substream_random(entropy, count)
    assert rows.shape == (len(entropy), count) and rows.dtype == np.float64
    for row, e in zip(rows, entropy):
        assert row.tobytes() == substream(*e).random(count).tobytes()
    return rows


class TestSubstreamRandom:
    """Every row equals the per-tuple numpy draw byte for byte."""

    def test_zero_is_one_zero_word(self):
        # a 0 takes a word, so it shifts the words after it
        _assert_rows_are_substreams([(0, 0x7472, 0), (0, 0, 5), (5, 0, 0),
                                     (0, 2**40, 0)], 9)

    def test_values_crossing_two_to_the_32_in_one_call(self):
        # one- and two-word values side by side give ragged word counts
        seeds = range(2**32 - 3, 2**32 + 3)
        _assert_rows_are_substreams([(s, 0x6465) for s in seeds], 40)
        _assert_rows_are_substreams([(7, 0x7472, t) for t in seeds], 3)

    def test_two_word_seeds_give_four_word_entropy(self):
        _assert_rows_are_substreams([(2**40 + 9, 0x7472, t) for t in range(5)], 4)
        # and past four words every extra word mixes into the pool
        _assert_rows_are_substreams(
            [(2**63 + t, 2**33, 2**64 - 1 - t) for t in range(4)], 6)

    def test_seed_plus_trial_wraps_past_two_to_the_64(self):
        entropy = [(2**64 - 3 + t, 0x6465) for t in range(6)]
        rows = _assert_rows_are_substreams(entropy, 40)
        assert np.array_equal(rows[3], substream_random([(0, 0x6465)], 40)[0])

    @pytest.mark.parametrize("n_relays", [0, 2])
    def test_counts_not_a_multiple_of_four(self, n_relays):
        lo, hi = 50.0, 100.0
        entropy = [(11, 0x7472, t) for t in range(7)]
        rows = _assert_rows_are_substreams(entropy, n_relays + 1)
        for row, e in zip(lo + (hi - lo) * rows, entropy):
            uniform = substream(*e).uniform(lo, hi, n_relays + 1)
            assert row.tobytes() == uniform.tobytes()

    @given(st.integers(0, 3).flatmap(lambda k: st.lists(
               st.tuples(*[st.integers(0, 2**66)] * k), min_size=1, max_size=6)),
           st.integers(0, 13))
    @settings(max_examples=60, deadline=None)
    def test_random_tuples(self, entropy, count):
        _assert_rows_are_substreams(entropy, count)
