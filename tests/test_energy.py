"""Tests for the closed-form transceiver and link energy model."""

import dataclasses
import math

import numpy as np
import pytest

from gmsklink import energy
from gmsklink.channel import LinkBudget
from gmsklink.energy import (CodedVariant, PowerProfile, TimingProfile,
                             amplifier_beta, circuit_powers,
                             crossover_distance, rx_energy_per_bit,
                             total_energy_coded, total_energy_uncoded)
from gmsklink.errors import ConfigError
from gmsklink.fec import CodecPowerProfile, golay_spec

POWER = PowerProfile()
TIMING = TimingProfile()
LINK_100M = LinkBudget(distance_m=100.0)
CODEC_POWER = CodecPowerProfile()
GOLAY = golay_spec()  # G_code = 4 dB
ALPHA = 0.68
PE = 1e-4


def _path_gain(budget):
    """G_l * d**k * M_l, written out: the oracle for the energy model's path gain."""
    return budget.g_l * budget.distance_m**budget.k_exp * budget.m_l


def tx_energy_uncoded(pe, alpha, n_f, sigma2, g_d, l_bits):
    """Radiated energy for L bits, the rx energy per bit scaled by the path
    gain ``g_d``: the oracle for the energy model's radiated term."""
    if l_bits == 0:
        return 0.0
    return rx_energy_per_bit(pe, alpha, sigma2, n_f) * g_d * l_bits


class TestAmplifierBeta:
    def test_published_operating_point_is_exactly_one_third(self):
        assert amplifier_beta(PowerProfile(eta=0.75)) == 1 / 3

    def test_ideal_amplifier(self):
        assert amplifier_beta(PowerProfile(eta=1.0)) == 0.0

    def test_high_peak_to_average(self):
        # GMSK's envelope is constant: the peak-to-average ratio is 1 and
        # cannot be set, so beta depends on eta alone
        with pytest.raises(TypeError):
            PowerProfile(eta=0.5, zeta=2.0)
        assert amplifier_beta(PowerProfile(eta=0.5)) == 1.0

    def test_eta_validated(self):
        with pytest.raises(ConfigError):
            PowerProfile(eta=0.0)


class TestCircuitPowers:
    def test_published_values(self):
        tx, rx = circuit_powers(POWER)
        assert tx == pytest.approx(52.5e-3)
        assert rx == pytest.approx(112.5e-3)
        assert tx + rx == pytest.approx(165e-3)

    def test_all_zero_profile(self):
        zeros = PowerProfile(p_adc=0, p_filt=0, p_syn=0, p_lna=0,
                             p_ifa=0, p_mixer=0)
        assert circuit_powers(zeros) == (0.0, 0.0)

    def test_synthesizer_only(self):
        syn = PowerProfile(p_adc=0, p_filt=0, p_syn=50e-3, p_lna=0,
                           p_ifa=0, p_mixer=0)
        tx, _ = circuit_powers(syn)
        assert tx == pytest.approx(50e-3)

    def test_dac_never_counted(self):
        # frequency-modulated transmitter: no DAC, so the profile has no DAC power
        with pytest.raises(TypeError):
            dataclasses.replace(POWER, p_dac=1.0)


class TestRxEnergyPerBit:
    def test_published_operating_point(self):
        value = rx_energy_per_bit(PE, ALPHA, 3.981e-21, 10.0)
        expected = (2 / 0.68) * 3.981e-21 * 10.0 * math.log(1e4)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(1.0784e-18, rel=1e-4)

    def test_pe_one_costs_nothing(self):
        assert rx_energy_per_bit(1 - 1e-15, ALPHA, 3.981e-21, 10.0) == pytest.approx(
            0.0, abs=1e-30)

    def test_halving_alpha_doubles_energy(self):
        full = rx_energy_per_bit(PE, 0.68, 3.981e-21, 10.0)
        half = rx_energy_per_bit(PE, 0.34, 3.981e-21, 10.0)
        assert half == pytest.approx(2 * full)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rx_energy_per_bit(0.0, ALPHA, 3.981e-21, 10.0)
        with pytest.raises(ValueError):
            rx_energy_per_bit(1.5, ALPHA, 3.981e-21, 10.0)


class TestTxEnergyUncoded:
    def test_published_operating_point(self):
        value = tx_energy_uncoded(PE, ALPHA, 10.0, 3.981e-21, 1e13, 1000)
        assert value == pytest.approx(1.0784e-2, rel=1e-4)

    def test_zero_bits_zero_energy(self):
        assert tx_energy_uncoded(PE, ALPHA, 10.0, 3.981e-21, 1e13, 0) == 0.0

    def test_linear_in_path_gain(self):
        one = tx_energy_uncoded(PE, ALPHA, 10.0, 3.981e-21, 1e13, 1000)
        two = tx_energy_uncoded(PE, ALPHA, 10.0, 3.981e-21, 2e13, 1000)
        assert two == pytest.approx(2 * one)

    def test_consistent_with_rx_energy(self):
        g_d = _path_gain(LINK_100M)
        direct = tx_energy_uncoded(PE, ALPHA, 10.0, 3.981e-21, g_d, 1000)
        via_rx = rx_energy_per_bit(PE, ALPHA, 3.981e-21, 10.0) * g_d * 1000
        assert direct == via_rx
        # and the oracle is the model's radiated term, byte for byte
        model = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)
        assert model.e_tx_radiated == tx_energy_uncoded(
            PE, ALPHA, LINK_100M.n_f, LINK_100M.sigma2, g_d, TIMING.l_bits)


class TestTotalEnergyUncoded:
    def test_component_values_at_100m(self):
        b = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)
        assert b.e_tx_radiated == pytest.approx(1.0784e-2, rel=1e-4)
        assert b.e_pa_overhead == pytest.approx(b.e_tx_radiated / 3, rel=1e-12)
        assert b.e_circuit == pytest.approx(0.165 * 0.1, rel=1e-12)
        assert b.e_transient == pytest.approx(2 * 50e-3 * 5e-6, rel=1e-12)
        assert b.e_codec == 0.0

    def test_components_sum_to_total(self):
        b = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)
        parts = (b.e_tx_radiated + b.e_pa_overhead + b.e_circuit
                 + b.e_transient + b.e_codec)
        assert abs(parts - b.e_total) <= 1e-12 * b.e_total

    def test_per_bit_times_l_is_total(self):
        b = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)
        assert b.e_per_info_bit * TIMING.l_bits == pytest.approx(b.e_total, rel=1e-15)

    def test_reduces_to_radiated_plus_pa(self):
        zeros = PowerProfile(p_adc=0, p_filt=0, p_syn=0, p_lna=0,
                             p_ifa=0, p_mixer=0, eta=0.75)
        timing = TimingProfile(t_start=0.0)
        b = total_energy_uncoded(zeros, timing, LINK_100M, PE, ALPHA)
        radiated = tx_energy_uncoded(PE, ALPHA, LINK_100M.n_f, LINK_100M.sigma2,
                                     _path_gain(LINK_100M), timing.l_bits)
        assert b.e_total == pytest.approx((1 + 1 / 3) * radiated, rel=1e-12)

    def test_prices_without_the_coded_binding(self, monkeypatch):
        # the uncoded energy does not call total_energy_coded, so a wrapper
        # of both public functions counts one call per priced link
        want = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)

        def nested(*args, **kwargs):
            raise AssertionError("total_energy_uncoded called total_energy_coded")

        monkeypatch.setattr(energy, "total_energy_coded", nested)
        assert energy.total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA) == want

    def test_scaling_in_l(self):
        short = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)
        longer = total_energy_uncoded(
            POWER, dataclasses.replace(TIMING, l_bits=3000), LINK_100M, PE, ALPHA)
        assert longer.e_tx_radiated == pytest.approx(3 * short.e_tx_radiated)
        # radiated share of the per-bit figure is unchanged
        assert longer.e_tx_radiated / 3000 == pytest.approx(
            short.e_tx_radiated / 1000)


class TestTotalEnergyCoded:
    def test_degenerate_code_matches_uncoded(self):
        # rate 1, 0 dB gain, free codec: coded bookkeeping collapses to uncoded
        from gmsklink.fec import none_spec

        # (the identity code is exactly how the uncoded energy is computed),
        # so every field is equal, not merely close
        free = CodecPowerProfile(0.0, 0.0)
        for d in (0.5, 1.0, 37.25, 100.0, 149.81, 1e3, 1e4):
            link = dataclasses.replace(LINK_100M, distance_m=d)
            uncoded = total_energy_uncoded(POWER, TIMING, link, PE, ALPHA)
            assert uncoded.e_codec == 0.0
            for variant in CodedVariant:
                coded = total_energy_coded(POWER, TIMING, link, PE, ALPHA,
                                           none_spec(), free, variant)
                assert dataclasses.astuple(coded) == dataclasses.astuple(uncoded)

    def test_identity_code_is_priced_as_given(self):
        # an explicit rate-1 code still pays its codec power over T_on; only
        # the uncoded link is free of it
        from gmsklink.fec import none_spec

        uncoded = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)
        assert uncoded.e_total == pytest.approx(0.0308794666748, rel=1e-12)
        for variant in CodedVariant:
            coded = total_energy_coded(POWER, TIMING, LINK_100M, PE, ALPHA,
                                       none_spec(), CODEC_POWER, variant)
            assert coded.e_codec == pytest.approx(63e-3 * 0.1, rel=1e-12)
            assert coded.e_total == pytest.approx(0.0371794666748, rel=1e-12)
            assert coded.e_total - coded.e_codec == pytest.approx(
                uncoded.e_total, rel=1e-15)

    def test_golay_literal_terms(self):
        coded = total_energy_coded(POWER, TIMING, LINK_100M, PE, ALPHA,
                                   GOLAY, CODEC_POWER, CodedVariant.LITERAL)
        uncoded = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)
        g_lin = 10 ** 0.4
        assert coded.e_tx_radiated == pytest.approx(uncoded.e_tx_radiated / g_lin)
        assert coded.e_pa_overhead == pytest.approx(uncoded.e_pa_overhead / g_lin)
        assert coded.e_circuit == pytest.approx(2 * uncoded.e_circuit)
        assert coded.e_codec == pytest.approx(63e-3 * 0.2, rel=1e-12)
        assert coded.e_transient == uncoded.e_transient

    def test_circuit_unscaled_variant(self):
        coded = total_energy_coded(POWER, TIMING, LINK_100M, PE, ALPHA,
                                   GOLAY, CODEC_POWER,
                                   CodedVariant.CIRCUIT_UNSCALED)
        uncoded = total_energy_uncoded(POWER, TIMING, LINK_100M, PE, ALPHA)
        assert coded.e_circuit == pytest.approx(uncoded.e_circuit)
        assert coded.e_codec == pytest.approx(63e-3 * 0.1, rel=1e-12)

    def test_variants_coincide_up_to_time_stretch_when_code_is_free(self):
        # zero codec power and 0 dB gain: the only difference left between
        # the two readings is the 1/R stretch on the circuit integration
        spec = golay_spec(g_code_db=0.0)
        free = CodecPowerProfile(0.0, 0.0)
        lit = total_energy_coded(POWER, TIMING, LINK_100M, PE, ALPHA, spec,
                                 free, CodedVariant.LITERAL)
        uns = total_energy_coded(POWER, TIMING, LINK_100M, PE, ALPHA, spec,
                                 free, CodedVariant.CIRCUIT_UNSCALED)
        assert lit.e_tx_radiated == uns.e_tx_radiated
        assert lit.e_pa_overhead == uns.e_pa_overhead
        assert lit.e_transient == uns.e_transient
        assert lit.e_codec == uns.e_codec == 0.0
        assert lit.e_circuit == pytest.approx(uns.e_circuit / spec.rate)

    def test_savings_increase_with_distance_beyond_crossover(self):
        d_star = crossover_distance(POWER, TIMING, LINK_100M, PE, ALPHA,
                                    GOLAY, CODEC_POWER,
                                    CodedVariant.CIRCUIT_UNSCALED)
        assert d_star is not None
        last = -np.inf
        for d in np.linspace(d_star + 1, 200.0, 40):
            link = dataclasses.replace(LINK_100M, distance_m=d)
            unc = total_energy_uncoded(POWER, TIMING, link, PE, ALPHA)
            cod = total_energy_coded(POWER, TIMING, link, PE, ALPHA, GOLAY,
                                     CODEC_POWER, CodedVariant.CIRCUIT_UNSCALED)
            saving = 1 - cod.e_per_info_bit / unc.e_per_info_bit
            assert saving > last
            last = saving
        assert last > 0


class TestCrossoverDistance:
    def test_no_gain_nonzero_codec_power_never_crosses(self):
        spec = golay_spec(g_code_db=0.0)
        assert crossover_distance(POWER, TIMING, LINK_100M, PE, ALPHA, spec,
                                  CODEC_POWER, CodedVariant.LITERAL) is None

    def test_free_coding_always_wins(self):
        zeros = PowerProfile(p_adc=0, p_filt=0, p_syn=0, p_lna=0,
                             p_ifa=0, p_mixer=0, eta=0.75)
        timing = TimingProfile(t_start=0.0)
        free = CodecPowerProfile(0.0, 0.0)
        d = crossover_distance(zeros, timing, LINK_100M, PE, ALPHA, GOLAY,
                               free, CodedVariant.LITERAL)
        assert d == pytest.approx(0.1)  # lower boundary of the search bracket

    def test_table_values_both_variants(self):
        d_lit = crossover_distance(POWER, TIMING, LINK_100M, PE, ALPHA, GOLAY,
                                   CODEC_POWER, CodedVariant.LITERAL)
        d_uns = crossover_distance(POWER, TIMING, LINK_100M, PE, ALPHA, GOLAY,
                                   CODEC_POWER, CodedVariant.CIRCUIT_UNSCALED)
        assert d_lit == pytest.approx(149.81, abs=0.1)
        assert d_uns == pytest.approx(89.96, abs=0.1)
        # at the crossover the two per-bit energies agree
        link = dataclasses.replace(LINK_100M, distance_m=d_uns)
        unc = total_energy_uncoded(POWER, TIMING, link, PE, ALPHA)
        cod = total_energy_coded(POWER, TIMING, link, PE, ALPHA, GOLAY,
                                 CODEC_POWER, CodedVariant.CIRCUIT_UNSCALED)
        assert cod.e_per_info_bit == pytest.approx(unc.e_per_info_bit, rel=1e-6)


class TestTimingProfile:
    def test_t_on_derived_from_l_and_rate(self):
        assert TimingProfile(l_bits=1000, bit_rate=1e4).t_on == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimingProfile(l_bits=0)
        with pytest.raises(ConfigError):
            TimingProfile(bit_rate=0.0)


class TestNanRejected:
    # a NaN compares false both ways, so each check must be written to fail it

    @pytest.mark.parametrize("name", ["p_adc", "p_filt", "p_syn", "p_lna",
                                      "p_ifa", "p_mixer"])
    def test_power_profile(self, name):
        with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
            PowerProfile(**{name: math.nan})

    @pytest.mark.parametrize("value", [math.nan, -1e-6])
    def test_timing_profile(self, value):
        with pytest.raises(ConfigError, match="t_start must be >= 0"):
            TimingProfile(t_start=value)

    @pytest.mark.parametrize("name", ["p_enc", "p_dec"])
    def test_codec_power_profile(self, name):
        with pytest.raises(ConfigError, match="codec powers must be >= 0"):
            CodecPowerProfile(**{name: math.nan})

    def test_timing_profile_l_bits(self):
        with pytest.raises(ConfigError, match="l_bits must be >= 1"):
            TimingProfile(l_bits=math.nan)
