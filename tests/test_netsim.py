"""Tests for deployments, greedy routing and route energy."""

import dataclasses

import numpy as np
import pytest

from gmsklink.channel import LinkBudget, path_gain
from gmsklink.energy import (CodedVariant, PowerProfile, TimingProfile,
                             amplifier_beta, circuit_powers,
                             total_energy_uncoded, tx_energy_uncoded)
from gmsklink.errors import ConfigError, RoutingError
from gmsklink.fec import CodecPowerProfile, conv_spec, golay_spec, rs_spec
from gmsklink.netsim import (Deployment, EnsembleSpec, build_route,
                             compare_coded_uncoded, deploy_random,
                             route_energy)

POWER = PowerProfile()
TIMING = TimingProfile()
BUDGET = LinkBudget()
CODEC_POWER = CodecPowerProfile()
GOLAY = golay_spec()


class TestDeployRandom:
    def test_two_nodes_inside_field(self):
        dep = deploy_random(2, 50.0, 80.0, seed=0)
        assert len(dep.nodes) == 2
        for _, x, y in dep.nodes:
            assert 0 <= x <= 50 and 0 <= y <= 80

    def test_deterministic(self):
        assert deploy_random(20, 100, 100, seed=4) == deploy_random(20, 100, 100, seed=4)

    def test_mean_position_near_field_centre(self):
        # law of large numbers over 10^4 deployments
        total = np.zeros(2)
        count = 0
        for seed in range(10_000 // 20):
            dep = deploy_random(20, 100, 100, seed=seed)
            pts = np.array([[x, y] for _, x, y in dep.nodes])
            total += pts.sum(axis=0)
            count += len(pts)
        mean = total / count
        assert abs(mean[0] - 50) < 2.0 and abs(mean[1] - 50) < 2.0

    def test_degenerate_field_rejected(self):
        with pytest.raises(ConfigError):
            deploy_random(5, 0.0, 100.0, seed=1)
        with pytest.raises(ConfigError):
            deploy_random(1, 100.0, 100.0, seed=1)

    def test_unique_ids_enforced(self):
        with pytest.raises(ConfigError):
            Deployment(nodes=((1, 0, 0), (1, 5, 5)), field_width=10, field_height=10)


class TestBuildRoute:
    def test_sink_in_range_single_hop(self):
        dep = Deployment(nodes=((1, 0.0, 0.0), (2, 30.0, 0.0)),
                         field_width=100, field_height=10)
        route = build_route(dep, 1, 2, max_hop_m=100.0)
        assert route.hops == (1, 2)
        assert route.per_hop_distance == (30.0,)

    def test_collinear_chain_hops_every_node(self):
        # 60 m spacing with 100 m reach: the next node is the only neighbour
        dep = Deployment(nodes=tuple((i + 1, 60.0 * i, 0.0) for i in range(5)),
                         field_width=240, field_height=10)
        route = build_route(dep, 1, 5, max_hop_m=100.0)
        assert route.hops == (1, 2, 3, 4, 5)
        assert all(d == pytest.approx(60.0) for d in route.per_hop_distance)

    def test_collinear_chain_skips_with_longer_reach(self):
        dep = Deployment(nodes=tuple((i + 1, 60.0 * i, 0.0) for i in range(5)),
                         field_width=240, field_height=10)
        route = build_route(dep, 1, 5, max_hop_m=130.0)
        assert route.hops == (1, 3, 5)

    def test_isolated_source_fails(self):
        dep = Deployment(nodes=((1, 0.0, 0.0), (2, 99.0, 0.0)),
                         field_width=100, field_height=10)
        with pytest.raises(RoutingError):
            build_route(dep, 1, 2, max_hop_m=50.0)

    def test_source_equals_sink_rejected(self):
        dep = deploy_random(5, 100, 100, seed=2)
        with pytest.raises(ConfigError):
            build_route(dep, 1, 1)

    def test_distances_match_geometry(self):
        dep = deploy_random(20, 100, 100, seed=8)
        sx, sy = dep.position(1)
        sink = max(dep.nodes[1:],
                   key=lambda n: ((n[1] - sx) ** 2 + (n[2] - sy) ** 2))[0]
        route = build_route(dep, 1, sink, max_hop_m=100.0)
        for a, b, d in zip(route.hops, route.hops[1:], route.per_hop_distance):
            xa, ya = dep.position(a)
            xb, yb = dep.position(b)
            assert d == pytest.approx(np.hypot(xb - xa, yb - ya), abs=1e-9)


def _reference_route_energy(distances, power, timing, budget, pe, alpha,
                            spec=None, codec_power=None,
                            variant=CodedVariant.LITERAL):
    """The route energy written out term by term, hop by hop, in the order
    the sums have always been taken: the oracle for ``route_energy``."""
    coded = spec is not None and spec.rate < 1.0
    g_code = 10.0 ** (spec.g_code_db / 10.0) if coded else None
    t_on = timing.t_on
    t_int = t_on / spec.rate if coded and variant is CodedVariant.LITERAL else t_on
    p_tx_c, p_rx_c = circuit_powers(power)
    e_rad = e_pa = e_circ = e_trans = 0.0
    per_hop = []
    for d in distances:
        link = dataclasses.replace(budget, distance_m=d)
        rad = tx_energy_uncoded(pe, alpha, link.n_f, link.sigma2,
                                path_gain(link), timing.l_bits)
        if coded:
            rad = rad / g_code
        pa = amplifier_beta(power) * rad
        circ = (p_tx_c + p_rx_c) * t_int
        trans = 2.0 * power.p_syn * timing.t_start
        e_rad += rad
        e_pa += pa
        e_circ += circ
        e_trans += trans
        per_hop.append(rad + pa + circ + trans + 0.0)
    e_codec = (codec_power.p_enc + codec_power.p_dec) * t_int if coded else 0.0
    return (e_rad, e_pa, e_circ, e_trans, e_codec,
            e_rad + e_pa + e_circ + e_trans + e_codec, tuple(per_hop),
            e_rad + e_pa + e_codec)


class TestRouteEnergy:
    def test_matches_term_by_term_reference_exactly(self):
        rng = np.random.default_rng(11)
        powers = (POWER, PowerProfile(eta=0.4, p_syn=20e-3),
                  PowerProfile(p_adc=0, p_filt=0, p_syn=0, p_lna=0, p_ifa=0,
                               p_mixer=0))
        timings = (TIMING, TimingProfile(t_start=2e-4, l_bits=777, bit_rate=3e3))
        specs = (None, golay_spec(), rs_spec(2.5), conv_spec(g_code_db=5.0))
        for i in range(300):
            distances = tuple(rng.uniform(0.5, 400.0, rng.integers(1, 8)).tolist())
            args = (distances, powers[i % 3], timings[i % 2], BUDGET,
                    float(rng.uniform(1e-6, 0.1)), float(rng.uniform(0.3, 1.0)))
            for spec in specs:
                codec_power = CodecPowerProfile(*rng.uniform(0.0, 0.05, 2))
                for variant in CodedVariant:
                    got = route_energy(*args, spec, codec_power, variant)
                    assert dataclasses.astuple(got) == _reference_route_energy(
                        *args, spec, codec_power, variant)

    def test_single_hop_equals_link_total(self):
        r = route_energy([73.25], POWER, TIMING, BUDGET, 1e-4, 0.68)
        link = dataclasses.replace(BUDGET, distance_m=73.25)
        direct = total_energy_uncoded(POWER, TIMING, link, 1e-4, 0.68)
        assert r.e_total == pytest.approx(direct.e_total, rel=1e-15)

    def test_zero_length_route_rejected(self):
        with pytest.raises(ConfigError):
            route_energy([], POWER, TIMING, BUDGET, 1e-4, 0.68)

    def test_additivity_exact(self):
        r = route_energy([55.0, 70.0, 90.0], POWER, TIMING, BUDGET, 1e-4, 0.68,
                         GOLAY, CODEC_POWER, CodedVariant.CIRCUIT_UNSCALED)
        parts = (r.e_radiated + r.e_pa_overhead + r.e_circuit + r.e_transient
                 + r.e_codec)
        assert parts == r.e_total
        assert sum(r.per_hop_total) + r.e_codec == pytest.approx(r.e_total, rel=1e-12)

    def test_detour_never_cheaper(self):
        base = route_energy([60.0, 60.0], POWER, TIMING, BUDGET, 1e-4, 0.68)
        detour = route_energy([60.0, 45.0, 45.0], POWER, TIMING, BUDGET, 1e-4, 0.68)
        assert detour.e_total > base.e_total

    def test_coded_beats_uncoded_on_long_hops(self):
        hops = [95.0, 80.0, 99.0, 85.0]
        unc = route_energy(hops, POWER, TIMING, BUDGET, 1e-4, 0.68)
        cod = route_energy(hops, POWER, TIMING, BUDGET, 1e-4, 0.68, GOLAY,
                           CODEC_POWER, CodedVariant.CIRCUIT_UNSCALED)
        assert cod.e_total < unc.e_total

    def test_codec_energy_charged_once_not_per_hop(self):
        one = route_energy([80.0], POWER, TIMING, BUDGET, 1e-4, 0.68, GOLAY,
                           CODEC_POWER, CodedVariant.LITERAL)
        four = route_energy([80.0] * 4, POWER, TIMING, BUDGET, 1e-4, 0.68, GOLAY,
                            CODEC_POWER, CodedVariant.LITERAL)
        assert four.e_codec == one.e_codec
        assert four.e_transient == pytest.approx(4 * one.e_transient)

    def test_missing_codec_power_rejected(self):
        with pytest.raises(ConfigError):
            route_energy([80.0], POWER, TIMING, BUDGET, 1e-4, 0.68, GOLAY, None)


class TestCompareCodedUncoded:
    def test_no_gain_nonzero_codec_power_loses_every_trial(self):
        spec = golay_spec(g_code_db=0.0)
        stats = compare_coded_uncoded(EnsembleSpec(seed=1), 200, POWER, TIMING,
                                      BUDGET, 1e-4, 0.68, spec, CODEC_POWER,
                                      CodedVariant.LITERAL)
        assert stats.max < 0

    def test_replication_mode_statistics(self):
        stats = compare_coded_uncoded(EnsembleSpec(seed=2), 500, POWER, TIMING,
                                      BUDGET, 1e-4, 0.68, GOLAY, CODEC_POWER,
                                      CodedVariant.CIRCUIT_UNSCALED)
        assert stats.n_trials == 500
        assert stats.min <= stats.mean <= stats.max
        assert stats.mean > 0

    def test_deterministic(self):
        args = (EnsembleSpec(seed=3), 50, POWER, TIMING, BUDGET, 1e-4, 0.68,
                GOLAY, CODEC_POWER, CodedVariant.LITERAL)
        assert compare_coded_uncoded(*args) == compare_coded_uncoded(*args)

    def test_savings_unchanged_by_node_relabelling(self):
        # permuting node ids leaves routes and energies untouched
        dep = deploy_random(12, 100, 100, seed=13)
        relabelled = Deployment(
            nodes=tuple((nid + 100, x, y) for nid, x, y in dep.nodes),
            field_width=dep.field_width, field_height=dep.field_height)
        sx, sy = dep.position(1)
        sink = max(dep.nodes[1:],
                   key=lambda n: ((n[1] - sx) ** 2 + (n[2] - sy) ** 2))[0]
        r1 = build_route(dep, 1, sink, 100.0)
        r2 = build_route(relabelled, 101, sink + 100, 100.0)
        assert r2.per_hop_distance == r1.per_hop_distance
        e1 = route_energy(r1, POWER, TIMING, BUDGET, 1e-4, 0.68)
        e2 = route_energy(r2, POWER, TIMING, BUDGET, 1e-4, 0.68)
        assert e1.e_total == e2.e_total

    def test_radiated_only_reading_larger_savings(self):
        full = compare_coded_uncoded(EnsembleSpec(seed=4), 200, POWER, TIMING,
                                     BUDGET, 1e-4, 0.68, GOLAY, CODEC_POWER,
                                     CodedVariant.CIRCUIT_UNSCALED)
        rad = compare_coded_uncoded(EnsembleSpec(seed=4), 200, POWER, TIMING,
                                    BUDGET, 1e-4, 0.68, GOLAY, CODEC_POWER,
                                    CodedVariant.CIRCUIT_UNSCALED,
                                    radiated_only=True)
        assert rad.mean > full.mean

    def test_geometry_mode_runs(self):
        stats = compare_coded_uncoded(
            EnsembleSpec(mode="geometry", seed=5), 25, POWER, TIMING, BUDGET,
            1e-4, 0.68, GOLAY, CODEC_POWER, CodedVariant.CIRCUIT_UNSCALED)
        assert stats.n_trials >= 1
