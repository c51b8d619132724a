"""Tests for deployments, greedy routing and route energy."""

import dataclasses
import math

import numpy as np
import pytest

from gmsklink.channel import LinkBudget, substream
from gmsklink.energy import (CodedVariant, EnergyModel, PowerProfile,
                             TimingProfile, amplifier_beta, circuit_powers,
                             rx_energy_per_bit, total_energy_uncoded)
from gmsklink.errors import ConfigError, RoutingError
from gmsklink.fec import (CodecPowerProfile, conv_spec, golay_spec, none_spec,
                          rs_spec)
from gmsklink.netsim import (Deployment, EnsembleSpec, _hop_table, build_route,
                             compare_coded_uncoded, deploy_random,
                             draw_trials, route_energy)

POWER = PowerProfile()
TIMING = TimingProfile()
BUDGET = LinkBudget()
CODEC_POWER = CodecPowerProfile()
GOLAY = golay_spec()
MODEL = EnergyModel(POWER, TIMING, BUDGET, 1e-4, 0.68, CODEC_POWER)


def _path_gain(budget):
    """G_l * d**k * M_l, written out: the oracle for the energy model's path gain."""
    return budget.g_l * budget.distance_m**budget.k_exp * budget.m_l


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

    @pytest.mark.parametrize("width, height", [(math.nan, 100.0), (100.0, math.nan)])
    def test_nan_field_rejected(self, width, height):
        with pytest.raises(ConfigError, match="field must have positive area"):
            deploy_random(5, width, height, seed=1)

    def test_unique_ids_enforced(self):
        with pytest.raises(ConfigError):
            Deployment(nodes=((1, 0, 0), (1, 5, 5)), field_width=10, field_height=10)


def _reference_build_route(deployment, source_id, sink_id, max_hop_m):
    """Greedy forwarding as first written, recomputing every distance to the
    sink at every step: the oracle for ``build_route``.  Returns the hops and
    distances, or the ``RoutingError`` message."""
    positions = {nid: (x, y) for nid, x, y in deployment.nodes}
    sink = positions[sink_id]

    def dist(a, b):
        return math.hypot(a[0] - b[0], a[1] - b[1])

    hops = [source_id]
    dists = []
    current = source_id
    while current != sink_id:
        here = positions[current]
        to_sink = dist(here, sink)
        best = None
        best_to_sink = to_sink
        for nid, pos in positions.items():
            if nid == current:
                continue
            if dist(here, pos) > max_hop_m:
                continue
            d_sink = dist(pos, sink)
            if d_sink < best_to_sink:
                best = nid
                best_to_sink = d_sink
        if best is None:
            return (f"no neighbour of node {current!r} within {max_hop_m} m "
                    f"is closer to the sink")
        dists.append(dist(here, positions[best]))
        hops.append(best)
        current = best
    return tuple(hops), tuple(dists)


class TestBuildRoute:
    def test_matches_reference_on_random_deployments(self):
        rng = np.random.default_rng(23)
        failures = 0
        for seed in range(500):
            n = int(rng.integers(2, 31))
            dep = deploy_random(n, 100.0, float(rng.uniform(20.0, 150.0)), seed=seed)
            source, sink = rng.choice(n, 2, replace=False) + 1
            max_hop = float(rng.uniform(10.0, 120.0))
            expected = _reference_build_route(dep, source, sink, max_hop)
            if isinstance(expected, str):
                failures += 1
                with pytest.raises(RoutingError) as err:
                    build_route(dep, source, sink, max_hop)
                assert str(err.value) == expected
            else:
                route = build_route(dep, source, sink, max_hop)
                assert (route.hops, route.per_hop_distance) == expected
        assert 50 < failures < 450

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
    for d in distances:
        link = dataclasses.replace(budget, distance_m=d)
        rad = (rx_energy_per_bit(pe, alpha, link.sigma2, link.n_f)
               * _path_gain(link) * timing.l_bits)
        if coded:
            rad = rad / g_code
        pa = amplifier_beta(power) * rad
        circ = (p_tx_c + p_rx_c) * t_int
        trans = 2.0 * power.p_syn * timing.t_start
        e_rad += rad
        e_pa += pa
        e_circ += circ
        e_trans += trans
    e_codec = (codec_power.p_enc + codec_power.p_dec) * t_int if coded else 0.0
    return (e_rad, e_pa, e_circ, e_trans, e_codec,
            e_rad + e_pa + e_circ + e_trans + e_codec, e_rad + e_pa + e_codec)


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
                model = EnergyModel(*args[1:], codec_power)
                for variant in CodedVariant:
                    got = route_energy(distances, model, spec, variant)
                    assert dataclasses.astuple(got) == _reference_route_energy(
                        *args, spec, codec_power, variant)

    def test_single_hop_equals_link_total(self):
        r = route_energy([73.25], MODEL)
        link = dataclasses.replace(BUDGET, distance_m=73.25)
        direct = total_energy_uncoded(POWER, TIMING, link, 1e-4, 0.68)
        assert r.e_total == pytest.approx(direct.e_total, rel=1e-15)

    def test_zero_length_route_rejected(self):
        with pytest.raises(ConfigError):
            route_energy([], MODEL)

    def test_additivity_exact(self):
        r = route_energy([55.0, 70.0, 90.0], MODEL, GOLAY,
                         CodedVariant.CIRCUIT_UNSCALED)
        parts = (r.e_radiated + r.e_pa_overhead + r.e_circuit + r.e_transient
                 + r.e_codec)
        assert parts == r.e_total

    def test_detour_never_cheaper(self):
        base = route_energy([60.0, 60.0], MODEL)
        detour = route_energy([60.0, 45.0, 45.0], MODEL)
        assert detour.e_total > base.e_total

    def test_coded_beats_uncoded_on_long_hops(self):
        hops = [95.0, 80.0, 99.0, 85.0]
        unc = route_energy(hops, MODEL)
        cod = route_energy(hops, MODEL, GOLAY, CodedVariant.CIRCUIT_UNSCALED)
        assert cod.e_total < unc.e_total

    def test_codec_energy_charged_once_not_per_hop(self):
        one = route_energy([80.0], MODEL, GOLAY, CodedVariant.LITERAL)
        four = route_energy([80.0] * 4, MODEL, GOLAY, CodedVariant.LITERAL)
        assert four.e_codec == one.e_codec
        assert four.e_transient == pytest.approx(4 * one.e_transient)

    @pytest.mark.parametrize("variant", list(CodedVariant))
    def test_rate_one_code_is_priced_as_uncoded(self, variant):
        # a route prices the identity code as no code: no codec power
        hops = [55.0, 70.0, 90.0]
        unc = route_energy(hops, MODEL)
        one = route_energy(hops, MODEL, none_spec(), variant)
        assert one == unc
        assert one.e_codec == 0.0

    @pytest.mark.parametrize("spec", [None, GOLAY])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_bad_hop_distance_rejected(self, spec, bad):
        with pytest.raises(ConfigError, match="distance_m must be positive"):
            route_energy([80.0, bad], MODEL, spec)

    @pytest.mark.parametrize("spec", [None, GOLAY])
    @pytest.mark.parametrize("pe, alpha", [(0.0, 0.68), (1.0, 0.68), (-0.1, 0.68),
                                           (float("nan"), 0.68), (1e-4, 0.0),
                                           (1e-4, 1.5), (1e-4, float("nan"))])
    def test_bad_pe_or_alpha_rejected(self, spec, pe, alpha):
        with pytest.raises(ValueError, match="pe must be|alpha must be"):
            route_energy([80.0], EnergyModel(POWER, TIMING, BUDGET, pe, alpha,
                                             CODEC_POWER), spec)

    def test_missing_codec_power_rejected(self):
        with pytest.raises(ConfigError):
            route_energy([80.0], EnergyModel(POWER, TIMING, BUDGET, 1e-4, 0.68),
                         GOLAY)


class TestCompareCodedUncoded:
    def test_no_gain_nonzero_codec_power_loses_every_trial(self):
        spec = golay_spec(g_code_db=0.0)
        stats = compare_coded_uncoded(EnsembleSpec(seed=1), 200, MODEL, spec,
                                      CodedVariant.LITERAL)
        assert stats.max < 0

    @pytest.mark.parametrize("ens", [EnsembleSpec(seed=6),
                                     EnsembleSpec(mode="geometry", seed=6)])
    def test_rate_one_code_saves_nothing(self, ens):
        # the identity code is priced as the uncoded route, trial by trial
        for variant in CodedVariant:
            for radiated_only in (False, True):
                stats = compare_coded_uncoded(ens, 40, MODEL, none_spec(),
                                              variant, radiated_only)
                assert stats.n_trials >= 1
                assert all(e_u == e_c and s == 0.0
                           for _, e_u, e_c, s in stats.samples)

    def test_replication_mode_statistics(self):
        stats = compare_coded_uncoded(EnsembleSpec(seed=2), 500, MODEL, GOLAY,
                                      CodedVariant.CIRCUIT_UNSCALED)
        assert stats.n_trials == 500
        assert stats.min <= stats.mean <= stats.max
        assert stats.mean > 0

    def test_deterministic(self):
        args = (EnsembleSpec(seed=3), 50, MODEL, GOLAY, CodedVariant.LITERAL)
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
        e1 = route_energy(r1, MODEL)
        e2 = route_energy(r2, MODEL)
        assert e1.e_total == e2.e_total

    def test_radiated_only_reading_larger_savings(self):
        full = compare_coded_uncoded(EnsembleSpec(seed=4), 200, MODEL, GOLAY,
                                     CodedVariant.CIRCUIT_UNSCALED)
        rad = compare_coded_uncoded(EnsembleSpec(seed=4), 200, MODEL, GOLAY,
                                    CodedVariant.CIRCUIT_UNSCALED,
                                    radiated_only=True)
        assert rad.mean > full.mean

    def test_geometry_mode_runs(self):
        stats = compare_coded_uncoded(
            EnsembleSpec(mode="geometry", seed=5), 25, MODEL, GOLAY,
            CodedVariant.CIRCUIT_UNSCALED)
        assert stats.n_trials >= 1


def _reference_trial_distances(ens, trial):
    if ens.mode == "replication":
        rng = substream(ens.seed, 0x7472, trial)
        lo, hi = ens.hop_range
        return tuple(rng.uniform(lo, hi, ens.n_relays + 1).tolist())
    dep = deploy_random(ens.n_nodes, ens.field_width, ens.field_height,
                        seed=ens.seed + trial)
    src = dep.nodes[0][0]
    sx, sy = dep.position(src)
    sink = max(dep.nodes[1:], key=lambda n: math.hypot(n[1] - sx, n[2] - sy))[0]
    route = _reference_build_route(dep, src, sink, ens.max_hop_m)
    if isinstance(route, str):
        raise RoutingError(route)
    return route[1]


def _reference_samples(ens, trials, spec, variant, radiated_only):
    """The comparison loop as first written: each trial drawn, then priced
    uncoded and coded hop by hop.  The oracle for ``compare_coded_uncoded``."""
    samples = []
    for trial in range(trials):
        try:
            distances = _reference_trial_distances(ens, trial)
        except RoutingError:
            continue
        unc = _reference_route_energy(distances, POWER, TIMING, BUDGET, 1e-4, 0.68)
        cod = _reference_route_energy(distances, POWER, TIMING, BUDGET, 1e-4, 0.68,
                                      spec, CODEC_POWER, variant)
        e_u = unc[6] if radiated_only else unc[5]
        e_c = cod[6] if radiated_only else cod[5]
        samples.append((trial, e_u, e_c, 1.0 - e_c / e_u))
    return samples


class TestDrawOnce:
    ENSEMBLES = [EnsembleSpec(seed=1), EnsembleSpec(seed=90210, n_relays=0),
                 EnsembleSpec(seed=7, n_relays=6, hop_range=(5.0, 300.0)),
                 EnsembleSpec(mode="geometry", seed=1),
                 EnsembleSpec(mode="geometry", seed=12345),
                 EnsembleSpec(mode="geometry", seed=3, max_hop_m=35.0),
                 # trial keys that cross 2**32 and wrap past 2**64 - 1
                 EnsembleSpec(seed=2**32 - 50),
                 EnsembleSpec(mode="geometry", seed=2**32 - 50),
                 EnsembleSpec(seed=2**64 - 50, n_relays=2),
                 EnsembleSpec(mode="geometry", seed=2**64 - 50, max_hop_m=35.0)]

    @pytest.mark.parametrize("ens", ENSEMBLES)
    def test_samples_match_reference_exactly(self, ens):
        trials = 150
        draws = draw_trials(ens, trials, BUDGET.k_exp)
        for variant in CodedVariant:
            for radiated_only in (False, True):
                expected = _reference_samples(ens, trials, GOLAY, variant,
                                              radiated_only)
                args = (trials, MODEL, GOLAY, variant, radiated_only)
                from_spec = compare_coded_uncoded(ens, *args)
                shared = compare_coded_uncoded(draws, *args)
                assert repr(from_spec.samples) == repr(tuple(expected))
                assert shared == from_spec
                savings = np.array([s[3] for s in expected])
                assert from_spec.mean == float(savings.mean())
                assert from_spec.n_trials == len(expected)

    def test_short_reach_skips_about_a_third(self):
        # so the reference comparison above covers skipped trials
        ens = EnsembleSpec(mode="geometry", seed=3, max_hop_m=35.0)
        assert 30 < 150 - len(draw_trials(ens, 150, BUDGET.k_exp).trials) < 70

    @pytest.mark.parametrize("ens", [EnsembleSpec(seed=8, n_relays=2),
                                     EnsembleSpec(mode="geometry", seed=3,
                                                  max_hop_m=35.0)])
    def test_a_draw_is_a_prefix_of_a_longer_draw(self, ens):
        # trial t's route does not depend on how many trials are drawn
        longer = draw_trials(ens, 120, BUDGET.k_exp)
        for m in (17, 60, 119):
            draws = draw_trials(ens, m, BUDGET.k_exp)
            rows = sum(trial < m for trial in longer.trials)
            width = draws.table.shape[1]
            assert draws.trials == longer.trials[:rows]
            assert draws.k_exp == longer.k_exp
            assert np.array_equal(draws.n_hops, longer.n_hops[:rows])
            assert np.array_equal(draws.table, longer.table[:rows, :width])
            assert not longer.table[:rows, width:].any()

    def test_trial_count_checked(self):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            draw_trials(EnsembleSpec(), 0, BUDGET.k_exp)
        draws = draw_trials(EnsembleSpec(), 5, BUDGET.k_exp)
        args = (MODEL, GOLAY)
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            compare_coded_uncoded(draws, 0, *args)
        with pytest.raises(ConfigError, match="only 4 attempted"):
            compare_coded_uncoded(draws, 4, *args)

    def test_every_trial_failing_raises(self):
        ens = EnsembleSpec(mode="geometry", seed=2, max_hop_m=0.5)
        with pytest.raises(RoutingError, match="every trial failed"):
            draw_trials(ens, 20, BUDGET.k_exp)
        with pytest.raises(RoutingError, match="every trial failed"):
            compare_coded_uncoded(ens, 20, MODEL, GOLAY)

    @pytest.mark.parametrize("extent", [{"hop_range": (50.0, math.inf)},
                                        {"field_width": math.inf},
                                        {"field_height": math.inf}])
    def test_infinite_extent_rejected(self, extent):
        # positions and hop lengths are scaled from these, so inf or NaN
        # would reach the routes
        with pytest.raises(ConfigError, match="finite"):
            EnsembleSpec(mode="geometry", **extent)

    def test_draws_at_another_k_exp_rejected(self):
        steeper = dataclasses.replace(BUDGET, k_exp=BUDGET.k_exp + 0.5)
        draws = draw_trials(EnsembleSpec(), 5, steeper.k_exp)
        args = (MODEL, GOLAY)
        with pytest.raises(ConfigError, match="k_exp"):
            compare_coded_uncoded(draws, 5, *args)
        args = (dataclasses.replace(MODEL, budget=steeper), GOLAY)
        assert compare_coded_uncoded(draws, 5, *args) == compare_coded_uncoded(
            EnsembleSpec(), 5, *args)


class TestArrayPricing:
    # narrow fields with a few nodes give routes of every length, so the
    # padded table holds every amount of padding at once
    RAGGED = [EnsembleSpec(mode="geometry", seed=1, n_nodes=6, max_hop_m=70.0,
                           field_width=200.0, field_height=20.0),
              EnsembleSpec(mode="geometry", seed=500, n_nodes=8, max_hop_m=75.0,
                           field_width=250.0, field_height=20.0)]

    @pytest.mark.parametrize("ens", RAGGED)
    def test_ragged_ensemble_matches_reference_exactly(self, ens):
        trials = 200
        draws = draw_trials(ens, trials, BUDGET.k_exp)
        widths = set(draws.n_hops.tolist())
        assert widths == set(range(1, max(widths) + 1)) and max(widths) >= 4
        for variant in CodedVariant:
            for radiated_only in (False, True):
                expected = _reference_samples(ens, trials, GOLAY, variant,
                                              radiated_only)
                got = compare_coded_uncoded(draws, trials, MODEL, GOLAY, variant,
                                            radiated_only)
                assert repr(got.samples) == repr(tuple(expected))

    @pytest.mark.parametrize("ens", [EnsembleSpec(seed=5, n_relays=4),
                                     RAGGED[0]])
    def test_uncoded_totals_equal_route_energy(self, ens):
        args = (ens, 100, MODEL, GOLAY)
        full = compare_coded_uncoded(*args)
        rad = compare_coded_uncoded(*args, radiated_only=True)
        for (trial, e_total, _, _), (_, e_radiated_only, _, _) in zip(full.samples,
                                                                   rad.samples):
            route = route_energy(_reference_trial_distances(ens, trial), MODEL)
            assert (e_total, e_radiated_only) == (route.e_total,
                                                   route.e_total_radiated_only)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_bad_hop_distance_rejected(self, bad):
        # a bad hop inside the second of two ragged routes
        with pytest.raises(ConfigError, match="distance_m must be positive"):
            _hop_table(((60.0, 70.0), (80.0, bad, 90.0)), BUDGET.k_exp)
