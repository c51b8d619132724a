"""Random deployments, greedy geographic routing, and route energy.

A route's energy charges every hop with its own distance-sized radiated
term plus PA overhead, circuit energy over the on-time and one synthesizer
start-up transient per link; encoding is paid once at the source and
decoding once at the sink (relays forward coded bits unchanged).  A
replication mode draws hop distances directly (uniform in a range) instead
of routing over geometry, isolating the route-energy arithmetic from
routing choices.

``route-sim`` draws each ensemble once per command (:func:`draw_trials`)
and prices its uncoded routes once (:func:`uncoded_totals`); both
coded variants are priced from those same draws.  Every hop of an ensemble shares one
:class:`~gmsklink.energy.LinkConstants`, so a hop costs one power of its
distance and a few products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, substream
# total_energy_coded and total_energy_uncoded are not called here; they stay
# bound in this module because the benchmark's tracer wraps them by name
from .energy import (CodedVariant, LinkConstants, PowerProfile, TimingProfile,
                     link_constants, total_energy_coded,
                     total_energy_uncoded)
from .errors import ConfigError, RoutingError
from .fec import CodecPowerProfile, CodeSpec, none_spec

_DEPLOY_TAG = 0x6465
_TRIAL_TAG = 0x7472


@dataclass(frozen=True)
class Deployment:
    """Node positions inside a rectangular field."""

    nodes: tuple  # of (id, x, y)
    field_width: float
    field_height: float

    def __post_init__(self):
        ids = [n[0] for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise ConfigError("node ids must be unique")
        for _, x, y in self.nodes:
            if not (0 <= x <= self.field_width and 0 <= y <= self.field_height):
                raise ConfigError("node positions must lie inside the field")

    def position(self, node_id) -> tuple[float, float]:
        for nid, x, y in self.nodes:
            if nid == node_id:
                return (x, y)
        raise KeyError(f"no node with id {node_id!r}")


@dataclass(frozen=True)
class Route:
    """Ordered node ids from source to sink with per-hop distances."""

    hops: tuple
    per_hop_distance: tuple

    def __post_init__(self):
        if len(self.hops) < 2 or len(self.per_hop_distance) != len(self.hops) - 1:
            raise ConfigError("a route needs >= 1 hop and matching distances")
        for a, b in zip(self.hops, self.hops[1:]):
            if a == b:
                raise ConfigError("consecutive route nodes must be distinct")

    @property
    def n_hops(self) -> int:
        return len(self.per_hop_distance)


def deploy_random(n_nodes: int, width: float, height: float, seed: int) -> Deployment:
    """Uniform i.i.d. node placement; node ids run 1..n."""
    if n_nodes < 2:
        raise ConfigError("need at least 2 nodes")
    if width <= 0 or height <= 0:
        raise ConfigError("field must have positive area")
    rng = substream(seed, _DEPLOY_TAG)
    xs = rng.uniform(0.0, width, n_nodes)
    ys = rng.uniform(0.0, height, n_nodes)
    nodes = tuple((i + 1, float(xs[i]), float(ys[i])) for i in range(n_nodes))
    return Deployment(nodes=nodes, field_width=width, field_height=height)


def build_route(deployment: Deployment, source_id, sink_id,
                max_hop_m: float = 100.0) -> Route:
    """Greedy geographic forwarding from source to sink.

    Each hop moves to the in-range neighbour closest to the sink among those
    strictly closer to the sink than the current node; raises
    :class:`RoutingError` when no such neighbour exists.
    """
    if source_id == sink_id:
        raise ConfigError("source and sink must differ")
    positions = {nid: (x, y) for nid, x, y in deployment.nodes}
    if source_id not in positions or sink_id not in positions:
        raise ConfigError("source and sink must be deployed nodes")
    sx, sy = positions[sink_id]
    to_sink = {nid: math.hypot(x - sx, y - sy) for nid, (x, y) in positions.items()}

    hops = [source_id]
    dists = []
    current = source_id
    while current != sink_id:
        hx, hy = positions[current]
        best = None
        # the current node never passes the first test: its distance to the
        # sink is where best_to_sink starts
        best_to_sink = to_sink[current]
        for nid, (x, y) in positions.items():
            d_sink = to_sink[nid]
            if d_sink < best_to_sink and not math.hypot(hx - x, hy - y) > max_hop_m:
                best = nid
                best_to_sink = d_sink
        if best is None:
            raise RoutingError(
                f"no neighbour of node {current!r} within {max_hop_m} m "
                f"is closer to the sink"
            )
        bx, by = positions[best]
        dists.append(math.hypot(hx - bx, hy - by))
        hops.append(best)
        current = best
    return Route(hops=tuple(hops), per_hop_distance=tuple(dists))


@dataclass(frozen=True)
class RouteEnergy:
    """Route energy with its additive decomposition (joules)."""

    e_radiated: float
    e_pa_overhead: float
    e_circuit: float
    e_transient: float
    e_codec: float
    e_total: float
    per_hop_total: tuple
    # radiated + PA + codec only, for the reading of the route sum that
    # excludes circuit and transient energy from the per-hop powers
    e_total_radiated_only: float


def _route_constants(power: PowerProfile, timing: TimingProfile,
                     budget: LinkBudget, pe: float, alpha: float,
                     spec: CodeSpec | None, codec_power: CodecPowerProfile | None,
                     variant: CodedVariant) -> LinkConstants:
    """The link constants every hop of a route shares."""
    if spec is None or spec.rate >= 1.0:  # rate 1 is the identity code
        return link_constants(power, timing, budget, pe, alpha, none_spec(),
                              CodecPowerProfile(0.0, 0.0))
    if codec_power is None:
        raise ConfigError("coded route energy needs a CodecPowerProfile")
    return link_constants(power, timing, budget, pe, alpha, spec, codec_power,
                          variant)


def _price_route(distances, link: LinkConstants) -> RouteEnergy:
    if len(distances) == 0:
        raise ConfigError("route must have at least one hop")
    e_rad = e_pa = e_circ = e_trans = 0.0
    per_hop = []
    for d in distances:
        rad, pa, total = link.hop(d)
        e_rad += rad
        e_pa += pa
        e_circ += link.e_circuit
        e_trans += link.e_transient
        per_hop.append(total)
    # encoding is paid once at the source and decoding once at the sink
    e_codec = link.e_codec
    return RouteEnergy(
        e_radiated=e_rad,
        e_pa_overhead=e_pa,
        e_circuit=e_circ,
        e_transient=e_trans,
        e_codec=e_codec,
        e_total=e_rad + e_pa + e_circ + e_trans + e_codec,
        per_hop_total=tuple(per_hop),
        e_total_radiated_only=e_rad + e_pa + e_codec,
    )


def route_energy(route_or_distances, power: PowerProfile, timing: TimingProfile,
                 budget: LinkBudget, pe: float, alpha: float,
                 spec: CodeSpec | None = None,
                 codec_power: CodecPowerProfile | None = None,
                 variant: CodedVariant = CodedVariant.LITERAL) -> RouteEnergy:
    """Total energy to move one L-bit payload along a route.

    Accepts a :class:`Route` or a bare sequence of hop distances.  Each hop
    is sized for its own distance at the target error probability; encode
    energy is charged once, decode once, and one 2 P_syn T_start transient
    per link.
    """
    if isinstance(route_or_distances, Route):
        distances = route_or_distances.per_hop_distance
    else:
        distances = tuple(route_or_distances)
    return _price_route(distances, _route_constants(
        power, timing, budget, pe, alpha, spec, codec_power, variant))


@dataclass(frozen=True)
class SavingsStats:
    """Per-trial coded-vs-uncoded savings statistics."""

    mean: float
    std: float
    min: float
    max: float
    n_trials: int
    samples: tuple  # of (trial index, e_uncoded, e_coded, savings)


@dataclass(frozen=True)
class EnsembleSpec:
    """Trial ensemble for :func:`compare_coded_uncoded`.

    ``mode`` is ``"replication"`` (hop distances drawn uniformly from
    ``hop_range``, ``n_relays`` relays) or ``"geometry"`` (random deployment,
    greedy route from node 1 to the node farthest from it).
    """

    mode: str = "replication"
    n_relays: int = 3
    hop_range: tuple = (50.0, 100.0)
    n_nodes: int = 20
    field_width: float = 100.0
    field_height: float = 100.0
    max_hop_m: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("replication", "geometry"):
            raise ConfigError(f"unknown ensemble mode {self.mode!r}")
        if self.n_relays < 0:
            raise ConfigError("n_relays must be >= 0")
        if not 0 < self.hop_range[0] <= self.hop_range[1]:
            raise ConfigError("hop_range must be increasing and positive")
        if self.n_nodes < 2:
            raise ConfigError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if not (self.field_width > 0 and self.field_height > 0):
            raise ConfigError("field must have positive area")
        if not self.max_hop_m > 0:
            raise ConfigError(f"max_hop_m must be positive, got {self.max_hop_m}")


def _trial_distances(ens: EnsembleSpec, trial: int) -> tuple:
    if ens.mode == "replication":
        rng = substream(ens.seed, _TRIAL_TAG, trial)
        lo, hi = ens.hop_range
        return tuple(rng.uniform(lo, hi, ens.n_relays + 1).tolist())
    dep = deploy_random(ens.n_nodes, ens.field_width, ens.field_height,
                        seed=ens.seed + trial)
    src = dep.nodes[0][0]
    sx, sy = dep.position(src)
    sink = max(dep.nodes[1:], key=lambda n: math.hypot(n[1] - sx, n[2] - sy))[0]
    return build_route(dep, src, sink, ens.max_hop_m).per_hop_distance


def draw_trials(ens: EnsembleSpec, trials: int) -> tuple:
    """The kept ``(trial, hop distances)`` pairs of the ensemble's first trials.

    Geometry-mode trials whose route construction fails are left out, so
    each pair keeps its trial's own index.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    draws = []
    for trial in range(trials):
        try:
            draws.append((trial, _trial_distances(ens, trial)))
        except RoutingError:
            continue
    if not draws:
        raise RoutingError("every trial failed to build a route")
    return tuple(draws)


def uncoded_totals(draws, power: PowerProfile, timing: TimingProfile,
                   budget: LinkBudget, pe: float, alpha: float) -> tuple:
    """``(e_total, e_total_radiated_only)`` of each drawn trial's uncoded route.

    ``draws`` holds ``(trial, hop distances)`` pairs, as :func:`draw_trials`
    returns them.
    """
    link = _route_constants(power, timing, budget, pe, alpha, None, None,
                            CodedVariant.LITERAL)
    totals = []
    for _, distances in draws:
        route = _price_route(distances, link)
        totals.append((route.e_total, route.e_total_radiated_only))
    return tuple(totals)


def compare_coded_uncoded(ens, trials: int, power: PowerProfile,
                          timing: TimingProfile, budget: LinkBudget,
                          pe: float, alpha: float, spec: CodeSpec,
                          codec_power: CodecPowerProfile,
                          variant: CodedVariant = CodedVariant.LITERAL,
                          radiated_only: bool = False,
                          uncoded: tuple | None = None) -> SavingsStats:
    """Coded-vs-uncoded route energy over an ensemble of trials.

    ``ens`` is an :class:`EnsembleSpec`, whose first ``trials`` trials are
    drawn, or the pairs :func:`draw_trials` returned for ``trials`` trials,
    so that several comparisons can share one draw.  ``uncoded`` may give
    the pairs' :func:`uncoded_totals` for the same power, timing, budget,
    ``pe`` and ``alpha``, so that they are priced once.

    Savings per trial is ``1 - E_coded / E_uncoded`` over the same hop
    distances.  Geometry-mode trials whose route construction fails are
    skipped; each sample keeps its trial index, and ``trials - n_trials``
    trials were skipped.  ``radiated_only`` compares the route sums that
    exclude circuit and transient energy.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    draws = draw_trials(ens, trials) if isinstance(ens, EnsembleSpec) else tuple(ens)
    if not draws:
        raise RoutingError("every trial failed to build a route")
    if len(draws) > trials:
        raise ConfigError(f"{len(draws)} drawn trials but only {trials} attempted")
    if uncoded is None:
        uncoded = uncoded_totals(draws, power, timing, budget, pe, alpha)
    elif len(uncoded) != len(draws):
        raise ConfigError("uncoded totals must match the drawn trials one to one")
    link = _route_constants(power, timing, budget, pe, alpha, spec, codec_power,
                            variant)
    samples = []
    for (trial, distances), (u_total, u_radiated_only) in zip(draws, uncoded):
        cod = _price_route(distances, link)
        e_u = u_radiated_only if radiated_only else u_total
        e_c = cod.e_total_radiated_only if radiated_only else cod.e_total
        samples.append((trial, e_u, e_c, 1.0 - e_c / e_u))
    sv = np.array([s[3] for s in samples])
    return SavingsStats(
        mean=float(sv.mean()),
        std=float(sv.std(ddof=1)) if len(sv) > 1 else 0.0,
        min=float(sv.min()),
        max=float(sv.max()),
        n_trials=len(samples),
        samples=tuple(samples),
    )
