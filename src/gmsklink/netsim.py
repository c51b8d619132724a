"""Random deployments, greedy geographic routing, and route energy.

A route's energy charges every hop with its own distance-sized radiated
term plus PA overhead, circuit energy over the on-time and one synthesizer
start-up transient per link; encoding is paid once at the source and
decoding once at the sink (relays forward coded bits unchanged).  A
replication mode draws hop distances directly (uniform in a range) instead
of routing over geometry, isolating the route-energy arithmetic from
routing choices.

``route-sim`` draws each ensemble once per command (:func:`draw_trials`),
raises every hop distance to the path-loss exponent once (:func:`hop_powers`)
and prices its uncoded routes once (:func:`uncoded_totals`); both coded
variants are priced from those same draws.  Every route of an ensemble is
priced in one array pass: the powers sit in a ``(routes, widest route)``
table padded with zeros, every hop shares one
:class:`~gmsklink.energy.LinkConstants`, and each route's sums are taken
column by column in hop order, so a route of the ensemble prices to the
bytes :func:`route_energy` gives it alone.  The powers are Python ``**`` on
floats; only the multiplies, divides and adds run on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    if not (width > 0 and height > 0):
        raise ConfigError("field must have positive area")
    rng = substream(seed, _DEPLOY_TAG)
    xs = rng.uniform(0.0, width, n_nodes)
    ys = rng.uniform(0.0, height, n_nodes)
    nodes = tuple(zip(range(1, n_nodes + 1), xs.tolist(), ys.tolist()))
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
    # node i of the deployment is ids[i] at (xs[i], ys[i])
    ids, xs, ys = zip(*deployment.nodes)
    if source_id not in ids or sink_id not in ids:
        raise ConfigError("source and sink must be deployed nodes")
    here = ids.index(source_id)
    sink = ids.index(sink_id)
    sx, sy = xs[sink], ys[sink]
    to_sink = [math.hypot(x - sx, y - sy) for x, y in zip(xs, ys)]

    hops = [source_id]
    dists = []
    current = source_id
    while here != sink:
        hx, hy = xs[here], ys[here]
        best = -1
        # the current node never passes the first test: its distance to the
        # sink is where best_to_sink starts
        best_to_sink = to_sink[here]
        for i, d_sink in enumerate(to_sink):
            if d_sink < best_to_sink and not math.hypot(hx - xs[i], hy - ys[i]) > max_hop_m:
                best = i
                best_to_sink = d_sink
        if best < 0:
            raise RoutingError(
                f"no neighbour of node {current!r} within {max_hop_m} m "
                f"is closer to the sink"
            )
        dists.append(math.hypot(hx - xs[best], hy - ys[best]))
        here = best
        current = ids[best]
        hops.append(current)
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


class HopPowers(NamedTuple):
    """Every drawn route's hop distances raised to ``k_exp``, a route a row.

    ``table`` is ``(routes, hops of the widest route)`` and holds zeros past
    each route's last hop, which price to exact zeros.
    """

    k_exp: float
    table: np.ndarray
    n_hops: np.ndarray


def hop_powers(draws, k_exp: float) -> HopPowers:
    """``d ** k_exp`` of every hop of the ``(trial, hop distances)`` pairs.

    Each power is Python's ``**`` on a float, so a hop's bytes do not depend
    on which SIMD ``np.power`` would dispatch to.
    """
    draws = tuple(draws)
    n_hops = [len(distances) for _, distances in draws]
    if 0 in n_hops:
        raise ConfigError("route must have at least one hop")
    flat = np.array([d for _, distances in draws for d in distances], dtype=float)
    if not (flat > 0).all():  # NaN fails too
        raise ConfigError("distance_m must be positive")
    table = np.zeros((len(draws), max(n_hops, default=0)))
    n_hops = np.array(n_hops, dtype=np.intp)
    # a boolean mask fills row by row, so each route's hops land in order
    table[np.arange(table.shape[1]) < n_hops[:, None]] = [
        d**k_exp for d in flat.tolist()]
    return HopPowers(k_exp, table, n_hops)


def _route_sums(powers: HopPowers, link: LinkConstants) -> tuple:
    """Every route's per-hop radiated and PA energies, and its radiated, PA,
    circuit and transient sums, each sum taken hop by hop from the source."""
    rad, pa = link.hop_terms(powers.table)
    e_rad = np.zeros(len(rad))
    e_pa = np.zeros(len(rad))
    circ = [0.0]
    trans = [0.0]
    # column by column, so every route adds its hops in order; a padding
    # column adds an exact zero
    for hop in range(rad.shape[1]):
        e_rad += rad[:, hop]
        e_pa += pa[:, hop]
        circ.append(circ[-1] + link.e_circuit)
        trans.append(trans[-1] + link.e_transient)
    return (rad, pa, e_rad, e_pa, np.array(circ)[powers.n_hops],
            np.array(trans)[powers.n_hops])


def _route_totals(powers: HopPowers, link: LinkConstants) -> tuple:
    """``(e_total, e_total_radiated_only)`` arrays, a route an entry."""
    _, _, e_rad, e_pa, e_circ, e_trans = _route_sums(powers, link)
    # encoding is paid once at the source and decoding once at the sink
    return (e_rad + e_pa + e_circ + e_trans + link.e_codec,
            e_rad + e_pa + link.e_codec)


def _checked_powers(draws, budget: LinkBudget, powers: HopPowers | None) -> HopPowers:
    if powers is None:
        return hop_powers(draws, budget.k_exp)
    if powers.k_exp != budget.k_exp or len(powers.n_hops) != len(draws):
        raise ConfigError("hop powers must be the drawn trials' at the budget's k_exp")
    return powers


def route_energy(route_or_distances, power: PowerProfile, timing: TimingProfile,
                 budget: LinkBudget, pe: float, alpha: float,
                 spec: CodeSpec | None = None,
                 codec_power: CodecPowerProfile | None = None,
                 variant: CodedVariant = CodedVariant.LITERAL) -> RouteEnergy:
    """Total energy to move one L-bit payload along a route.

    Accepts a :class:`Route` or a bare sequence of hop distances.  Each hop
    is sized for its own distance at the target error probability; encode
    energy is charged once, decode once, and one 2 P_syn T_start transient
    per link.  This is the one-route case of the ensemble's array pass.
    """
    if isinstance(route_or_distances, Route):
        distances = route_or_distances.per_hop_distance
    else:
        distances = tuple(route_or_distances)
    link = _route_constants(power, timing, budget, pe, alpha, spec, codec_power,
                            variant)
    rad, pa, *sums = _route_sums(hop_powers(((0, distances),), budget.k_exp), link)
    e_rad, e_pa, e_circ, e_trans = (float(s[0]) for s in sums)
    e_codec = link.e_codec
    return RouteEnergy(
        e_radiated=e_rad,
        e_pa_overhead=e_pa,
        e_circuit=e_circ,
        e_transient=e_trans,
        e_codec=e_codec,
        e_total=e_rad + e_pa + e_circ + e_trans + e_codec,
        per_hop_total=tuple((rad[0] + pa[0] + link.e_circuit + link.e_transient).tolist()),
        e_total_radiated_only=e_rad + e_pa + e_codec,
    )


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
    (src, sx, sy), *others = dep.nodes
    # the sink is the first node farthest from the source
    sink, farthest = None, -1.0
    for nid, x, y in others:
        d = math.hypot(x - sx, y - sy)
        if d > farthest:
            sink, farthest = nid, d
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
                   budget: LinkBudget, pe: float, alpha: float,
                   powers: HopPowers | None = None) -> tuple:
    """``(e_total, e_total_radiated_only)`` of each drawn trial's uncoded route.

    ``draws`` holds ``(trial, hop distances)`` pairs, as :func:`draw_trials`
    returns them; ``powers`` may give their :func:`hop_powers` at
    ``budget.k_exp``, so that they are computed once.
    """
    link = _route_constants(power, timing, budget, pe, alpha, None, None,
                            CodedVariant.LITERAL)
    e_total, e_radiated_only = _route_totals(_checked_powers(draws, budget, powers),
                                             link)
    return tuple(zip(e_total.tolist(), e_radiated_only.tolist()))


def compare_coded_uncoded(ens, trials: int, power: PowerProfile,
                          timing: TimingProfile, budget: LinkBudget,
                          pe: float, alpha: float, spec: CodeSpec,
                          codec_power: CodecPowerProfile,
                          variant: CodedVariant = CodedVariant.LITERAL,
                          radiated_only: bool = False,
                          uncoded: tuple | None = None,
                          powers: HopPowers | None = None) -> SavingsStats:
    """Coded-vs-uncoded route energy over an ensemble of trials.

    ``ens`` is an :class:`EnsembleSpec`, whose first ``trials`` trials are
    drawn, or the pairs :func:`draw_trials` returned for ``trials`` trials,
    so that several comparisons can share one draw.  ``uncoded`` may give
    the pairs' :func:`uncoded_totals` for the same power, timing, budget,
    ``pe`` and ``alpha``, and ``powers`` their :func:`hop_powers` at
    ``budget.k_exp``, so that each is computed once.

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
    powers = _checked_powers(draws, budget, powers)
    if uncoded is None:
        uncoded = uncoded_totals(draws, power, timing, budget, pe, alpha, powers)
    elif len(uncoded) != len(draws):
        raise ConfigError("uncoded totals must match the drawn trials one to one")
    link = _route_constants(power, timing, budget, pe, alpha, spec, codec_power,
                            variant)
    e_u = np.array(uncoded, dtype=float)[:, int(radiated_only)]
    e_c = _route_totals(powers, link)[int(radiated_only)]
    sv = 1.0 - e_c / e_u
    return SavingsStats(
        mean=float(sv.mean()),
        std=float(sv.std(ddof=1)) if len(sv) > 1 else 0.0,
        min=float(sv.min()),
        max=float(sv.max()),
        n_trials=len(sv),
        samples=tuple(zip([trial for trial, _ in draws], e_u.tolist(),
                          e_c.tolist(), sv.tolist())),
    )
