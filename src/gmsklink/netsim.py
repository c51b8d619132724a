"""Random deployments, greedy geographic routing, and route energy.

A route's energy charges every hop with its own distance-sized radiated
term plus PA overhead, circuit energy over the on-time and one synthesizer
start-up transient per link; encoding is paid once at the source and
decoding once at the sink (relays forward coded bits unchanged).  A
replication mode draws hop distances directly (uniform in a range) instead
of routing over geometry, isolating the route-energy arithmetic from
routing choices.

``route-sim`` draws each ensemble once per command (:func:`draw_trials`):
the draw is the table of its routes' hop distances raised to the path-loss
exponent, and each variant's :func:`compare_coded_uncoded` prices the
uncoded and the coded routes from that one table.

Every trial has its own stream: replication trial ``t`` is keyed ``(seed,
tag, t)``, and geometry trial ``t`` is the deployment :func:`deploy_random`
makes with seed ``seed + t``, so nearby seeds share geometry trials
(``--seed 2`` repeats 399 of ``--seed 1``'s first 400).  An ensemble's
streams are computed together in one array pass
(:func:`~gmsklink.channel.substream_random`), to the bytes of the per-trial
draws, and each geometry trial is routed on its coordinate lists by the
greedy function :func:`build_route` calls.

Every route of an ensemble is priced in one array pass: the powers sit in a
``(routes, widest route)`` table padded with zeros, every hop shares one
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

from .channel import substream, substream_random
# total_energy_coded and total_energy_uncoded are not called here; they stay
# bound in this module because the benchmark's tracer wraps them by name
from .energy import (CodedVariant, EnergyModel, LinkConstants,  # noqa: F401
                     total_energy_coded, total_energy_uncoded)
from .errors import ConfigError, RoutingError
from .fec import CodeSpec

_DEPLOY_TAG = 0x6465
_TRIAL_TAG = 0x7472
# trials whose streams are computed in one array pass, which bounds its memory
_DRAW_ROWS = 1024


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


def _greedy(xs, ys, here: int, sink: int, max_hop_m: float) -> tuple:
    """``(path, distances)``: the node indices and hop lengths of greedy
    geographic forwarding from node ``here`` toward node ``sink``, node ``i``
    standing at ``(xs[i], ys[i])``.

    Each hop moves to the in-range node closest to the sink among those
    strictly closer to it than the current node.  The path ends at
    ``sink``, or short of it at the first node with no such neighbour.
    """
    sx, sy = xs[sink], ys[sink]
    to_sink = [math.hypot(x - sx, y - sy) for x, y in zip(xs, ys)]
    path, dists = [here], []
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
            break
        dists.append(math.hypot(hx - xs[best], hy - ys[best]))
        here = best
        path.append(here)
    return path, dists


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
    sink = ids.index(sink_id)
    path, dists = _greedy(xs, ys, ids.index(source_id), sink, max_hop_m)
    hops = (source_id, *(ids[i] for i in path[1:]))
    if path[-1] != sink:
        raise RoutingError(
            f"no neighbour of node {hops[-1]!r} within {max_hop_m} m "
            f"is closer to the sink"
        )
    return Route(hops=hops, per_hop_distance=tuple(dists))


@dataclass(frozen=True)
class RouteEnergy:
    """Route energy with its additive decomposition (joules)."""

    e_radiated: float
    e_pa_overhead: float
    e_circuit: float
    e_transient: float
    e_codec: float
    e_total: float
    # radiated + PA + codec only, for the reading of the route sum that
    # excludes circuit and transient energy from the per-hop powers
    e_total_radiated_only: float


def _route_code(spec: CodeSpec | None) -> CodeSpec | None:
    """The code a route is priced with: a rate-1 code is the identity code,
    which a route prices as no code at all."""
    return spec if spec is not None and spec.rate < 1.0 else None


def _hop_table(routes, k_exp: float) -> tuple:
    """``(table, n_hops)``: each route's hop distances raised to ``k_exp``.

    ``table`` is ``(routes, hops of the widest route)``, a route a row, and
    holds zeros past each route's last hop, which price to exact zeros.
    Each power is Python's ``**`` on a float, so a hop's bytes do not depend
    on which SIMD ``np.power`` would dispatch to.
    """
    n_hops = [len(distances) for distances in routes]
    if 0 in n_hops:
        raise ConfigError("route must have at least one hop")
    flat = np.array([d for distances in routes for d in distances], dtype=float)
    if not (flat > 0).all():  # NaN fails too
        raise ConfigError("distance_m must be positive")
    table = np.zeros((len(routes), max(n_hops, default=0)))
    n_hops = np.array(n_hops, dtype=np.intp)
    # a boolean mask fills row by row, so each route's hops land in order
    table[np.arange(table.shape[1]) < n_hops[:, None]] = [
        d**k_exp for d in flat.tolist()]
    return table, n_hops


def _route_sums(table: np.ndarray, n_hops: np.ndarray, link: LinkConstants) -> tuple:
    """Every route's radiated, PA, circuit and transient energy, each sum
    taken hop by hop from the source."""
    rad, pa = link.hop_terms(table)
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
    return e_rad, e_pa, np.array(circ)[n_hops], np.array(trans)[n_hops]


def route_energy(route_or_distances, model: EnergyModel,
                 spec: CodeSpec | None = None,
                 variant: CodedVariant = CodedVariant.LITERAL) -> RouteEnergy:
    """Total energy to move one L-bit payload along a route.

    Accepts a :class:`Route` or a bare sequence of hop distances.  A rate-1
    ``spec`` is priced as no code.  Each hop is sized for its own distance
    at the model's target error probability; encode energy is charged once,
    decode once, and one 2 P_syn T_start transient per link.  This is the
    one-route case of the ensemble's array pass.
    """
    if isinstance(route_or_distances, Route):
        distances = route_or_distances.per_hop_distance
    else:
        distances = tuple(route_or_distances)
    link = model.link(_route_code(spec), variant)
    sums = _route_sums(*_hop_table((distances,), link.k_exp), link)
    e_rad, e_pa, e_circ, e_trans = (float(s[0]) for s in sums)
    e_codec = link.e_codec
    return RouteEnergy(
        e_radiated=e_rad,
        e_pa_overhead=e_pa,
        e_circuit=e_circ,
        e_transient=e_trans,
        e_codec=e_codec,
        e_total=e_rad + e_pa + e_circ + e_trans + e_codec,
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
        # hop lengths and node positions are drawn scaled by these extents,
        # so an infinite one would reach the routes
        if not 0 < self.hop_range[0] <= self.hop_range[1] < math.inf:
            raise ConfigError("hop_range must be increasing, positive and finite")
        if self.n_nodes < 2:
            raise ConfigError(f"n_nodes must be >= 2, got {self.n_nodes}")
        if not (0 < self.field_width < math.inf and 0 < self.field_height < math.inf):
            raise ConfigError("field must have positive area and finite sides")
        if not self.max_hop_m > 0:
            raise ConfigError(f"max_hop_m must be positive, got {self.max_hop_m}")


class Draws(NamedTuple):
    """An ensemble's kept trials as :func:`draw_trials` returns them.

    Row ``r`` of ``table`` is trial ``trials[r]``'s route: its ``n_hops[r]``
    hop distances raised to ``k_exp``, then zeros up to the widest route
    (see :func:`_hop_table`).
    """

    trials: tuple
    k_exp: float
    table: np.ndarray
    n_hops: np.ndarray


def _trial_route(xs, ys, max_hop_m: float):
    """A geometry trial's hop distances: the greedy route from node 0 to
    the first node farthest from it, or None when the route gets stuck."""
    sx, sy = xs[0], ys[0]
    sink = max(range(1, len(xs)), key=lambda i: math.hypot(xs[i] - sx, ys[i] - sy))
    path, dists = _greedy(xs, ys, 0, sink, max_hop_m)
    return dists if path[-1] == sink else None


def draw_trials(ens: EnsembleSpec, trials: int, k_exp: float) -> Draws:
    """The routes of the ensemble's first ``trials`` trials, their hop
    distances raised to ``k_exp``.

    Trial ``t`` reads the stream :func:`~gmsklink.channel.substream` keys as
    ``(seed, tag, t)`` in replication mode, and the deployment
    :func:`deploy_random` makes with seed ``seed + t`` in geometry mode.  The
    streams of up to ``_DRAW_ROWS`` trials are computed in one array pass
    (:func:`~gmsklink.channel.substream_random`).  Geometry-mode trials
    whose route construction fails are left out, so each row keeps its
    trial's own index.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    kept, routes = [], []
    for start in range(0, trials, _DRAW_ROWS):
        rows = range(start, min(start + _DRAW_ROWS, trials))
        if ens.mode == "replication":
            lo, hi = ens.hop_range
            u = substream_random([(ens.seed, _TRIAL_TAG, t) for t in rows],
                                 ens.n_relays + 1)
            kept.extend(rows)
            # the bytes of Generator.uniform(lo, hi): lo + (hi - lo) * u
            routes.extend((lo + (hi - lo) * u).tolist())
            continue
        n = ens.n_nodes
        u = substream_random([(ens.seed + t, _DEPLOY_TAG) for t in rows], 2 * n)
        for t, xs, ys in zip(rows, (ens.field_width * u[:, :n]).tolist(),
                             (ens.field_height * u[:, n:]).tolist()):
            distances = _trial_route(xs, ys, ens.max_hop_m)
            if distances is not None:
                kept.append(t)
                routes.append(distances)
    if not kept:
        raise RoutingError("every trial failed to build a route")
    return Draws(tuple(kept), k_exp, *_hop_table(routes, k_exp))


def _route_totals(draws: Draws, link: LinkConstants) -> tuple:
    """``(e_total, e_total_radiated_only)`` arrays, a route an entry."""
    e_rad, e_pa, e_circ, e_trans = _route_sums(draws.table, draws.n_hops, link)
    # encoding is paid once at the source and decoding once at the sink
    return (e_rad + e_pa + e_circ + e_trans + link.e_codec,
            e_rad + e_pa + link.e_codec)


def compare_coded_uncoded(ens, trials: int, model: EnergyModel, spec: CodeSpec,
                          variant: CodedVariant = CodedVariant.LITERAL,
                          radiated_only: bool = False) -> SavingsStats:
    """Coded-vs-uncoded route energy over an ensemble of trials.

    ``ens`` is an :class:`EnsembleSpec`, whose first ``trials`` trials are
    drawn, or the :class:`Draws` that :func:`draw_trials` returned for
    ``trials`` trials at the model's ``budget.k_exp``, so that several
    comparisons can share one draw.

    Savings per trial is ``1 - E_coded / E_uncoded`` over the same hop
    distances.  Geometry-mode trials whose route construction fails are
    skipped; each sample keeps its trial index, and ``trials - n_trials``
    trials were skipped.  ``radiated_only`` compares the route sums that
    exclude circuit and transient energy.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    k_exp = model.budget.k_exp
    draws = draw_trials(ens, trials, k_exp) if isinstance(ens, EnsembleSpec) else ens
    if draws.k_exp != k_exp:
        raise ConfigError(f"trials drawn at k_exp {draws.k_exp!r}, "
                          f"priced at {k_exp!r}")
    if draws.trials[-1] >= trials:
        raise ConfigError(f"trial {draws.trials[-1]} drawn but only {trials} attempted")
    column = int(radiated_only)
    e_u = _route_totals(draws, model.link())[column]
    e_c = _route_totals(draws, model.link(_route_code(spec), variant))[column]
    sv = 1.0 - e_c / e_u
    return SavingsStats(
        mean=float(sv.mean()),
        std=float(sv.std(ddof=1)) if len(sv) > 1 else 0.0,
        min=float(sv.min()),
        max=float(sv.max()),
        n_trials=len(sv),
        samples=tuple(zip(draws.trials, e_u.tolist(), e_c.tolist(), sv.tolist())),
    )
