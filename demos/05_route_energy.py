"""Multi-hop route energy over a random 20-node field, coded vs uncoded.

A source sends one 1000-bit payload to a far sink through greedy geographic
relays; encoding is paid once at the source, decoding once at the sink.
The replication ensemble (3 relays, 50-100 m hops) shows the average saving
from Golay coding on long hops.

Run:  python demos/05_route_energy.py
"""

import math

from gmsklink import (CodecPowerProfile, CodedVariant, EnergyModel,
                      EnsembleSpec, LinkBudget, PowerProfile, TimingProfile,
                      build_route, compare_coded_uncoded, deploy_random,
                      golay_spec, route_energy)

# published circuit powers, timing and link budget; target error
# probability 1e-4 and the classic BER-model alpha 0.68
model = EnergyModel(PowerProfile(), TimingProfile(), LinkBudget(), pe=1e-4,
                    alpha=0.68, codec_power=CodecPowerProfile())
spec = golay_spec()

field = deploy_random(20, 100.0, 100.0, seed=42)
print("20 nodes in a 100 x 100 m field (id: x, y):")
for nid, x, y in field.nodes[:5]:
    print(f"  {nid:2d}: {x:5.1f}, {y:5.1f}")
print("  ...")

source = field.nodes[0][0]
sx, sy = field.position(source)
sink = max(field.nodes[1:], key=lambda n: math.hypot(n[1] - sx, n[2] - sy))[0]
route = build_route(field, source, sink, max_hop_m=100.0)
print(f"\ngreedy route {source} -> {sink}: hops {route.hops}")
print(f"hop distances: {[f'{d:.1f}' for d in route.per_hop_distance]} m")

unc = route_energy(route, model)
cod = route_energy(route, model, spec, CodedVariant.CIRCUIT_UNSCALED)
print(f"uncoded route energy: {unc.e_total:.4e} J")
print(f"coded route energy:   {cod.e_total:.4e} J "
      f"({100 * (1 - cod.e_total / unc.e_total):+.1f}%)")

print("\nreplication ensemble: 3 relays, hop distances U(50, 100) m, 1000 trials")
ens = EnsembleSpec(mode="replication", n_relays=3, hop_range=(50.0, 100.0), seed=7)
for radiated_only, label in ((False, "with circuit+transient"),
                             (True, "radiated+codec only")):
    stats = compare_coded_uncoded(ens, 1000, model, spec,
                                  CodedVariant.CIRCUIT_UNSCALED,
                                  radiated_only=radiated_only)
    print(f"  {label:24s}: mean saving {100 * stats.mean:+5.1f}%  "
          f"(std {100 * stats.std:.1f}pp, range {100 * stats.min:+.1f}% "
          f"to {100 * stats.max:+.1f}%)")
