"""Monte Carlo BER curves vs the closed-form model, uncoded and coded.

Reproduces the BER-vs-SNR experiment at desk scale: below the crossing the
coded systems are worse (the rate penalty dominates), beyond it they win.

Run:  python demos/03_ber_curves.py        (about two seconds)
"""

import numpy as np

from gmsklink import (ModemConfig, StopRule, alpha_for_bt, crossover_ber,
                      golay_spec, none_spec, run_grid, semi_analytic_coded_ber,
                      theoretical_ber)

alpha = alpha_for_bt(0.3)
grid = tuple(np.arange(0.0, 9.1, 1.5))
stop = StopRule(min_bit_errors=100, max_bits=500_000)

print(f"GMSK BT=0.3, documented alpha = {alpha:.4f}")
print(f"{'Eb/N0':>6} | {'model':>9} | {'uncoded MC':>10} | {'golay MC':>10} "
      f"| {'golay semi':>10}")

# both curves in one sweep: at each Eb/N0 they see the same bits and noise
rows = run_grid([none_spec(), golay_spec()], grid, ModemConfig(), stop, seed=101)
uncoded, golay = (list(curve) for curve in zip(*rows))
for pu, pg in zip(uncoded, golay):
    model = float(theoretical_ber(pu.ebno_db, alpha))
    semi = semi_analytic_coded_ber(golay_spec(), pg.ebno_db, alpha)
    print(f"{pu.ebno_db:6.1f} | {model:9.2e} | {pu.measured_ber:10.2e} "
          f"| {pg.measured_ber:10.2e} | {semi:10.2e}")

crossing = crossover_ber(golay, uncoded)
print(f"\ncoded/uncoded curves cross at BER ~ {crossing:.2e}")
print("above that level coding hurts (rate penalty), below it coding wins")
