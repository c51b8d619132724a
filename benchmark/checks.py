"""Output checks: pinned reference outputs and oracles that hold for any seed.

Every check adds one to ``attempted`` and, when it fails, one to ``failed``;
the benchmark's ``failed_frac`` is their ratio.  BER and route CSVs depend
only on integer error counts and on hop distances, so at the reference seed
they must match byte for byte: a byte difference means a decision flipped.
The energy CSVs hold closed-form values that an equivalent formula may move
in the last digits, so they are compared at a relative tolerance.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

from gmsklink.energy import CodedVariant, crossover_distance
from gmsklink.fec import golay_spec
from gmsklink.modem import alpha_for_bt, theoretical_ber

from workloads import BENCH_DIR, WORKLOADS

REFERENCE_DIR = BENCH_DIR / "reference"
DIGESTS_FILE = "sha256.json"
TOLERANT_FILES = ("energy_distance.csv", "sensitivity.csv")
RTOL = 1e-9

BER_HEADER = "ebno_db,codec,ber,errors,bits,ci_low,ci_high,low_confidence_flag"
ROUTE_HEADER = "trial,e_uncoded_J,e_coded_J,savings_fraction"
ENERGY_HEADER = ("d_m,e_uncoded,e_coded_literal,e_coded_circuit_unscaled,"
                 "savings_literal,savings_circuit_unscaled")
SENSITIVITY_HEADER = "variant,alpha,savings_at_100m,crossover_m,abs_diff_from_0.47,selected"
# The acceptance suite's band for measured uncoded BER against the model.
MODEL_BAND = (0.25, 4.0)
MODEL_MIN_EBNO_DB = 4.0
SAVINGS_TARGET = 0.47


class CheckLog:
    """Counts output checks and keeps the first failures for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _grid(start: float, stop: float, step: float) -> list[float]:
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _rows(outputs, name, header, log):
    """Data rows of a CSV output split into cells, or None if unusable."""
    data = outputs.get(name)
    if not log.check(data is not None, f"{name}: missing"):
        return None
    lines = data.decode().splitlines()
    if not log.check(bool(lines) and lines[0] == header, f"{name}: bad header"):
        return None
    return [line.split(",") for line in lines[1:]]


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


# ------------------------------------------------------------- references


def _csv_close(got: bytes, want: bytes) -> bool:
    got_rows = [line.split(",") for line in got.decode().splitlines()]
    want_rows = [line.split(",") for line in want.decode().splitlines()]
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return False
    for g, w in zip(itertools.chain(*got_rows), itertools.chain(*want_rows)):
        if g == w:
            continue
        try:
            if not math.isclose(float(g), float(w), rel_tol=RTOL):
                return False
        except ValueError:
            return False
    return True


def check_reference(workload: str, outputs: dict, log: CheckLog):
    """Compare reference-seed outputs with the pinned ones."""
    ref_dir = REFERENCE_DIR / workload
    digests = json.loads((ref_dir / DIGESTS_FILE).read_text())
    log.check(sorted(outputs) == sorted(digests),
              f"{workload}: output files {sorted(outputs)} != {sorted(digests)}")
    for name, want in sorted(digests.items()):
        got = outputs.get(name)
        if got is None:
            ok = False
        elif name in TOLERANT_FILES:
            ok = _csv_close(got, (ref_dir / name).read_bytes())
        else:
            ok = sha256(got) == want
        log.check(ok, f"{workload}: {name} differs from the reference")


def record_reference(workload: str, outputs: dict):
    ref_dir = REFERENCE_DIR / workload
    ref_dir.mkdir(parents=True, exist_ok=True)
    digests = {name: sha256(data) for name, data in sorted(outputs.items())}
    (ref_dir / DIGESTS_FILE).write_text(json.dumps(digests, indent=1) + "\n")
    for name in TOLERANT_FILES:
        if name in outputs:
            (ref_dir / name).write_bytes(outputs[name])


# ---------------------------------------------------------------- oracles


def check_sweep(outputs: dict, cfg, log: CheckLog):
    """Per-row consistency, the stop rule, and uncoded BER against the model."""
    codecs = cfg["run.codecs"]
    grid = _grid(cfg["sweep.ebno_start_db"], cfg["sweep.ebno_stop_db"],
                 cfg["sweep.ebno_step_db"])
    min_errors = cfg["sweep.min_bit_errors"]
    max_bits = cfg["sweep.max_bits"]
    alpha = alpha_for_bt(cfg["modem.bt_product"])
    merged = []
    for codec in codecs:
        name = f"ber_{codec}.csv"
        rows = _rows(outputs, name, BER_HEADER, log)
        if rows is None:
            continue
        merged += rows
        log.check([float(r[0]) for r in rows] == grid, f"{name}: Eb/N0 grid")
        for row in rows:
            where = f"{name} row {','.join(row)}"
            try:
                ebno, ber, lo, hi = (float(row[i]) for i in (0, 2, 5, 6))
                errors, bits, flag = int(row[3]), int(row[4]), int(row[7])
            except (ValueError, IndexError):
                log.check(False, f"{where}: unparsable")
                continue
            log.check(row[1] == codec, f"{where}: codec column")
            log.check(0 < bits <= max_bits and 0 <= errors <= bits,
                      f"{where}: counts out of range")
            log.check(errors >= min_errors or bits == max_bits,
                      f"{where}: stopped before the stop rule was met")
            log.check(ber == errors / bits, f"{where}: ber != errors / bits")
            log.check(lo <= ber <= hi, f"{where}: ber outside its interval")
            log.check(flag == int(errors < min_errors), f"{where}: flag")
            if codec == "none" and ebno >= MODEL_MIN_EBNO_DB:
                ratio = ber / float(theoretical_ber(ebno, alpha))
                log.check(MODEL_BAND[0] <= ratio <= MODEL_BAND[1],
                          f"{where}: BER is {ratio:.3g}x the Q-function model")
    comparison = _rows(outputs, "ber_comparison.csv", BER_HEADER, log)
    if comparison is not None:
        log.check(comparison == merged,
                  "ber_comparison.csv: not the per-codec rows in codec order")
    plot = outputs.get("plot_ber.gnuplot", b"").decode()
    log.check(all(f"'ber_{c}.csv'" in plot for c in codecs),
              "plot_ber.gnuplot: a codec curve is missing")


def check_route(outputs: dict, cfg, log: CheckLog):
    """Each row's savings against 1 - e_coded / e_uncoded, and the mean row."""
    selection = cfg["run.variant"]
    variants = ("literal", "circuit-unscaled") if selection == "both" else (selection,)
    trials = cfg["route.trials"]
    for mode, variant in itertools.product(("replication", "geometry"), variants):
        name = f"route_{mode}_{variant.replace('-', '_')}.csv"
        rows = _rows(outputs, name, ROUTE_HEADER, log)
        if rows is None or not log.check(len(rows) >= 2, f"{name}: no trials"):
            continue
        body, mean = rows[:-1], rows[-1]
        # geometry trials without a route are skipped; replication never skips
        full = len(body) == trials if mode == "replication" else len(body) <= trials
        log.check(full, f"{name}: {len(body)} trial rows for {trials} trials")
        e_u, e_c, sav = [], [], []
        last_trial = -1
        for row in body:
            try:
                trial = int(row[0])
                u, c, s = (float(x) for x in row[1:])
            except (ValueError, IndexError, TypeError):
                log.check(False, f"{name} row {','.join(row)}: unparsable")
                continue
            log.check(last_trial < trial < trials, f"{name} row {trial}: trial index")
            last_trial = trial
            log.check(u > 0 and c > 0 and _close(s, 1.0 - c / u, 1e-12),
                      f"{name} row {trial}: savings != 1 - e_coded / e_uncoded")
            e_u.append(u)
            e_c.append(c)
            sav.append(s)
        try:
            mean_u, mean_c, mean_s = (float(x) for x in mean[1:])
        except (ValueError, TypeError):
            log.check(False, f"{name}: unparsable mean row")
            continue
        n = len(sav) or 1
        log.check(mean[0] == "mean"
                  and _close(mean_u, sum(e_u) / n, 1e-12)
                  and _close(mean_c, sum(e_c) / n, 1e-12)
                  and _close(mean_s, math.fsum(sav) / n, 1e-9),
                  f"{name}: mean row does not match the trial rows")


def check_energy(outputs: dict, cfg, log: CheckLog):
    """Scan rows' savings, and crossover rows against crossover_distance."""
    power, timing = cfg.power_profile(), cfg.timing_profile()
    budget, codec_power = cfg.link_budget(), cfg.codec_power()
    spec = golay_spec(cfg["codec.g_code_db"])
    pe = cfg["link.target_pe"]

    def crossover(variant, alpha):
        return crossover_distance(power, timing, budget, pe, alpha, spec,
                                  codec_power, variant)

    rows = _rows(outputs, "energy_distance.csv", ENERGY_HEADER, log)
    if rows is not None:
        table = {}
        for row in rows:
            try:
                d, unc, lit, cu, s_lit, s_cu = (float(x) for x in row)
            except ValueError:
                log.check(False, f"energy_distance.csv row {','.join(row)}: unparsable")
                continue
            table[d] = (s_lit, s_cu)
            log.check(_close(s_lit, 1.0 - lit / unc, 1e-12)
                      and _close(s_cu, 1.0 - cu / unc, 1e-12),
                      f"energy_distance.csv @ {d} m: savings != 1 - coded / uncoded")
        distances = list(table)
        grid = _grid(cfg["scan.d_start_m"], cfg["scan.d_stop_m"], cfg["scan.d_step_m"])
        log.check(distances == sorted(distances) and set(grid) <= set(distances),
                  "energy_distance.csv: distances unsorted or off the scan grid")
        for column, variant in enumerate(CodedVariant):
            d_star = crossover(variant, cfg.alpha())
            if d_star is None:
                continue
            hits = [d for d in distances if _close(d, d_star, RTOL)]
            log.check(len(hits) == 1 and abs(table[hits[0]][column]) <= 1e-6,
                      f"energy_distance.csv: no break-even row at the "
                      f"{variant.value} crossover {d_star} m")

    rows = _rows(outputs, "sensitivity.csv", SENSITIVITY_HEADER, log)
    if rows is None:
        return
    combos = list(itertools.product(CodedVariant, cfg["scan.alpha_list"]))
    if not log.check(len(rows) == len(combos), "sensitivity.csv: row count"):
        return
    diffs = []
    for row, (variant, alpha) in zip(rows, combos):
        try:
            saving, diff, selected = float(row[2]), float(row[4]), int(row[5])
        except (ValueError, IndexError):
            log.check(False, f"sensitivity.csv row {','.join(row)}: unparsable")
            continue
        d_star = crossover(variant, alpha)
        d_ok = row[3] == "none" if d_star is None else _close(float(row[3]), d_star, RTOL)
        log.check(row[0] == variant.value and float(row[1]) == alpha and d_ok
                  and _close(diff, abs(saving - SAVINGS_TARGET), 1e-12),
                  f"sensitivity.csv row {','.join(row)}: crossover or distance")
        diffs.append((diff, selected))
    if diffs:
        chosen = [d for d, s in diffs if s == 1]
        log.check(len(chosen) == 1 and chosen[0] == min(d for d, _ in diffs),
                  "sensitivity.csv: selected row is not the closest to the target")


_ORACLES = {"ber-sweep": check_sweep, "route-sim": check_route,
            "energy-distance": check_energy}


def check_outputs(workload: str, outputs: dict, cfg, log: CheckLog):
    """Run the oracles of every command in the workload."""
    for command in WORKLOADS[workload]:
        _ORACLES[command[0]](outputs, cfg, log)
