"""Command-line front end for the three experiments plus codec verification.

Subcommands: ``ber-sweep`` (BER curves per codec), ``energy-distance``
(per-bit energy vs distance with crossover and sensitivity report),
``route-sim`` (multi-hop route energy trials) and ``codec-test``
(pass/fail codec verification).  Exit codes: 0 success, 1 usage or
configuration error, 2 runtime failure.  Diagnostics go to stderr; stdout
and output files carry data only.  Every output is reproducible
byte-for-byte from (config, seed): files are fully computed first, then
written through an atomic rename.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys
import tempfile

import numpy as np

# total_energy_coded and total_energy_uncoded are not called here; they stay
# bound in this module because the benchmark's tracer wraps them by name
from .energy import (CodedVariant, crossover_distance,  # noqa: F401
                     total_energy_coded, total_energy_uncoded)
from .errors import ConfigError, RoutingError
from .fec import (CODECS, conv_encode, golay, golay_spec, reed_solomon,
                  viterbi_decode_segments)
from .link import StopRule, ber_csv_text, run_grid
from .netsim import compare_coded_uncoded, draw_trials
from .params import load_config, parse_codecs

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_RUNTIME = 2

_GNUPLOT_TEMPLATE = """\
# BER vs Eb/N0 curves; run: gnuplot plot_ber.gnuplot
set terminal pngcairo size 900,600
set output 'ber_curves.png'
set datafile separator ','
set logscale y
set xlabel 'Eb/N0 per information bit (dB)'
set ylabel 'BER'
set grid
set key bottom left
plot {plots}
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)


def _umask() -> int:
    # the umask can only be read by setting it, so put it back at once
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-gmsklink-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _variants(selection: str):
    if selection == "both":
        return (CodedVariant.LITERAL, CodedVariant.CIRCUIT_UNSCALED)
    return (CodedVariant(selection),)


# ---------------------------------------------------------------- ber-sweep


def cmd_ber_sweep(cfg, out_dir: str, quick: bool) -> int:
    codecs = cfg["run.codecs"]
    if quick:
        grid = [0.0, 3.0, 6.0]
        stop = StopRule(min_bit_errors=50, max_bits=100_000)
    else:
        grid = cfg.ebno_grid()
        stop = cfg.stop_rule()
    modem = cfg.modem_config()
    seed = cfg["run.seed"]
    g_code = cfg["codec.g_code_db"]

    specs = [CODECS[name].spec(g_code) for name in codecs]
    curves = {name: [] for name in codecs}
    for points in run_grid(specs, sorted(grid), modem, stop, seed):
        for name, point in zip(codecs, points):
            curves[name].append(point)
    for name in codecs:
        print(f"swept {name}: {len(grid)} points", file=sys.stderr)

    outputs = {}
    for name, points in curves.items():
        rows = [(name, p) for p in points]
        outputs[f"ber_{name}.csv"] = ber_csv_text(rows)
    merged = [(name, p) for name in codecs for p in curves[name]]
    outputs["ber_comparison.csv"] = ber_csv_text(merged)
    plots = ", \\\n     ".join(
        f"'ber_{name}.csv' skip 1 using 1:3 with linespoints title '{name}'"
        for name in codecs
    )
    outputs["plot_ber.gnuplot"] = _GNUPLOT_TEMPLATE.format(plots=plots)

    for fname, text in outputs.items():
        _write_atomic(os.path.join(out_dir, fname), text)
    return _EXIT_OK


# ----------------------------------------------------------- energy-distance


def cmd_energy_distance(cfg, out_dir: str, quick: bool) -> int:
    model = cfg.energy_model()
    spec = golay_spec(cfg["codec.g_code_db"])
    grid = cfg.distance_grid(5.0 if quick else 0.0)

    crossovers = {variant: _crossover(model, spec, variant)
                  for variant in CodedVariant}

    distances = sorted(set(grid) | {d for d in crossovers.values() if d is not None})
    uncoded = model.link()
    coded = [model.link(spec, variant) for variant in CodedVariant]
    lines = ["d_m,e_uncoded,e_coded_literal,e_coded_circuit_unscaled,"
             "savings_literal,savings_circuit_unscaled"]
    for d in distances:
        unc = uncoded.breakdown(d).e_per_info_bit
        row = [repr(float(d)), repr(unc)]
        savings = []
        for link in coded:
            e_coded = link.breakdown(d).e_per_info_bit
            row.append(repr(e_coded))
            savings.append(repr(1.0 - e_coded / unc))
        lines.append(",".join(row + savings))
    scan_text = "\n".join(lines) + "\n"

    rows, selected = _sensitivity(cfg)
    sens = ["variant,alpha,savings_at_100m,crossover_m,abs_diff_from_0.47,selected"]
    for i, (variant, a, saving, d_star, diff) in enumerate(rows):
        d_text = repr(d_star) if d_star is not None else "none"
        sens.append(f"{variant.value},{a!r},{saving!r},{d_text},{diff!r},"
                    f"{int(i == selected)}")
    sens_text = "\n".join(sens) + "\n"

    _write_atomic(os.path.join(out_dir, "energy_distance.csv"), scan_text)
    _write_atomic(os.path.join(out_dir, "sensitivity.csv"), sens_text)
    for variant, d in crossovers.items():
        print(f"crossover [{variant.value}]: {d if d is not None else 'none'} m",
              file=sys.stderr)
    return _EXIT_OK


def _crossover(model, spec, variant):
    return crossover_distance(model.power, model.timing, model.budget, model.pe,
                              model.alpha, spec, model.codec_power, variant)


def _sensitivity(cfg):
    """Savings at 100 m and crossover distance per (variant, alpha) combination.

    Returns rows ``(variant, alpha, savings, crossover_m, |savings - 0.47|)``
    and the index of the first row closest to the published 47 % savings.
    """
    model = cfg.energy_model()
    spec = golay_spec(cfg["codec.g_code_db"])
    rows = []
    for variant, a in itertools.product(CodedVariant, cfg["scan.alpha_list"]):
        at_alpha = dataclasses.replace(model, alpha=a)
        unc = at_alpha.link().breakdown(100.0).e_per_info_bit
        coded = at_alpha.link(spec, variant).breakdown(100.0).e_per_info_bit
        saving = 1.0 - coded / unc
        rows.append((variant, a, saving, _crossover(at_alpha, spec, variant),
                     abs(saving - 0.47)))
    return rows, min(range(len(rows)), key=lambda i: rows[i][4])


# ----------------------------------------------------------------- route-sim


def cmd_route_sim(cfg, out_dir: str, quick: bool, variant_selection: str) -> int:
    """Draw every ensemble, then price and write one ``(mode, variant)``
    file at a time.

    An ensemble is drawn once, its hop distances raised to the path-loss
    exponent, and every variant is priced from that draw.  Every draw comes
    before any output, so an ensemble in which no trial routes is a config
    error that leaves no file.  Each file's text is dropped once written.
    """
    trials = 100 if quick else cfg["route.trials"]
    model = cfg.energy_model()
    spec = golay_spec(cfg["codec.g_code_db"])
    ensembles = cfg.ensembles()
    # the last ensemble (geometry) is drawn first: routing its slices is the
    # largest working set, and no other draw is held yet
    draws = {}
    for mode, ens in reversed(ensembles.items()):
        try:
            draws[mode] = draw_trials(ens, trials, model.budget.k_exp)
        except RoutingError as exc:
            raise ConfigError(
                f"no {mode} trial builds a route with route.max_hop_m = "
                f"{ens.max_hop_m!r} in a {ens.field_width!r} m field "
                f"(route.field_m)") from exc
    for mode in ensembles:
        drawn = draws.pop(mode)
        uncoded = None
        for variant in _variants(variant_selection):
            stats = compare_coded_uncoded(drawn, trials, model, spec, variant)
            if uncoded is None:
                uncoded = _uncoded_text(stats)
            name = f"route_{mode}_{variant.value.replace('-', '_')}.csv"
            _write_atomic(os.path.join(out_dir, name), _route_csv(*uncoded, stats))
            print(f"{mode}/{variant.value}: mean savings {stats.mean:+.4f} "
                  f"over {stats.n_trials} trials, {trials - stats.n_trials} "
                  f"skipped", file=sys.stderr)
    return _EXIT_OK


def _uncoded_text(stats) -> tuple:
    """``(prefixes, mean)``: each row's ``trial,e_uncoded_J,`` text and the
    mean uncoded energy.  They do not depend on the variant, so an ensemble
    makes them once."""
    e_u = stats.e_uncoded.tolist()
    return ([f"{trial},{e!r}," for trial, e in zip(stats.trials, e_u)],
            sum(e_u) / stats.n_trials)


def _route_csv(prefixes: list, mean_u: float, stats) -> str:
    """One ``(mode, variant)`` file: a row per kept trial, then the means."""
    mean_c = sum(stats.e_coded.tolist()) / stats.n_trials
    lines = ["trial,e_uncoded_J,e_coded_J,savings_fraction"]
    lines += [f"{prefix}{e!r},{s!r}" for prefix, e, s in
              zip(prefixes, stats.e_coded.tolist(), stats.savings.tolist())]
    # the empty last line ends the text with a newline, with no second copy
    lines += [f"mean,{mean_u!r},{mean_c!r},{stats.mean!r}", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------- codec-test


def cmd_codec_test(inject_fault: bool) -> int:
    """Exhaustive where the input space is finite: every Golay message under
    every error pattern of weight <= 3, and every RS(15,11) syndrome."""
    report = []

    # Golay codeword weights: every codeword weight must be 0, 8, 12, 16 or 24
    msgs = np.arange(1 << golay.K_BITS, dtype=np.uint32)
    words = golay.encode_words(msgs)
    if inject_fault:
        # message 1's codeword is a generator row; flipping one of its bits
        # is exactly a flipped generator-matrix entry
        words[1] ^= 1
    weights = np.bitwise_count(words)
    report.append(("golay-weights", bool(np.isin(weights, (0, 8, 12, 16, 24)).all())))

    # Golay correction radius: every message under every error pattern, a
    # slice of the patterns at a time to bound the memory
    patterns = np.array([sum(1 << i for i in bits) for w in range(golay.T_CORRECT + 1)
                         for bits in itertools.combinations(range(golay.N_BITS), w)],
                        dtype=np.uint32)
    ok = True
    for chunk in np.array_split(patterns, 8):
        decoded, _, failed = golay.decode_words(words ^ chunk[:, None])
        ok &= not failed.any() and bool((decoded == msgs).all())
    report.append(("golay-radius", ok))

    # Reed-Solomon: the 65536 words [0]*11 + parity cover every syndrome once;
    # exactly the 23 851 error patterns of weight <= 2 decode, each to a
    # codeword at the distance it reports, and every failure comes back raw
    parity = np.arange(1 << 16)
    received = np.zeros((parity.size, reed_solomon.N_SYMBOLS), dtype=np.int64)
    received[:, reed_solomon.K_SYMBOLS:] = (parity[:, None] >> [12, 8, 4, 0]) & 15
    got, corrected, failed = reed_solomon.decode_words(received)
    ok = ~failed
    distance = np.count_nonzero(got != received, axis=1)
    report.append(("rs-correction", int(ok.sum()) == 23_851
                   and np.array_equal(reed_solomon.encode_words(got[ok, :11]), got[ok])
                   and np.array_equal(distance, corrected)
                   and int(distance.max()) <= reed_solomon.T_CORRECT
                   and np.array_equal(got[failed], received[failed])))

    # Viterbi roundtrip of random blocks
    bits = np.random.default_rng(2024).integers(0, 2, (2000, 97)).astype(np.uint8)
    coded = np.stack([conv_encode(b) for b in bits])
    decoded = viterbi_decode_segments(coded, coded.shape[1])
    report.append(("viterbi-roundtrip", np.array_equal(decoded, bits)))

    for name, passed in report:
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    all_ok = all(passed for _, passed in report)
    print(f"codec-test: {'PASS' if all_ok else 'FAIL'}")
    return _EXIT_OK if all_ok else _EXIT_RUNTIME


# --------------------------------------------------------------------- main


def _build_parser() -> _Parser:
    parser = _Parser(prog="gmsklink", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="parameter file")
    common.add_argument("--seed", type=int, metavar="N", help="override run.seed")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--quick", action="store_true",
                        help="reduced trial counts (still deterministic)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber-sweep", parents=[common],
                       help="Monte Carlo BER curves per codec")
    p.add_argument("--codecs", metavar="LIST",
                   help=f"comma-separated subset of {','.join(CODECS)}")

    sub.add_parser("energy-distance", parents=[common],
                   help="per-bit energy vs distance scan with crossover")

    p = sub.add_parser("route-sim", parents=[common],
                       help="multi-hop route energy comparison")
    p.add_argument("--variant", choices=("literal", "circuit-unscaled", "both"),
                   help="coded-energy interpretation variant")

    p = sub.add_parser("codec-test", parents=[common],
                       help="codec verification; exit 0 iff all pass")
    p.add_argument("--inject-fault", action="store_true",
                   help="flip a generator entry to prove the tests catch faults")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "codec-test":
            return cmd_codec_test(args.inject_fault)

        cfg = load_config(args.config)
        overrides = {}
        if args.seed is not None:
            overrides["run.seed"] = args.seed
        if args.out is not None:
            overrides["run.out_dir"] = args.out
        if getattr(args, "codecs", None) is not None:
            overrides["run.codecs"] = parse_codecs(args.codecs)
        if getattr(args, "variant", None):
            overrides["run.variant"] = args.variant
        cfg = cfg.with_overrides(overrides)
        out_dir = cfg["run.out_dir"]
        made, path = [], os.path.normpath(out_dir)  # those made, innermost first
        while path and not os.path.exists(path):
            made.append(path)
            path = os.path.dirname(path)
        try:
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot make output directory {out_dir}: "
                                  f"{exc}") from exc
            if args.command == "ber-sweep":
                return cmd_ber_sweep(cfg, out_dir, args.quick)
            if args.command == "energy-distance":
                return cmd_energy_distance(cfg, out_dir, args.quick)
            if args.command == "route-sim":
                return cmd_route_sim(cfg, out_dir, args.quick, cfg["run.variant"])
            parser.error(f"unknown command {args.command!r}")
        except BaseException:
            # a command that fails before writing a file leaves no
            # directory it made: rmdir removes only an empty one
            for path in made:
                try:
                    os.rmdir(path)
                except OSError:
                    break
            raise
    except ConfigError as exc:
        print(f"gmsklink: config error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (RoutingError, OSError, ValueError) as exc:
        print(f"gmsklink: runtime failure: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
