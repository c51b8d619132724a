"""gmsklink benchmark: drive the public CLI in-process and check every output.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from this checkout's ``src``.
Set-up is timed in fresh interpreters.  Then one pass at the reference seed
is checked against the pinned outputs (and warms the process), and passes at
``--seed`` repeat while another fits in ``--seconds``.  With ``--trace 0``
the last stdout line reports the end-to-end metrics; with ``--trace 1`` the
first half of the time runs untraced, the second half traced, and it
reports the per-layer metrics with the tracing overhead.  The line before
the result carries the run manifest; both also go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from tracing import CODECS, LAYERS

OUT_DIR = wl.ROOT / ".bench_out"
SETUP_STARTS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
}
PER_LAYER = {
    "params.load_config_s": "s",
    "setup.import_s": "s",
    "setup.import_share": "ratio",
    "link.run_point_s": "s",
    "link.chunks": "count",
    "link.bits_simulated": "count",
    "modem.modulate_s": "s",
    "modem.modulate_samples": "count",
    "modem.demodulate_s": "s",
    "modem.demodulate_bits": "count",
    "channel.awgn_s": "s",
    "channel.awgn_samples": "count",
    **{f"fec.{metric}.{codec}": unit
       for metric, unit in (("apply_code_s", "s"), ("strip_code_s", "s"),
                            ("pre_fec_errors", "count"), ("post_fec_errors", "count"),
                            ("residual_ratio", "ratio"))
       for codec in CODECS},
    "energy.total_energy_calls": "count",
    "energy.total_energy_s": "s",
    "energy.crossover_distance_s": "s",
    "energy.crossover_evals": "count",
    "netsim.deploy_s": "s",
    "netsim.build_route_s": "s",
    "netsim.route_energy_s": "s",
    "netsim.route_energy_calls": "count",
    "netsim.trials_attempted": "count",
    "netsim.trials_skipped": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.spans": "count",
}

# What ``work_per_s`` counts for each command: information bits simulated
# by a sweep, route trials attempted by route-sim.
WORK_ITEM = {"ber-sweep": "info_bit", "route-sim": "route_trial", "energy-distance": None}

_SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gmsklink.cli
t1 = time.perf_counter()
gmsklink.cli.load_config(sys.argv[2])
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1,
                  "file": gmsklink.cli.__file__}))
"""


def measure_setup(workload: str) -> dict:
    """Median wall time of fresh interpreters importing the CLI and loading the config."""
    walls, imports, loads = [], [], []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(wl.SRC), str(wl.params_path(workload))],
            capture_output=True, text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up process failed:\n{proc.stderr}")
        info = json.loads(proc.stdout.splitlines()[-1])
        if wl.SRC.resolve() not in Path(info["file"]).resolve().parents:
            raise SystemExit(f"benchmark: set-up imported {info['file']}")
        imports.append(info["import_s"])
        loads.append(info["load_config_s"])
    setup_s = statistics.median(walls)
    return {"setup_s": setup_s,
            "setup.import_s": statistics.median(imports),
            "setup.import_share": statistics.median(imports) / setup_s,
            "params.load_config_s": statistics.median(loads)}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_passes(workload, seed, out_dir, seconds, log, tracer=None):
    """Passes at one seed while another fits in ``seconds``; (walls, cpus, outputs)."""
    walls, cpus, first = [], [], None
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        for stale in out_dir.iterdir():
            stale.unlink()
        if tracer is not None:
            tracer.begin_run(len(walls))
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        results = wl.run_pass(workload, seed, out_dir)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
        for command, code, err in results:
            log.check(code == 0, f"{command} exited {code}: {err.strip()[-300:]}")
        outputs = wl.read_outputs(out_dir)
        if first is None:
            first = outputs
        log.check(outputs == first,
                  f"pass {len(walls)} at seed {seed} differs from the first pass")
    return walls, cpus, first


def work_per_pass(workload: str, outputs: dict, cfg) -> int:
    work = 0
    for command in wl.WORKLOADS[workload]:
        item = WORK_ITEM[command[0]]
        if item == "info_bit":
            lines = outputs.get("ber_comparison.csv", b"").decode().splitlines()[1:]
            work += sum(int(line.split(",")[4]) for line in lines)
        elif item == "route_trial":
            variants = 2 if cfg["run.variant"] == "both" else 1
            work += cfg["route.trials"] * 2 * variants
    return work


def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(wl.ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != wl.ROOT:
        return None
    return lines[1]


def _source_sha256() -> str:
    package = wl.SRC / "gmsklink"
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".params"):
            h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def manifest(args, cfg, passes: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "cli_seed": wl.cli_seed(args.seed),
        "reference_seed": wl.REFERENCE_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commands": [list(c) for c in wl.WORKLOADS[args.workload]],
        "work_item": [WORK_ITEM[c[0]] for c in wl.WORKLOADS[args.workload]],
        "params": dict(cfg.values),
    }


def _metric_block(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} missing or unknown")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def benchmark(args) -> tuple[dict, dict]:
    setup = measure_setup(args.workload)
    wl.import_gmsklink()
    import checks
    from tracing import Tracer, bound_functions, layer_metrics

    log = checks.CheckLog()
    cfg = wl.resolved_config(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        ref_dir = work_dir / "reference"
        run_dir = work_dir / "run"
        ref_dir.mkdir()
        run_dir.mkdir()
        for command, code, err in wl.run_pass(args.workload, wl.REFERENCE_SEED, ref_dir):
            log.check(code == 0, f"{command} exited {code}: {err.strip()[-300:]}")
        ref_outputs = wl.read_outputs(ref_dir)
        checks.check_reference(args.workload, ref_outputs, log)
        checks.check_outputs(args.workload, ref_outputs,
                             wl.resolved_config(args.workload, wl.REFERENCE_SEED), log)

        untraced_s = args.seconds / 2 if args.trace else args.seconds
        walls, cpus, outputs = run_passes(args.workload, args.seed, run_dir, untraced_s, log)
        checks.check_outputs(args.workload, outputs, cfg, log)
        wall_s = statistics.median(walls)
        traced_walls = []

        if not args.trace:
            metrics = _metric_block({
                "setup_s": setup["setup_s"],
                "wall_s": wall_s,
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "work_per_s": work_per_pass(args.workload, outputs, cfg) / wall_s,
            }, END_TO_END)
        else:
            tracer = Tracer()
            before = bound_functions()
            with tracer:
                traced_walls, _, traced_outputs = run_passes(
                    args.workload, args.seed, run_dir, args.seconds - untraced_s, log, tracer)
            log.check(bound_functions() == before, "a traced binding was not restored")
            log.check(traced_outputs == outputs, "traced outputs differ from untraced")
            per_run = [layer_metrics(tracer, run, wall) for run, wall in enumerate(traced_walls)]
            values = {}
            for name in per_run[0]:
                series = [m[name] for m in per_run]
                if PER_LAYER[name] == "count":
                    log.check(len(set(series)) == 1, f"{name} differs across traced passes")
                    values[name] = series[0]
                else:
                    values[name] = statistics.median(series)
            traced_wall = statistics.median(traced_walls)
            values.update({k: v for k, v in setup.items() if k in PER_LAYER})
            values["trace.wall_s"] = traced_wall
            values["trace.overhead_s"] = traced_wall - wall_s
            metrics = _metric_block(values, PER_LAYER)
            tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = {"manifest": manifest(args, cfg, len(walls) + len(traced_walls)),
              "failed_frac": log.failed_frac, "failures": log.failures,
              "untraced_walls_s": walls, "traced_walls_s": traced_walls}
    result = {"correct": log.failed == 0, "attempted": log.attempted,
              "failed": log.failed, "metrics": metrics}
    sidecar = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    sidecar.write_text(json.dumps({**report, **result}, indent=1) + "\n")
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (wl.SRC / "gmsklink" / "cli.py").is_file():
        print(f"benchmark: no gmsklink source under {wl.SRC}", file=sys.stderr)
        return 2
    report, result = benchmark(args)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
