"""The benchmark's workloads and how one pass of each drives the CLI.

A pass runs the workload's commands through ``gmsklink.cli.main`` in this
process, one after the other (a closed loop with one client), and leaves
the command outputs in a directory.  Each workload reads its parameters
from ``params/<workload>.params`` next to this file; the CLI seed is the
only per-run input.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Seed of the pass whose outputs are pinned byte for byte under reference/.
REFERENCE_SEED = 1

WORKLOADS = {
    "sweep-curve": (("ber-sweep",),),
    "sweep-dense": (("ber-sweep",),),
    "route-ensemble": (("route-sim",), ("energy-distance",)),
}


def params_path(workload: str) -> Path:
    return BENCH_DIR / "params" / f"{workload}.params"


def import_gmsklink():
    """Import gmsklink from this checkout's ``src``, never from elsewhere."""
    package = SRC / "gmsklink"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"benchmark: no gmsklink source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gmsklink.cli

    loaded = Path(gmsklink.cli.__file__).resolve()
    if package.resolve() not in loaded.parents:
        raise SystemExit(f"benchmark: gmsklink loaded from {loaded}, not {package}")
    return gmsklink


def cli_seed(seed: int) -> int:
    """The CLI takes non-negative seeds; fold any integer onto that range."""
    return seed % (1 << 63)


def resolved_config(workload: str, seed: int):
    """The RunConfig a pass of ``workload`` runs with."""
    from gmsklink.params import load_config

    return load_config(params_path(workload)).with_overrides(
        {"run.seed": cli_seed(seed)})


def run_pass(workload: str, seed: int, out_dir: Path) -> list[tuple[str, int, str]]:
    """Run every command of one pass; returns (command, exit code, stderr)."""
    from gmsklink import cli

    results = []
    for command in WORKLOADS[workload]:
        argv = [*command, "--config", str(params_path(workload)),
                "--seed", str(cli_seed(seed)), "--out", str(out_dir)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        results.append((command[0], code, stderr.getvalue()))
    return results


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes()
            for name in sorted(os.listdir(out_dir))
            if (out_dir / name).is_file()}
