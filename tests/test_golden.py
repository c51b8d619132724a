"""Golden outputs: the three data commands under ``--quick --seed 99``.

``tests/golden/`` holds every file that ``ber-sweep``, ``energy-distance``
and ``route-sim`` write with the shipped defaults.  A change that must keep
the program's answers keeps these bytes.  The BER, route and gnuplot files
are compared byte for byte; ``energy_distance.csv`` and ``sensitivity.csv``
hold closed-form values that an equivalent formula may move in the last
digits, so they are compared cell by cell at a relative tolerance of 1e-9.
The commands run with scipy blocked, so a scipy import anywhere in the
package fails the test.

Re-record (only when an output is meant to change, and say why):

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
TOLERANT_FILES = ("energy_distance.csv", "sensitivity.csv")
RTOL = 1e-9

# Runs the three commands in one fresh interpreter in which scipy cannot be
# imported: the pinned bytes come from a numpy-only runtime.
_RUN = """\
import sys
sys.modules["scipy"] = None
from gmsklink import cli
for command in ("ber-sweep", "energy-distance", "route-sim"):
    code = cli.main([command, "--quick", "--seed", "99", "--out", sys.argv[1]])
    if code:
        sys.exit(f"{command} exited {code}")
"""


def run_commands(out_dir: Path) -> dict:
    """Run the three commands into ``out_dir``; returns {file name: bytes}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _RUN, str(out_dir)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def _cells_close(got: bytes, want: bytes) -> bool:
    got_rows = [line.split(",") for line in got.decode().splitlines()]
    want_rows = [line.split(",") for line in want.decode().splitlines()]
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return False
    for got_row, want_row in zip(got_rows, want_rows):
        for g, w in zip(got_row, want_row):
            if g == w:
                continue
            try:
                if not math.isclose(float(g), float(w), rel_tol=RTOL):
                    return False
            except ValueError:
                return False
    return True


def test_outputs_match_golden(tmp_path):
    got = run_commands(tmp_path)
    want = {p.name: p.read_bytes() for p in sorted(GOLDEN_DIR.iterdir())}
    assert sorted(got) == sorted(want)
    for name, data in want.items():
        if name in TOLERANT_FILES:
            assert _cells_close(got[name], data), f"{name} differs from the golden copy"
        else:
            assert got[name] == data, f"{name} differs from the golden copy"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for old in GOLDEN_DIR.iterdir():
        old.unlink()
    for name, data in run_commands(GOLDEN_DIR).items():
        print(f"recorded {name} ({len(data)} bytes)")
