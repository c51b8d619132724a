"""Pinned outputs: every case of ``CASES`` under ``--quick --seed 99``.

``tests/pins/<case>/`` holds the files a case keeps.  ``default`` runs the
three data commands with the shipped defaults and keeps every file.  The
other cases are engine paths the defaults do not take:

- ``pulse_span_4``: a 12-bit statistic-table key;
- ``sps_16``: 16 samples per symbol;
- ``pulse_span_6``: no statistic table, so every decision comes from the
  waveform of its symbols;
- ``rx_bt_0.3``: a wider receiver lowpass;
- ``bt_0.5``: a wider frequency pulse;
- ``rx_bt_0.1``: no table, and decisions that read frames past either end
  of the signal;
- ``max_hop_35``: route-sim with skipped geometry trials.

Each case runs in a fresh interpreter in which scipy cannot be imported,
so the pinned bytes come from a numpy-only runtime.  Files are compared
byte for byte, except ``energy_distance.csv`` and ``sensitivity.csv``: they
hold closed-form values that an equivalent formula may move in the last
digits, so they are compared cell by cell at a relative tolerance of 1e-9.

Re-record every case (only when an output is meant to change, and say why
in CHANGES.md):

    python tests/test_pins.py --record
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

PIN_DIR = Path(__file__).resolve().parent / "pins"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
TOLERANT_FILES = ("energy_distance.csv", "sensitivity.csv")
RTOL = 1e-9

# case: (commands, parameter overrides, files kept; None keeps every file)
CASES = {
    "default": (("ber-sweep", "energy-distance", "route-sim"), {}, None),
    "pulse_span_4": (("ber-sweep",), {"modem.pulse_span_symbols": 4}, ("ber_comparison.csv",)),
    "sps_16": (("ber-sweep",), {"modem.samples_per_symbol": 16}, ("ber_comparison.csv",)),
    "pulse_span_6": (("ber-sweep",), {"modem.pulse_span_symbols": 6}, ("ber_comparison.csv",)),
    "rx_bt_0.3": (("ber-sweep",), {"modem.rx_bt": 0.3}, ("ber_comparison.csv",)),
    "bt_0.5": (("ber-sweep",), {"modem.bt_product": 0.5}, ("ber_comparison.csv",)),
    "rx_bt_0.1": (("ber-sweep",), {"modem.rx_bt": 0.1}, ("ber_comparison.csv",)),
    "max_hop_35": (("route-sim",), {"route.max_hop_m": 35}, None),
}

# argv: the output directory, the parameter file, then the commands
_RUN = """\
import sys
sys.modules["scipy"] = None
from gmsklink import cli
out, params, *commands = sys.argv[1:]
for command in commands:
    code = cli.main([command, "--quick", "--seed", "99", "--config", params,
                     "--out", out])
    if code:
        sys.exit(f"{command} exited {code}")
"""


def run_case(name: str, root: Path) -> dict:
    """Run case ``name`` under ``root``; returns {file name: bytes} of the
    files it keeps."""
    commands, overrides, kept = CASES[name]
    params = root / f"{name}.params"
    params.write_text("".join(f"{key} = {value!r}\n" for key, value in overrides.items()))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _RUN, str(root / name), str(params),
                           *commands], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, f"{name}: {proc.stderr}"
    return {p.name: p.read_bytes() for p in sorted((root / name).iterdir())
            if kept is None or p.name in kept}


def _cells_close(got: bytes, want: bytes) -> bool:
    got_rows = [line.split(",") for line in got.decode().splitlines()]
    want_rows = [line.split(",") for line in want.decode().splitlines()]
    if [len(r) for r in got_rows] != [len(r) for r in want_rows]:
        return False
    for got_row, want_row in zip(got_rows, want_rows):
        for g, w in zip(got_row, want_row):
            try:
                if g != w and not math.isclose(float(g), float(w), rel_tol=RTOL):
                    return False
            except ValueError:
                return False
    return True


def test_every_pinned_case_is_registered():
    assert sorted(p.name for p in PIN_DIR.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_pins(tmp_path, case):
    got = run_case(case, tmp_path)
    want = {p.name: p.read_bytes() for p in sorted((PIN_DIR / case).iterdir())}
    assert sorted(got) == sorted(want)
    for name, data in want.items():
        same = _cells_close if name in TOLERANT_FILES else bytes.__eq__
        assert same(got[name], data), f"{case}/{name} differs from its pin"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    with tempfile.TemporaryDirectory() as tmp:
        results = {name: run_case(name, Path(tmp)) for name in CASES}
    shutil.rmtree(PIN_DIR, ignore_errors=True)
    for name, files in results.items():
        (PIN_DIR / name).mkdir(parents=True)
        for file, data in files.items():
            (PIN_DIR / name / file).write_bytes(data)
            print(f"recorded {name}/{file} ({len(data)} bytes)")
