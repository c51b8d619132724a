"""Pinned outputs of the engine paths the shipped defaults do not take.

``tests/golden/`` pins the default config.  ``tests/pins/<case>/`` pins
``ber-sweep --quick --seed 99`` under six more modem configs, and
``route-sim --quick --seed 99`` at a hop range short enough that its
geometry ensemble skips trials:

- ``pulse_span_4``: a 12-bit statistic-table key;
- ``sps_16``: 16 samples per symbol;
- ``pulse_span_6``: no statistic table, so every decision comes from the
  waveform of its symbols;
- ``rx_bt_0.3``: a wider receiver lowpass;
- ``bt_0.5``: a wider frequency pulse;
- ``rx_bt_0.1``: no table, and decisions that read frames past either end
  of the signal;
- ``max_hop_35``: route-sim with skipped geometry trials.

A BER case keeps ``ber_comparison.csv``, which holds every codec's rows;
the route case keeps every file route-sim writes.  All cases run in one
fresh interpreter and are compared byte for byte.

Re-record (only when an output is meant to change, and say why):

    PYTHONPATH=src python tests/test_pins.py --record
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

PIN_DIR = Path(__file__).resolve().parent / "pins"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# case: (command, parameter overrides, files kept)
CASES = {
    "pulse_span_4": ("ber-sweep", {"modem.pulse_span_symbols": "4"}, ["ber_comparison.csv"]),
    "sps_16": ("ber-sweep", {"modem.samples_per_symbol": "16"}, ["ber_comparison.csv"]),
    "pulse_span_6": ("ber-sweep", {"modem.pulse_span_symbols": "6"}, ["ber_comparison.csv"]),
    "rx_bt_0.3": ("ber-sweep", {"modem.rx_bt": "0.3"}, ["ber_comparison.csv"]),
    "bt_0.5": ("ber-sweep", {"modem.bt_product": "0.5"}, ["ber_comparison.csv"]),
    "rx_bt_0.1": ("ber-sweep", {"modem.rx_bt": "0.1"}, ["ber_comparison.csv"]),
    "max_hop_35": ("route-sim", {"route.max_hop_m": "35"}, None),
}

# Runs every case in one interpreter: argv[1] is the output root and
# argv[2] the cases as JSON; each case writes its parameter file and its
# outputs under <root>/<case>/.
_RUN = """\
import json, os, sys
from gmsklink import cli
root, cases = sys.argv[1], json.loads(sys.argv[2])
for name, (command, overrides, _) in cases.items():
    out = os.path.join(root, name)
    os.makedirs(out)
    params = os.path.join(root, name + ".params")
    with open(params, "w") as fh:
        fh.writelines(f"{key} = {value}\\n" for key, value in overrides.items())
    code = cli.main([command, "--quick", "--seed", "99", "--config", params,
                     "--out", out])
    if code:
        sys.exit(f"{name}: {command} exited {code}")
"""


def run_cases(root: Path) -> dict:
    """Run every case under ``root``; returns {case: {file name: bytes}},
    with only the files each case keeps."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", _RUN, str(root), json.dumps(CASES)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = {}
    for name, (_, _, kept) in CASES.items():
        files = sorted((root / name).iterdir())
        out[name] = {p.name: p.read_bytes() for p in files if kept is None or p.name in kept}
    return out


def test_outputs_match_pins(tmp_path):
    got = run_cases(tmp_path)
    assert sorted(p.name for p in PIN_DIR.iterdir()) == sorted(CASES)
    for name, files in got.items():
        want = {p.name: p.read_bytes() for p in sorted((PIN_DIR / name).iterdir())}
        assert sorted(files) == sorted(want), name
        for file, data in want.items():
            assert files[file] == data, f"{name}/{file} differs from its pin"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    import shutil
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        results = run_cases(Path(tmp))
    shutil.rmtree(PIN_DIR, ignore_errors=True)
    for name, files in results.items():
        (PIN_DIR / name).mkdir(parents=True)
        for file, data in files.items():
            (PIN_DIR / name / file).write_bytes(data)
            print(f"recorded {name}/{file} ({len(data)} bytes)")
