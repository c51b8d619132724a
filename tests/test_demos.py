"""Every demo runs to completion.

Demo 03 runs both of its BER curves in one ``run_grid`` call; demo 04 uses
``total_energy_coded`` and ``crossover_distance``, and demo 05 the public
``route_energy`` and ``compare_coded_uncoded`` API.  Demo 03 takes about
two seconds, the others under one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_gmsk_waveform.py", "02_error_correction.py",
                                  "03_ber_curves.py", "04_energy_vs_distance.py",
                                  "05_route_energy.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
