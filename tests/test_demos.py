"""The demos that use the energy and route API run to completion.

Demo 05 is the main user of the public ``route_energy`` and
``compare_coded_uncoded`` API; demo 04 of ``total_energy_coded`` and
``crossover_distance``.  Each takes under a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["04_energy_vs_distance.py", "05_route_energy.py"])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
