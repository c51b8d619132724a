"""Re-pin the reference outputs under reference/ from this checkout.

    python3 benchmark/record_reference.py [WORKLOAD ...]

Runs one pass of each workload at the reference seed and stores its output
digests (and the energy CSVs, which are compared at a tolerance).  Only do
this when a change is meant to alter outputs, and say so in the change.
"""

import sys
import tempfile
from pathlib import Path

import workloads as wl

if __name__ == "__main__":
    wl.import_gmsklink()
    import checks

    for workload in sys.argv[1:] or sorted(wl.WORKLOADS):
        with tempfile.TemporaryDirectory() as tmp:
            for command, code, err in wl.run_pass(workload, wl.REFERENCE_SEED, Path(tmp)):
                if code != 0:
                    raise SystemExit(f"{workload}: {command} exited {code}\n{err}")
            checks.record_reference(workload, wl.read_outputs(Path(tmp)))
        print(f"recorded {workload}")
