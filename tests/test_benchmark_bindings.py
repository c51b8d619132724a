"""The benchmark's tracer can still find every function it wraps.

``benchmark/tracing.py`` replaces named functions at the module bindings
their callers use.  A refactor that renames or unbinds one of them breaks
the traced benchmark run; this test makes it break the test suite too.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_traced_binding_exists():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    functions = tracing.bound_functions()
    assert len(functions) == len(tracing.BINDINGS)
    assert all(callable(f) for f in functions)
