"""The benchmark's tracer can still find every function it wraps.

``benchmark/tracing.py`` replaces named functions at the module bindings
their callers use.  A refactor that renames or unbinds one of them breaks
the traced benchmark run; these tests make it break the test suite too,
and so does an ensemble or a sweep that stops calling the functions traced
in it.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_binding_exists():
    tracing = _load_tracing()
    functions = tracing.bound_functions()
    assert len(functions) == len(tracing.BINDINGS)
    assert all(callable(f) for f in functions)


def test_route_sim_calls_its_traced_functions(tmp_path):
    # a binding the ensemble stops calling would read 0 in every traced run
    from gmsklink import cli

    tracing = _load_tracing()
    with tracing.Tracer() as tracer:
        assert cli.main(["route-sim", "--quick", "--seed", "7",
                         "--out", str(tmp_path)]) == 0
    _, _, calls = tracer.totals(0)
    compares = calls["netsim.compare_coded_uncoded"]
    assert compares >= 2
    # --quick attempts 100 trials per ensemble; geometry draws each once
    assert calls["netsim.deploy"] == calls["netsim.build_route"] == 100
    assert tracer.counts[0]["netsim.trials_attempted"] == 100 * compares


def test_traced_ber_sweep_writes_the_same_bytes(tmp_path):
    # the sweep encodes through the traced apply_code binding, and its
    # batch decodes never reach the traced strip_code, which takes one stream
    from gmsklink import cli

    tracing = _load_tracing()
    outputs = {}
    for traced in (False, True):
        out = tmp_path / str(traced)
        out.mkdir()
        argv = ["ber-sweep", "--quick", "--seed", "7", "--out", str(out)]
        if traced:
            with tracing.Tracer() as tracer:
                assert cli.main(argv) == 0
        else:
            assert cli.main(argv) == 0
        outputs[traced] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert outputs[True] == outputs[False]
    assert tracer.counts[0]["link.chunks"] > 0
