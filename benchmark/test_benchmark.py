"""Tests of the benchmark itself.

    python3 -m pytest benchmark/test_benchmark.py

The output checks must catch a corrupted row (a negative control), the
tracer must restore every binding it wraps so timed passes stay untraced,
and BENCHMARK.json must name exactly the metrics the run reports.
"""

import json

import pytest

import workloads as wl

wl.import_gmsklink()

import checks  # noqa: E402  (needs gmsklink on the path)
import run  # noqa: E402
import tracing  # noqa: E402


def _pass(workload, out_dir):
    for command, code, err in wl.run_pass(workload, wl.REFERENCE_SEED, out_dir):
        assert code == 0, f"{command}: {err}"
    return wl.read_outputs(out_dir)


def _check(workload, outputs, reference=True):
    log = checks.CheckLog()
    if reference:
        checks.check_reference(workload, outputs, log)
    checks.check_outputs(workload, outputs,
                         wl.resolved_config(workload, wl.REFERENCE_SEED), log)
    return log


def _corrupt(data: bytes, row: int, column: int, value: str) -> bytes:
    lines = data.decode().splitlines()
    cells = lines[row].split(",")
    assert cells[column] != value
    cells[column] = value
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def route_outputs(tmp_path_factory):
    return _pass("route-ensemble", tmp_path_factory.mktemp("route"))


@pytest.fixture(scope="module")
def curve_outputs(tmp_path_factory):
    return _pass("sweep-curve", tmp_path_factory.mktemp("curve"))


def test_reference_passes_are_clean(route_outputs, curve_outputs):
    for workload, outputs in (("route-ensemble", route_outputs),
                              ("sweep-curve", curve_outputs)):
        log = _check(workload, outputs)
        assert log.attempted > 0
        assert log.failed == 0, log.failures


@pytest.mark.parametrize("workload,name,row,column,value", [
    ("route-ensemble", "route_replication_literal.csv", 5, 3, "0.5"),
    ("route-ensemble", "route_geometry_circuit_unscaled.csv", 7, 2, "1e-3"),
    ("route-ensemble", "energy_distance.csv", 10, 4, "0.25"),
    ("route-ensemble", "sensitivity.csv", 1, 3, "123.0"),
    # the 9 dB uncoded point, moved far outside the model band
    ("sweep-curve", "ber_none.csv", 7, 2, "0.25"),
    ("sweep-curve", "ber_reed_solomon.csv", 3, 3, "7"),
])
@pytest.mark.parametrize("reference", [True, False])
def test_corrupted_row_raises_failed_frac(route_outputs, curve_outputs, workload,
                                          name, row, column, value, reference):
    outputs = dict(route_outputs if workload == "route-ensemble" else curve_outputs)
    clean = _check(workload, outputs, reference)
    outputs[name] = _corrupt(outputs[name], row, column, value)
    corrupted = _check(workload, outputs, reference)
    assert clean.failed == 0
    assert corrupted.failed_frac > clean.failed_frac


def test_tracer_restores_every_binding():
    before = tracing.bound_functions()
    with tracing.Tracer():
        during = tracing.bound_functions()
    assert all(a is not b for a, b in zip(before, during))
    assert tracing.bound_functions() == before


def test_tracer_restores_bindings_after_an_error():
    before = tracing.bound_functions()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("inside the traced block")
    assert tracing.bound_functions() == before


def test_traced_pass_matches_untraced(route_outputs, tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        traced = _pass("route-ensemble", tmp_path)
    assert traced == route_outputs
    metrics = tracing.layer_metrics(tracer, 0, wall_s=1.0)
    cfg = wl.resolved_config("route-ensemble", wl.REFERENCE_SEED)
    assert metrics["netsim.trials_attempted"] == cfg["route.trials"] * 4
    assert metrics["energy.crossover_evals"] > 0
    assert metrics["link.chunks"] == 0
    assert set(metrics) | {"params.load_config_s", "setup.import_s", "setup.import_share",
                           "trace.wall_s", "trace.overhead_s"} == set(run.PER_LAYER)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
