"""Per-layer tracing for the benchmark's traced run.

``Tracer`` wraps gmsklink's public functions at the module bindings their
callers use (``run_point`` calls ``gmsklink.link.modulate``, not
``gmsklink.modem.modulate``), records one span per call in memory and counts
work at the same boundaries.  Leaving the ``with`` block restores every
binding, so the untraced passes that give the end-to-end metrics run the
program unchanged.  Spans carry (name, start, end, parent, run id); a run is
one pass of the workload.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

CODECS = ("none", "golay", "reed_solomon", "convolutional")
LAYERS = ("cli", "params", "link", "modem", "channel", "fec", "energy", "netsim")


def _fec_span(op):
    return lambda args, kwargs: f"fec.{op}.{args[1].name}"


def _counter(name, amount):
    return lambda tracer, args, kwargs, result: tracer.count(name, amount(args, result))


def _on_apply_code(tracer, args, kwargs, result):
    tracer.count("link.chunks")
    tracer.last_chunk = (args[0], result)


def _on_strip_code(tracer, args, kwargs, result):
    # run_point strips the chunk it just coded: compare the demodulator's
    # decisions with the coded bits, and the decoder's output with the data
    info_bits, coded = tracer.last_chunk
    codec = args[1].name
    tracer.count(f"fec.pre_fec_errors.{codec}", int(np.count_nonzero(args[0] != coded)))
    tracer.count(f"fec.post_fec_errors.{codec}", int(np.count_nonzero(result != info_bits)))


def _on_compare(tracer, args, kwargs, result):
    trials = args[1]
    tracer.count("netsim.trials_attempted", trials)
    tracer.count("netsim.trials_skipped", trials - result.n_trials)


# (module, binding, span name or name function, hook run after a return)
BINDINGS = (
    ("gmsklink.cli", "cmd_ber_sweep", "cli.ber_sweep", None),
    ("gmsklink.cli", "cmd_energy_distance", "cli.energy_distance", None),
    ("gmsklink.cli", "cmd_route_sim", "cli.route_sim", None),
    ("gmsklink.cli", "_write_atomic", "cli.write",
     _counter("cli.bytes_written", lambda a, r: len(a[1].encode()))),
    ("gmsklink.cli", "load_config", "params.load_config", None),
    ("gmsklink.cli", "crossover_distance", "energy.crossover_distance", None),
    ("gmsklink.cli", "total_energy_uncoded", "energy.total_energy", None),
    ("gmsklink.cli", "total_energy_coded", "energy.total_energy", None),
    ("gmsklink.cli", "compare_coded_uncoded", "netsim.compare_coded_uncoded", _on_compare),
    # crossover_distance's bisection calls the energy module's own bindings,
    # one uncoded evaluation per step
    ("gmsklink.energy", "total_energy_uncoded", "energy.total_energy",
     _counter("energy.crossover_evals", lambda a, r: 1)),
    ("gmsklink.energy", "total_energy_coded", "energy.total_energy", None),
    ("gmsklink.link", "run_point", "link.run_point",
     _counter("link.bits_simulated", lambda a, r: r.bits_simulated)),
    ("gmsklink.link", "apply_code", _fec_span("apply_code"), _on_apply_code),
    ("gmsklink.link", "modulate", "modem.modulate",
     _counter("modem.modulate_samples", lambda a, r: r.samples.size)),
    ("gmsklink.link", "awgn", "channel.awgn",
     _counter("channel.awgn_samples", lambda a, r: r.samples.size)),
    ("gmsklink.link", "demodulate", "modem.demodulate",
     _counter("modem.demodulate_bits", lambda a, r: a[2])),
    ("gmsklink.link", "strip_code", _fec_span("strip_code"), _on_strip_code),
    ("gmsklink.netsim", "deploy_random", "netsim.deploy", None),
    ("gmsklink.netsim", "build_route", "netsim.build_route", None),
    ("gmsklink.netsim", "route_energy", "netsim.route_energy", None),
    ("gmsklink.netsim", "total_energy_uncoded", "energy.total_energy", None),
    ("gmsklink.netsim", "total_energy_coded", "energy.total_energy", None),
)


def bound_functions() -> list:
    """The function bound now at each binding in ``BINDINGS``."""
    return [getattr(importlib.import_module(module), attr)
            for module, attr, _, _ in BINDINGS]


class Tracer:
    """Context manager that traces the bindings in ``BINDINGS`` while active."""

    def __init__(self):
        self._saved = []
        self._stack = []
        self._name_ids = {}
        self.names = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.counts = {0: {}}
        self.last_chunk = None

    def __enter__(self):
        try:
            for module_name, attr, span, hook in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span, hook))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def begin_run(self, run_id: int):
        self.run_id = run_id
        self.counts[run_id] = {}

    def count(self, name: str, amount: int = 1):
        counts = self.counts[self.run_id]
        counts[name] = counts.get(name, 0) + amount

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, span, hook):
        fixed = None if callable(span) else self._name_id(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else tracer._name_id(span(args, kwargs))
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.span_name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.run.append(tracer.run_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def totals(self, run_id: int) -> tuple[dict, dict, dict]:
        """Inclusive seconds, self seconds and call count per span name."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - children
        mine = np.frombuffer(self.run, dtype=np.int32) == run_id
        size = len(self.names)
        incl = np.bincount(name[mine], weights=dur[mine], minlength=size)
        selft = np.bincount(name[mine], weights=own[mine], minlength=size)
        calls = np.bincount(name[mine], minlength=size)
        return ({n: float(incl[i]) for i, n in enumerate(self.names)},
                {n: float(selft[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def save(self, path):
        """Write every span: names, name index, start, end, parent, run id."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 run=np.frombuffer(self.run, dtype=np.int32))


def layer_metrics(tracer: Tracer, run_id: int, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
    incl, selft, calls = tracer.totals(run_id)
    counts = tracer.counts[run_id]

    def s(name):
        return incl.get(name, 0.0)

    def n(name):
        return counts.get(name, 0)

    m = {
        "link.run_point_s": s("link.run_point"),
        "link.chunks": n("link.chunks"),
        "link.bits_simulated": n("link.bits_simulated"),
        "modem.modulate_s": s("modem.modulate"),
        "modem.modulate_samples": n("modem.modulate_samples"),
        "modem.demodulate_s": s("modem.demodulate"),
        "modem.demodulate_bits": n("modem.demodulate_bits"),
        "channel.awgn_s": s("channel.awgn"),
        "channel.awgn_samples": n("channel.awgn_samples"),
        "energy.total_energy_calls": calls.get("energy.total_energy", 0),
        "energy.total_energy_s": s("energy.total_energy"),
        "energy.crossover_distance_s": s("energy.crossover_distance"),
        "energy.crossover_evals": n("energy.crossover_evals"),
        "netsim.deploy_s": s("netsim.deploy"),
        "netsim.build_route_s": s("netsim.build_route"),
        "netsim.route_energy_s": s("netsim.route_energy"),
        "netsim.route_energy_calls": calls.get("netsim.route_energy", 0),
        "netsim.trials_attempted": n("netsim.trials_attempted"),
        "netsim.trials_skipped": n("netsim.trials_skipped"),
        "cli.write_s": s("cli.write"),
        "cli.bytes_written": n("cli.bytes_written"),
    }
    for codec in CODECS:
        pre, post = n(f"fec.pre_fec_errors.{codec}"), n(f"fec.post_fec_errors.{codec}")
        m[f"fec.apply_code_s.{codec}"] = s(f"fec.apply_code.{codec}")
        m[f"fec.strip_code_s.{codec}"] = s(f"fec.strip_code.{codec}")
        m[f"fec.pre_fec_errors.{codec}"] = pre
        m[f"fec.post_fec_errors.{codec}"] = post
        m[f"fec.residual_ratio.{codec}"] = post / pre if pre else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in selft.items()
                                   if k.startswith(layer + "."))
    m["trace.coverage"] = sum(selft.values()) / wall_s
    m["trace.spans"] = sum(calls.values())
    return m
