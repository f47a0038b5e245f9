"""Spans recorded around the program's layer entry points, from outside.

``Tracer.installed()`` replaces each entry point in ``TARGETS`` by a wrapper
at the place its callers look it up (a module global or a class attribute)
and restores the originals on exit. Each wrapper records a span (name,
start, end, parent span, call id) and, where the entry point takes or
returns a circuit, its gate and qubit counts. Spans stay in memory until
the run ends. Nothing in the program changes.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from statistics import median
from time import perf_counter
from typing import Iterator


def _result_circuit(args, result) -> dict:
    return {"gates": len(result), "qubits": result.num_qubits}


def _input_circuit(args, result) -> dict:
    return {"gates": len(args[0]), "qubits": args[0].num_qubits}


def _extend_fragment(args, result) -> dict:
    return {"gates": len(args[1])}  # Circuit.extend(self, fragment, qubit_map)


# (owner, attribute, span name, counts taken at the boundary). The owner is
# "module" or "module:Class"; span names are "<layer>.<entry point>".
TARGETS = (
    ("qbs.aqp", "load_table", "aqp.load_table", None),
    ("qbs.aqp", "draw_sample", "aqp.draw_sample", None),
    ("qbs.aqp", "tuple_results", "aqp.tuple_results", None),
    ("qbs.aqp", "estimate", "aqp.estimate", None),
    ("qbs.aqp", "bootstrap_se", "aqp.bootstrap_se", None),
    ("qbs.aqp", "confidence_interval", "aqp.confidence_interval", None),
    ("qbs.aqp", "replicate", "bootstrap.replicate", None),
    ("qbs.bootstrap", "simulate", "sim.simulate", _input_circuit),
    ("qbs.bootstrap", "draw_basis_index", "sim.draw_basis_index", None),
    ("qbs.bootstrap", "build_qsa", "qram.build_qsa", _result_circuit),
    ("qbs.bootstrap", "build_value_qsa", "qram.build_value_qsa", _result_circuit),
    ("qbs.bootstrap", "build_counter", "counter.build_counter", _result_circuit),
    ("qbs.bootstrap", "build_ripple_adder", "counter.build_ripple_adder", _result_circuit),
    ("qbs.bootstrap", "build_parallel_replication_circuit", "bootstrap.parallel_build", _result_circuit),
    ("qbs.bootstrap", "classical_bootstrap_oracle", "bootstrap.oracle", None),
    ("qbs.bootstrap", "make_rng", "rng.make_rng", None),
    ("qbs.bootstrap", "derive_seed", "rng.derive_seed", None),
    ("qbs.circuit:Circuit", "extend", "circuit.extend", _extend_fragment),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    call: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call: int | None = None  # id of the assess call being traced
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.call)
            self.spans.append(span)
            self._stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every entry point in TARGETS that exists; restore on exit."""
        originals = []
        try:
            for owner_name, attr, name, counts in TARGETS:
                owner = _resolve(owner_name)
                fn = getattr(owner, attr, None)
                if fn is None:
                    continue  # an entry point a later version removed reads as zero work
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, counts))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        covered = 0.0
        reach = span.start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metric units, in the order they are reported.
LAYER_UNITS = {
    "aqp.load_table_s": "s",
    "aqp.draw_sample_ms": "ms",
    "aqp.tuple_results_ms": "ms",
    "aqp.rows_per_s": "1/s",
    "aqp.stats_ms": "ms",
    "bootstrap.self_ms_per_rep": "ms",
    "bootstrap.replicate_share": "fraction",
    "bootstrap.oracle_ms": "ms",
    "bootstrap.parallel_build_ms": "ms",
    "qram.build_ms": "ms",
    "qram.gates": "count",
    "qram.qubits": "count",
    "counter.build_ms": "ms",
    "counter.gates": "count",
    "counter.qubits": "count",
    "circuit.extend_ms_per_rep": "ms",
    "circuit.gates_appended_per_rep": "count",
    "sim.simulate_calls_per_rep": "count",
    "sim.simulate_ms_per_rep": "ms",
    "sim.gates_per_rep": "count",
    "sim.amp_updates_per_rep": "count",
    "sim.amp_updates_per_s": "1/s",
    "sim.max_qubits": "count",
    "sim.state_mb": "MB",
    "sim.draw_calls_per_rep": "count",
    "sim.draw_ms_per_rep": "ms",
    "rng.seeds_per_rep": "count",
    "rng.ms_per_rep": "ms",
    "trace.overhead_frac": "fraction",
}


def layer_metrics(
    spans: list[Span], calls: dict[int, tuple[int, int, float]], overhead_frac: float
) -> dict[str, float]:
    """Per-layer figures from the spans of the traced calls.

    ``calls`` maps each traced call id to (sample size n, replications
    returned, wall seconds). Per-call figures divide by the number of traced
    calls, per-replication figures by the replications they returned.
    """
    selfs = self_times(spans)
    in_call = [(s, t) for s, t in zip(spans, selfs) if s.call in calls]
    ncalls = len(calls)
    reps = sum(b for _, b, _ in calls.values())
    wall = sum(w for _, _, w in calls.values())

    def of(*names):
        return [s for s, _ in in_call if s.name in names]

    def secs(*names):
        return sum(s.duration for s in of(*names))

    def mean_count(key, *names):
        found = of(*names)
        return _ratio(sum(s.counts[key] for s in found), len(found))

    tuple_spans = of("aqp.tuple_results")
    simulated = of("sim.simulate")
    amp_updates = sum(s.counts["gates"] * 2 ** s.counts["qubits"] for s in simulated)
    max_qubits = max((s.counts["qubits"] for s in simulated), default=0)
    qram = ("qram.build_qsa", "qram.build_value_qsa")
    totalers = ("counter.build_counter", "counter.build_ripple_adder")
    loads = [s.duration for s in spans if s.name == "aqp.load_table" and s.call is None]
    return {
        "aqp.load_table_s": median(loads) if loads else 0.0,
        "aqp.draw_sample_ms": 1e3 * _ratio(secs("aqp.draw_sample"), ncalls),
        "aqp.tuple_results_ms": 1e3 * _ratio(secs("aqp.tuple_results"), ncalls),
        "aqp.rows_per_s": _ratio(
            sum(calls[s.call][0] for s in tuple_spans), secs("aqp.tuple_results")
        ),
        "aqp.stats_ms": 1e3 * _ratio(
            secs("aqp.estimate", "aqp.bootstrap_se", "aqp.confidence_interval"), ncalls
        ),
        "bootstrap.self_ms_per_rep": 1e3 * _ratio(
            sum(t for s, t in in_call if s.name == "bootstrap.replicate"), reps
        ),
        "bootstrap.replicate_share": _ratio(secs("bootstrap.replicate"), wall),
        "bootstrap.oracle_ms": 1e3 * _ratio(secs("bootstrap.oracle"), ncalls),
        "bootstrap.parallel_build_ms": 1e3 * _ratio(secs("bootstrap.parallel_build"), ncalls),
        "qram.build_ms": 1e3 * _ratio(secs(*qram), ncalls),
        "qram.gates": mean_count("gates", *qram),
        "qram.qubits": mean_count("qubits", *qram),
        "counter.build_ms": 1e3 * _ratio(secs(*totalers), ncalls),
        "counter.gates": mean_count("gates", *totalers),
        "counter.qubits": mean_count("qubits", *totalers),
        "circuit.extend_ms_per_rep": 1e3 * _ratio(secs("circuit.extend"), reps),
        "circuit.gates_appended_per_rep": _ratio(
            sum(s.counts["gates"] for s in of("circuit.extend")), reps
        ),
        "sim.simulate_calls_per_rep": _ratio(len(simulated), reps),
        "sim.simulate_ms_per_rep": 1e3 * _ratio(secs("sim.simulate"), reps),
        "sim.gates_per_rep": _ratio(sum(s.counts["gates"] for s in simulated), reps),
        "sim.amp_updates_per_rep": _ratio(amp_updates, reps),
        "sim.amp_updates_per_s": _ratio(amp_updates, secs("sim.simulate")),
        "sim.max_qubits": float(max_qubits),
        "sim.state_mb": 16 * 2 ** max_qubits / 2**20 if simulated else 0.0,
        "sim.draw_calls_per_rep": _ratio(len(of("sim.draw_basis_index")), reps),
        "sim.draw_ms_per_rep": 1e3 * _ratio(secs("sim.draw_basis_index"), reps),
        "rng.seeds_per_rep": _ratio(len(of("rng.derive_seed")), reps),
        "rng.ms_per_rep": 1e3 * _ratio(secs("rng.derive_seed", "rng.make_rng"), reps),
        "trace.overhead_frac": overhead_frac,
    }
