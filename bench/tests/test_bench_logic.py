"""Tests of the benchmark's own logic: output checks, generator, spans.

Run with: python3 -m pytest bench/tests
"""

import json
from pathlib import Path
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import harness
import spans
import workloads
from qbs import aqp
from qbs.bootstrap import SampleResults, classical_bootstrap_oracle
from qbs.circuit import Circuit


def _oracle_call(aggregate="COUNT", B=400):
    values = [1, 0, 0, 1, 1, 0, 1, 0] if aggregate == "COUNT" else [17, 0, 20, 31, 0, 16, 24, 0]
    sample = SampleResults(tuple(values), 1000, aggregate, match_count=5)
    estimates = classical_bootstrap_oracle(sample, B, seed=3).estimates()
    point = checks.expected_point(sample)
    se = float(np.std(estimates, ddof=1))
    z = NormalDist().inv_cdf(0.95)
    report = SimpleNamespace(
        point_estimate=point, se_b=se, alpha=0.05, ci_lower=point - z * se, ci_upper=point + z * se
    )
    return sample, report, estimates


@pytest.mark.parametrize("aggregate", ["COUNT", "SUM"])
def test_checker_accepts_oracle_set(aggregate):
    sample, report, estimates = _oracle_call(aggregate)
    assert checks.check_call(sample, report, estimates, 400) == []


def test_checker_rejects_shifted_mean():
    sample, report, estimates = _oracle_call()
    shifted = estimates + 0.5 * report.se_b
    assert "off_centre" in checks.check_call(sample, report, shifted, 400)


def test_checker_rejects_estimate_out_of_range():
    sample, report, estimates = _oracle_call()
    _, hi = checks.reachable_range("COUNT", sample.values, sample.f)
    bad = estimates.copy()
    bad[0] = hi + 1.0 / sample.f
    assert checks.check_call(sample, report, bad, 400) == ["out_of_range"]


def test_checker_rejects_wrong_B():
    sample, report, estimates = _oracle_call()
    assert "wrong_B" in checks.check_call(sample, report, estimates[:-1], 400)


def test_checker_rejects_interval_and_se():
    sample, report, estimates = _oracle_call()
    report.ci_upper += report.se_b
    assert checks.check_call(sample, report, estimates, 400) == ["interval_mismatch"]
    report.se_b = float("nan")
    assert "se_invalid" in checks.check_call(sample, report, estimates, 400)


def test_generator_is_byte_identical_per_seed(tmp_path):
    first, second, other = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    workloads.write_table(workloads.generate_columns(5), first)
    workloads.write_table(workloads.generate_columns(5), second)
    workloads.write_table(workloads.generate_columns(6), other)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != other.read_bytes()
    assert workloads.call_seed(5, 3) == workloads.call_seed(5, 3) != workloads.call_seed(6, 3)


def test_generated_table_shape():
    columns = workloads.generate_columns(1)
    assert set(np.unique(columns["val"])) <= set(range(16, 32))
    truth = workloads.true_answers(columns)
    assert 0.36 < truth["COUNT"] / workloads.N_ROWS < 0.39
    assert truth["AVG"] == pytest.approx(truth["SUM"] / truth["COUNT"])


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_on_synthetic_tree():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 1.5, 2.0, 1),
        _span("b", 5.0, 6.0, 0),
        _span("b.overlap", 5.5, 6.5, 3),  # runs past its parent: only 0.5 counts
        _span("leaf", 8.0, 8.0, 0),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.5, 0.5, 0.5, 1.0, 0.0])


def test_tracer_records_layers_and_restores_entry_points():
    table = aqp.TableData(("flag", "val"), tuple((i % 2, 16 + i % 16) for i in range(64)))
    query = aqp.parse_query({"aggregate": "COUNT", "conditions": [{"column": "flag", "op": "=", "value": 1}]})
    original = (aqp.replicate, Circuit.extend)
    tracer = spans.Tracer()
    tracer.call = 0
    with tracer.installed():
        report, reps = aqp.assess_with_replications(table, query, 4, 3, 0.05, "quantum_sequential", 9)
    assert (aqp.replicate, Circuit.extend) == original
    names = {s.name for s in tracer.spans}
    assert {"bootstrap.replicate", "sim.simulate", "qram.build_qsa", "counter.build_counter",
            "circuit.extend", "rng.derive_seed"} <= names
    metrics = spans.layer_metrics(tracer.spans, {0: (4, reps.B, 1.0)}, 0.0)
    assert list(metrics) == list(spans.LAYER_UNITS)
    assert metrics["sim.max_qubits"] == 7  # 4 controls + 3 counter qubits
    assert metrics["rng.seeds_per_rep"] == pytest.approx(4 + 1 + 1)  # n draws, totaling, replication


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS


def test_calls_per_run_are_whole_cycles_fixed_by_seconds():
    for wl in workloads.WORKLOADS.values():
        for seconds in (0.5, 10, 24, 60):
            calls = wl.calls(seconds)
            assert calls >= len(wl.aggregates) and calls % len(wl.aggregates) == 0
            assert calls == wl.calls(seconds)
    assert workloads.WORKLOADS["value_seq"].calls(22) == 4  # two SUM, two AVG
    assert workloads.WORKLOADS["count_seq"].calls(22) == 3
