"""Workload definitions and the seeded table generator.

Every workload runs against one generated table: 200 000 rows with columns
``id`` (int), ``flag`` (0/1), ``region`` (one of four strings) and ``val``
(an int in 16..31, so the value width is always 5 bits). All calls use the
predicate ``flag = 1 AND region != "west"`` (about 37.5 % of rows) and
alpha = 0.05. The table and the per-call master seeds follow from the
workload seed alone; the program only ever sees the CSV, the query and the
arguments of ``assess``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_ROWS = 200_000
REGIONS = ("north", "south", "east", "west")
VAL_RANGE = (16, 32)  # half-open; keeps every value at exactly 5 bits
ALPHA = 0.05
CONDITIONS = (
    {"column": "flag", "op": "=", "value": 1},
    {"column": "region", "op": "!=", "value": "west"},
)

# Seed 1 was used while the benchmark was written and tuned. Seed 2 was never
# run then: re-check a claimed gain on it before accepting the claim.
HOLDOUT_SEED = 2

# Fixed master seeds for the coverage probe. They do not depend on the
# workload seed or on run length, so the probe repeats exactly for a given
# table and program.
COVERAGE_SEEDS = tuple(range(100))
# Sample sizes tried by the max_count_n probe, with its fixed master seed.
COUNT_PROBE_SIZES = (4, 8, 16, 32, 64)
COUNT_PROBE_SEED = 7

# Stream keys under the workload seed: one for the table, one for call seeds.
_TABLE_STREAM = 0
_CALL_STREAM = 1


@dataclass(frozen=True)
class Workload:
    name: str
    aggregates: tuple[str, ...]  # cycled call by call
    mode: str
    n: int
    B: int
    # Wall time of one cycle through ``aggregates`` on the reference VM
    # (2 vCPU x86_64, Python 3.11, numpy 2.4), from the seed-1 baseline.
    cycle_s: float

    def calls(self, seconds: float) -> int:
        """Distinct calls in a run: the whole cycles that take about ``seconds``
        on the reference VM, at least one.

        The number depends on ``seconds`` alone, not on a clock, so for a
        given seed and program every run attempts the same calls.
        """
        return len(self.aggregates) * max(1, round(seconds / self.cycle_s))


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload is there is recorded in BENCHMARK.json.
        Workload("count_seq", ("COUNT",), "quantum_sequential", 16, 16, 7.1),
        Workload("value_seq", ("SUM", "AVG"), "quantum_sequential", 8, 16, 12.9),
        Workload("count_parallel", ("COUNT",), "quantum_parallel", 4, 1000, 0.426),
        Workload("oracle_scan", ("COUNT", "SUM", "AVG"), "classical_oracle", 4096, 1000, 0.213),
    )
}


def query_payload(aggregate: str) -> dict:
    """JSON form of the workload query for one aggregate."""
    payload = {"aggregate": aggregate, "conditions": [dict(c) for c in CONDITIONS]}
    if aggregate != "COUNT":
        payload["target_column"] = "val"
    return payload


def generate_columns(seed: int) -> dict[str, np.ndarray]:
    """Column arrays of the workload table; the same seed gives the same table."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(_TABLE_STREAM,)))
    )
    return {
        "id": np.arange(N_ROWS, dtype=np.int64),
        "flag": rng.integers(0, 2, N_ROWS),
        "region": rng.integers(0, len(REGIONS), N_ROWS),
        "val": rng.integers(*VAL_RANGE, N_ROWS),
    }


def write_table(columns: dict[str, np.ndarray], path: Path) -> None:
    """Write the table as CSV with a header row."""
    lines = ["id,flag,region,val\n"]
    lines.extend(
        f"{i},{f},{REGIONS[r]},{v}\n"
        for i, f, r, v in zip(
            columns["id"].tolist(),
            columns["flag"].tolist(),
            columns["region"].tolist(),
            columns["val"].tolist(),
        )
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


def true_answers(columns: dict[str, np.ndarray]) -> dict[str, float]:
    """COUNT, SUM and AVG of ``val`` under the workload predicate, over the full table."""
    match = (columns["flag"] == 1) & (columns["region"] != REGIONS.index("west"))
    count = int(match.sum())
    total = int(columns["val"][match].sum())
    return {"COUNT": float(count), "SUM": float(total), "AVG": total / count}


def call_seed(workload_seed: int, k: int) -> int:
    """Master seed of the k-th timed call."""
    seq = np.random.SeedSequence(workload_seed, spawn_key=(_CALL_STREAM, k))
    return int(seq.generate_state(1, np.uint64)[0])
