"""Bootstrap replication engines.

A replication resamples the tuple results with replacement and totals
them. Three interchangeable engines produce the same distribution:

* ``quantum_sequential``: measure the resampler circuit once per draw, then
  total the measured bits with the counter circuit (values go through the
  ripple-carry adder instead). The totaler receives classical bits, so it
  runs on basis bits (``sim.run_basis_bits``), not on a statevector.
* ``quantum_parallel``: the paper's n resampler blocks feeding one
  counter, COUNT only. The counter permutes basis states, so measuring
  each block first gives the same distribution (deferred measurement):
  the counter totals all B replications' block draws at once, bit-sliced.
* ``classical_oracle``: plain seeded resampling, the reference the
  quantum engines are validated against.

Both quantum modes run one ``_QuantumEngine``, which simulates the
resampler once and keeps its cumulative outcome weights
(``sim.outcome_cdf``). Draw k of replication j is the first uniform of
generator ``derive_seed(derive_seed(seed, j), k)``, looked up in that table
(``sim.draw_basis_index``), so both modes give equal COUNT replications.
Sequential builds those generators one per draw; parallel computes all B*n
uniforms in one array pass (``rng.child_uniforms``), bit for bit the same.
All three engines hand their raw totals to ``_replication_set``, which
scales them into estimates with one division; a ``ReplicationSet`` holds
both as read-only arrays, int64 totals and float64 estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import register_value
from .counter import CounterSpec, build_counter, build_ripple_adder
from .errors import QbsError
from .qram import BitDataArray, ValueDataArray, build_qsa, build_value_qsa
from .rng import child_seeds, child_uniforms, derive_seed, fresh_seed, make_rng
from .sim import draw_basis_index, outcome_cdf, run_basis, run_basis_bits, simulate

MODE_SEQUENTIAL = "quantum_sequential"
MODE_PARALLEL = "quantum_parallel"
MODE_ORACLE = "classical_oracle"
MODES = (MODE_SEQUENTIAL, MODE_PARALLEL, MODE_ORACLE)

AGGREGATES = ("COUNT", "SUM", "AVG")


@dataclass(frozen=True)
class SampleResults:
    """Per-tuple query results for a drawn sample.

    ``values`` holds one result per sampled row: 0/1 predicate outcomes for
    COUNT, non-negative integers for SUM and AVG. ``match_count`` is the
    number of rows satisfying the predicate (needed by the AVG estimator,
    where a matching row may still contribute a zero value).
    """

    values: tuple[int, ...]
    population_size: int
    aggregate: str = "COUNT"
    match_count: int | None = None

    def __post_init__(self):
        coerced = []
        for v in self.values:
            as_int = int(v)
            if as_int != v:
                raise ValueError(f"tuple results must be integers, got {v!r}")
            coerced.append(as_int)
        object.__setattr__(self, "values", tuple(coerced))
        if self.aggregate not in AGGREGATES:
            raise ValueError(f"aggregate must be one of {AGGREGATES}")
        if not self.values:
            raise ValueError("sample must contain at least one tuple result")
        if self.population_size < len(self.values):
            raise ValueError(
                f"population size {self.population_size} smaller than sample "
                f"size {len(self.values)}"
            )
        if self.aggregate == "COUNT":
            if any(v not in (0, 1) for v in self.values):
                raise ValueError("COUNT tuple results must be 0 or 1")
        elif any(v < 0 for v in self.values):
            raise ValueError("SUM/AVG tuple results must be non-negative")
        elif self.n * max(self.values) >= 2**63:
            raise ValueError("SUM/AVG resample totals, up to n * max value, overflow int64")
        if self.match_count is not None and not 0 <= self.match_count <= len(self.values):
            raise ValueError(f"match_count {self.match_count} outside 0..{len(self.values)}")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def f(self) -> float:
        """Sampling fraction n/N."""
        return self.n / self.population_size


@dataclass(frozen=True, eq=False)
class ReplicationSet:
    """B replications: int64 totals ``raw`` and float64 estimates ``scaled``, read-only."""

    raw: np.ndarray
    scaled: np.ndarray
    mode: str
    seed: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not len(self.raw):
            raise ValueError("a replication set cannot be empty")
        self.raw.setflags(write=False)
        self.scaled.setflags(write=False)

    @property
    def B(self) -> int:
        return len(self.raw)

    def raw_counts(self) -> np.ndarray:
        return self.raw

    def estimates(self) -> np.ndarray:
        return self.scaled


def _replication_set(
    sample: SampleResults, raws: np.ndarray | list[int], mode: str, seed: int
) -> ReplicationSet:
    """Scale the raw resample totals into estimates with one division."""
    raws = np.asarray(raws, dtype=np.int64)
    # AVG divides the total by n; COUNT and SUM scale it up by 1/f
    divisor = sample.n if sample.aggregate == "AVG" else sample.f
    return ReplicationSet(raws, raws / divisor, mode, seed)


def _require_power_of_two(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(
            f"quantum engines need a power-of-two sample size, got {n}"
        )
    return n.bit_length() - 1


class _QuantumEngine:
    """Precomputed circuits for repeated quantum replications.

    The resampler statevector is fixed across runs, so it is simulated once
    and each run only draws fresh measurements from it. The drawn values
    are classical, so the totaler runs on their basis bits.
    """

    def __init__(self, sample: SampleResults):
        self.sample = sample
        self.n = sample.n
        _require_power_of_two(self.n)
        if sample.aggregate == "COUNT":
            qsa = build_qsa(BitDataArray(sample.values))
            self.totaler = build_counter(CounterSpec.for_controls(self.n))
            self.acc_width = None
        else:
            width = max(1, max(sample.values).bit_length())
            array = ValueDataArray(sample.values, width)
            qsa = build_value_qsa(array)
            # width + log2(n) bits always hold the full resample total
            self.acc_width = width + _require_power_of_two(self.n)
            self.totaler = build_ripple_adder(self.acc_width)
        self.data_register = qsa.register("data")
        self.qsa_cdf = outcome_cdf(simulate(qsa))

    def _draw_results(self, seed: int) -> list[int]:
        # one generator per draw: child_uniforms(seed, n) has a fixed cost
        # above that of the n scalar draws of one replication at small n
        uniforms = np.array(
            [make_rng(derive_seed(seed, k)).random() for k in range(self.n)]
        )
        indices = draw_basis_index(self.qsa_cdf, uniforms)
        return register_value(indices, self.data_register).tolist()

    def _total_bits(self, bits: list) -> int | np.ndarray:
        """Counter total of the n drawn bits: ints, or int arrays for a batch."""
        counter = self.totaler.register("counter")
        out = run_basis_bits(self.totaler, bits + [0] * len(counter))
        return sum(out[qubit] << k for k, qubit in enumerate(counter))

    def _add_on_basis(self, addend: int, acc: int) -> int:
        index = run_basis(self.totaler, addend | acc << self.acc_width)
        if register_value(index, self.totaler.register("carry_out")):
            raise QbsError("accumulator overflow; widths were sized wrong")
        return register_value(index, self.totaler.register("b"))

    def run(self, seed: int) -> int:
        """One replication's raw resample total."""
        drawn = self._draw_results(seed)
        if self.sample.aggregate == "COUNT":
            return self._total_bits(drawn)
        raw = 0
        for value in drawn:
            raw = self._add_on_basis(value, raw)
        return raw

    def run_all(self, seed: int, B: int) -> np.ndarray:
        """B COUNT replications, each equal to ``run(derive_seed(seed, j))``."""
        uniforms = child_uniforms(child_seeds(seed, B), self.n)
        drawn = register_value(draw_basis_index(self.qsa_cdf, uniforms), self.data_register)
        return self._total_bits(list(drawn.T))


def replicate(
    sample: SampleResults,
    B: int,
    mode: str = MODE_SEQUENTIAL,
    seed: int | None = None,
) -> ReplicationSet:
    """B independent replications with seeds derived from the master seed."""
    if B < 2:
        raise ValueError(f"need B >= 2 replications, got {B}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if seed is None:
        seed = fresh_seed()
    if mode == MODE_ORACLE:
        return classical_bootstrap_oracle(sample, B, seed)
    if mode == MODE_PARALLEL and sample.aggregate != "COUNT":
        raise ValueError("the parallel engine supports COUNT samples only")
    engine = _QuantumEngine(sample)
    if mode == MODE_SEQUENTIAL:
        raws = [engine.run(derive_seed(seed, j)) for j in range(B)]
    else:
        raws = engine.run_all(seed, B)
    return _replication_set(sample, raws, mode, seed)


def classical_bootstrap_oracle(
    sample: SampleResults, B: int, seed: int | None = None
) -> ReplicationSet:
    """Reference engine: seeded resampling with replacement, summed classically."""
    if B < 2:
        raise ValueError(f"need B >= 2 replications, got {B}")
    if seed is None:
        seed = fresh_seed()
    rng = make_rng(seed)
    values = np.asarray(sample.values, dtype=np.int64)
    picks = rng.integers(0, sample.n, size=(B, sample.n))
    raws = values[picks].sum(axis=1)
    return _replication_set(sample, raws, MODE_ORACLE, seed)
