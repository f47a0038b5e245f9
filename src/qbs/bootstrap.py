"""Bootstrap replication engines.

A replication resamples the tuple results with replacement and totals
them. Three interchangeable engines produce the same distribution:

* ``quantum_sequential``: measure the resampler circuit once per draw, then
  total the measured bits with the counter circuit (values go through the
  ripple-carry adder instead).
* ``quantum_parallel``: the paper's n resampler blocks feeding one
  counter, COUNT only. The counter permutes basis states, so measuring
  each block first gives the same distribution (deferred measurement).
* ``classical_oracle``: plain seeded resampling, the reference the
  quantum engines are validated against.

Both quantum modes therefore run one pass, ``_quantum_raws``. The lookup
only permutes basis states, so a measurement of the resampler is a
uniform basis index, an address with the data it reads. Its outcome
``address + (data << log2 n)`` holds the data above the address, so in
basis-index order the n equally likely outcomes read the sample's values
ascending: ``np.sort(values)`` is the outcome table. No statevector and no
basis run is needed. Draws are i.i.d. shots, so one generator,
``make_rng(seed)``, serves the call: draw k of replication j reads
outcome ``floor(u*n)`` for uniform u = ``j*n + k`` of its stream, taken
straight from the top log2(n) bits of the raw PCG64 word behind u. The
counter and the ripple adder (``counter.counter_gates``,
``counter.adder_gates``) only add what was measured, so a replication's
total is the integer sum of its drawn values.

All three engines draw and total in ``_blocked_totals``, ``max(1,
_DRAW_BLOCK // n)`` whole replications at a time, so their memory does not
grow with B*n; the oracle differs only in drawing ``rng.integers(0, n)``
over the unsorted values. Their raw totals go to ``_replication_set``,
which scales them into estimates with one division; a ``ReplicationSet``
holds both as read-only arrays, int64 totals and float64 estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import fresh_seed, make_rng

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
        values = tuple(self.values)
        coerced = tuple(map(int, values))
        if coerced != values:
            bad = next(v for v, c in zip(values, coerced) if v != c)
            raise ValueError(f"tuple results must be integers, got {bad!r}")
        object.__setattr__(self, "values", coerced)
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
            if not set(coerced) <= {0, 1}:
                raise ValueError("COUNT tuple results must be 0 or 1")
        elif min(coerced) < 0:
            raise ValueError("SUM/AVG tuple results must be non-negative")
        elif self.n * max(coerced) >= 2**63:
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
    sample: SampleResults, raws: np.ndarray, mode: str, seed: int
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


# draws per block, whose temporaries grow with the block
_DRAW_BLOCK = 2**18


def _blocked_totals(table: np.ndarray, B: int, draw) -> np.ndarray:
    """Raw totals of B replications, drawn and totaled block by block.

    ``draw(shape)`` returns the next ``shape`` indices into ``table`` from
    one generator, which fills them row-major; replication j totals row j.
    Blocks of ``max(1, _DRAW_BLOCK // n)`` rows consume the stream one
    (B, n) draw would, so no (B, n) array exists and the totals are the same.
    """
    n = len(table)
    rows = max(1, _DRAW_BLOCK // n)
    raws = np.empty(B, dtype=np.int64)
    for j in range(0, B, rows):
        # picks outlives the gather: freeing both blocks at once lets malloc
        # return them to the OS, and each block then faults its pages afresh
        picks = draw((min(rows, B - j), n))
        table[picks].sum(axis=1, out=raws[j:j + rows])
    return raws


def _quantum_raws(sample: SampleResults, B: int, seed: int) -> np.ndarray:
    """Raw totals of B quantum replications.

    Draw k of replication j reads ``table[floor(u*n)]``, u being uniform
    ``j*n + k`` of ``make_rng(seed)``.
    """
    log_n = _require_power_of_two(sample.n)
    generator = make_rng(seed).bit_generator

    def draw(shape):
        # random() turns raw word r into u = (r >> 11) / 2^53, so for n = 2^a
        # floor(u*n) is exactly r >> (64 - a), 0 when a = 0; a sample size
        # that is no power of two would need u*n in floating point again
        picks = generator.random_raw(shape)
        picks >>= 64 - log_n
        return picks.view(np.int64)

    # the resampler's n outcomes, in basis-index order, hold the values ascending
    table = np.sort(np.asarray(sample.values, dtype=np.int64))
    return _blocked_totals(table, B, draw)


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
    return _replication_set(sample, _quantum_raws(sample, B, seed), mode, seed)


def classical_bootstrap_oracle(
    sample: SampleResults, B: int, seed: int | None = None
) -> ReplicationSet:
    """Reference engine: seeded resampling with replacement, summed classically.

    Replication j totals ``values[picks[j]]``, ``picks`` being the (B, n)
    integers below n of ``make_rng(seed)``. They are drawn and totaled
    ``max(1, _DRAW_BLOCK // n)`` rows at a time.
    """
    if B < 2:
        raise ValueError(f"need B >= 2 replications, got {B}")
    if seed is None:
        seed = fresh_seed()
    n = sample.n
    rng = make_rng(seed)
    values = np.asarray(sample.values, dtype=np.int64)
    raws = _blocked_totals(values, B, lambda shape: rng.integers(0, n, size=shape))
    return _replication_set(sample, raws, MODE_ORACLE, seed)
