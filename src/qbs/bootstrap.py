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
  quantum engines are validated against. It draws and totals its
  resamples ``max(1, _DRAW_BLOCK // n)`` whole replications at a time, so
  its memory does not grow with B*n.

Both quantum modes therefore run one streaming pass, ``_quantum_raws``.
The lookup only permutes basis states, so a measurement of the resampler
is a uniform address with the data it reads. One walk over the lookup's
gate pairs (``qram.lookup_gates``) gives the n equally likely outcomes:
the X sandwich's mask names the one address each MCX fires on. No
statevector and no basis run is needed. Draws are i.i.d. shots, so one
generator, ``make_rng(seed)``, serves the call: draw k of replication j
reads outcome ``floor(u*n)`` for uniform u = ``j*n + k`` of its stream,
taken straight from the top log2(n) bits of the raw PCG64 word behind u.
The draws come in blocks of whole bytes' worth of replications, and each
block is packed into every value plane as it is drawn, so no (B, n) array
exists. Bit k of drawn column c, for all B replications, is one B-bit
Python int, bit j for replication j, and ``_ripple_add`` adds the columns
into one accumulator. That is the net effect of the ripple adder
(``counter.adder_gates``) on basis states, and for a 1-bit COUNT column
that of the counter (``counter.counter_gates``), whose register it is.
All three engines hand their raw totals to ``_replication_set``, which
scales them into estimates with one division; a ``ReplicationSet`` holds
both as read-only arrays, int64 totals and float64 estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QbsError
from .qram import ValueDataArray, lookup_gates
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

# bit g of a packed byte is its replication 8i+g
_BYTE_WEIGHTS = (1 << np.arange(8, dtype=np.uint8))[:, None]


def _unpack(words: list[int], B: int) -> np.ndarray:
    """The B totals whose bit k is, in replication j, bit j of ``words[k]``."""
    size = (B + 7) // 8
    packed = np.frombuffer(b"".join(word.to_bytes(size, "little") for word in words), np.uint8)
    bits = np.unpackbits(packed.reshape(len(words), size), axis=1, count=B, bitorder="little")
    totals = bits.astype(np.int64)
    totals <<= np.arange(len(words))[:, None]
    return totals.sum(axis=0)


def _outcome_table(data: ValueDataArray) -> np.ndarray:
    """The data of the resampler's n equally likely outcomes, in basis-index order.

    One walk over the lookup's pairs: an X on address qubit q toggles bit q
    of the sandwich mask, and an MCX on all address qubits flips data bit
    ``target - a`` at the one address it fires on, ``(n-1) ^ mask``. Any
    other pair, or a mask left set at the end, raises ``QbsError``.
    Outcome ``address + (data << a)`` holds the data above the address, so
    the values ascend; they take the smallest unsigned dtype.
    """
    n, a = len(data.values), data.address_width
    address_qubits, top = tuple(range(a)), a + data.width
    found = [0] * n
    mask = 0
    for controls, target in lookup_gates(data):
        if not controls and target < a:
            mask ^= 1 << target
        elif controls == address_qubits and a <= target < top:
            found[(n - 1) ^ mask] ^= 1 << (target - a)
        else:
            raise QbsError(f"lookup pair {controls} -> {target} is no sandwich X or address MCX")
    if mask:
        raise QbsError("lookup leaves its address X gates unpaired")
    found.sort()
    return np.array(found, dtype=np.min_scalar_type(found[-1]))


def _ripple_add(acc: list[int], operand) -> None:
    """Add the operand words into the accumulator words in place, bit-sliced.

    Word k holds bit k of every batch state: sum bit ``a ^ b ^ carry``,
    carry ``maj(a, b, carry)``, stopping once the operand is spent and the
    carry is 0. A carry out of the accumulator raises ``QbsError``.
    """
    carry = 0
    for k, a in enumerate(acc):
        if k >= len(operand) and not carry:
            return
        b = operand[k] if k < len(operand) else 0
        acc[k] = a ^ b ^ carry
        carry = a & b | carry & (a ^ b)
    if carry:
        raise QbsError("accumulator overflow; widths were sized wrong")


def _quantum_raws(sample: SampleResults, B: int, seed: int) -> np.ndarray:
    """Raw totals of B quantum replications, drawn and packed block by block, then totaled.

    Draw k of replication j reads ``table[floor(u*n)]``, u being uniform
    ``j*n + k`` of ``make_rng(seed)``. Each block of whole bytes' worth of
    replications is packed into every value plane as it is drawn; the last
    block is padded to a whole byte with draws past replication B, whose
    totals ``_unpack`` drops.
    """
    n = sample.n
    log_n = _require_power_of_two(n)
    width = max(1, max(sample.values).bit_length())
    table = _outcome_table(ValueDataArray(sample.values, width))
    size = (B + 7) // 8
    # planes[k, i, c]: byte i of the word holding bit k of drawn column c
    planes = np.empty((width, size, n), np.uint8)
    step = max(1, _DRAW_BLOCK // n // 8)
    generator = make_rng(seed).bit_generator
    for i in range(0, size, step):
        count = min(step, size - i)
        # random() turns raw word r into u = (r >> 11) / 2^53, so for n = 2^a
        # floor(u*n) is exactly r >> (64 - a), 0 when a = 0; a sample size
        # that is no power of two would need u*n in floating point again
        picks = generator.random_raw((8 * count, n))
        picks >>= 64 - log_n
        drawn = table[picks.view(np.int64)].reshape(count, 8, n)
        bits = np.empty(drawn.shape, np.uint8)
        for k in range(width):
            np.bitwise_and(drawn >> k, 1, out=bits, casting="unsafe")
            bits *= _BYTE_WEIGHTS
            np.add.reduce(bits, axis=1, dtype=np.uint8, out=planes[k, i:i + count])
    # column c's width words of size bytes each, one after the other
    words = planes.transpose(2, 0, 1).tobytes()
    del planes
    # width + log2(n) bits always hold the full resample total
    acc = [0] * (width + log_n)
    column = width * size
    for c in range(0, n * column, column):
        _ripple_add(acc, [int.from_bytes(words[o:o + size], "little")
                          for o in range(c, c + column, size)])
    return _unpack(acc, B)


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
    rows = max(1, _DRAW_BLOCK // n)
    raws = np.empty(B, dtype=np.int64)
    # the generator fills its integers row-major, so the blocks consume the
    # stream one (B, n) call would, and the replications are the same
    for j in range(0, B, rows):
        picks = rng.integers(0, n, size=(min(rows, B - j), n))
        values[picks].sum(axis=1, out=raws[j:j + rows])
    return _replication_set(sample, raws, MODE_ORACLE, seed)
