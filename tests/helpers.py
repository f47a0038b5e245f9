"""Independent oracles the tests check the package against.

Everything here recomputes expected behavior through a different route
than the implementation: dense matrices and index permutations instead of
axis slicing, ``math.comb`` instead of sampling, direct array lookups,
a trivial row interpreter for predicates, the paper's full-width
parallel circuit that the parallel engine samples block by block, a
walk over the lookup's gate pairs for the resampler's outcomes, and
quantum replications drawn one scalar uniform at a time from the
resampler's statevector and summed as ints.
"""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np
from hypothesis import strategies as st

from qbs.bootstrap import SampleResults
from qbs.circuit import Circuit, GateKind
from qbs.counter import CounterSpec, build_counter
from qbs.errors import QbsError
from qbs.qram import BitDataArray, ValueDataArray, build_qsa, build_value_qsa, lookup_gates
from qbs.rng import make_rng
from qbs.sim import simulate

_ID2 = np.eye(2, dtype=complex)
_H2 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def oracle_statevector(circuit: Circuit) -> np.ndarray:
    """Statevector from |0..0> via dense kron products and index permutations."""
    n = circuit.num_qubits
    dim = 1 << n
    state = np.zeros(dim, dtype=complex)
    state[0] = 1.0
    indices = np.arange(dim)
    for gate in circuit.gates:
        if gate.kind is GateKind.H:
            mats = [_ID2] * n
            mats[gate.target] = _H2
            # qubit 0 is the least significant bit, so it sits rightmost in the chain
            full = reduce(np.kron, reversed(mats))
            state = full @ state
        else:
            mask = 0
            for c in gate.controls:
                mask |= 1 << c
            flipped = np.where(
                (indices & mask) == mask, indices ^ (1 << gate.target), indices
            )
            permuted = np.empty_like(state)
            permuted[flipped] = state
            state = permuted
    return state


def binom_pmf(k: int, n: int, p: float) -> float:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def binom_pmf_vector(n: int, p: float) -> np.ndarray:
    return np.array([binom_pmf(k, n, p) for k in range(n + 1)])


def popcount(x: int) -> int:
    return bin(x).count("1")


_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def interpret_row(columns, row, conditions) -> bool:
    """Reference predicate interpreter: plain operator lookups per condition."""
    lookup = dict(zip(columns, row))
    return all(_OPS[c.op](lookup[c.column], c.value) for c in conditions)


def stdev_by_hand(values) -> float:
    """Direct evaluation of the B-1 standard deviation formula."""
    values = list(values)
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def value_arrays(max_address_width: int, max_width: int):
    """Strategy: value arrays of 2^0..2^max_address_width cells, 1..max_width bits each."""
    return st.integers(0, max_address_width).flatmap(
        lambda a: st.integers(1, max_width).flatmap(
            lambda w: st.lists(
                st.integers(0, (1 << w) - 1), min_size=1 << a, max_size=1 << a
            ).map(lambda values: ValueDataArray(tuple(values), w))
        )
    )


def basis_prep(num_qubits: int, pattern: int) -> Circuit:
    """Circuit loading a basis pattern via X gates, bit k onto qubit k."""
    prep = Circuit(num_qubits)
    for q in range(num_qubits):
        if (pattern >> q) & 1:
            prep.x(q)
    return prep


def build_parallel_replication_circuit(sample: SampleResults) -> Circuit:
    """The paper's parallel layout: n resampler blocks feeding one counter.

    Block k holds address qubits then one data qubit; the data qubits are
    the counter's controls. It needs n*(log2(n)+1) + counter qubits, so it
    can be simulated only for n <= 4.
    """
    n = sample.n
    a = n.bit_length() - 1
    spec = CounterSpec.for_controls(n)
    block = a + 1
    total = n * block + spec.q
    registers: dict[str, range] = {}
    for k in range(n):
        if a:
            registers[f"address{k}"] = range(k * block, k * block + a)
        registers[f"data{k}"] = range(k * block + a, (k + 1) * block)
    registers["counter"] = range(n * block, total)
    circuit = Circuit(total, registers=registers)
    qsa = build_qsa(BitDataArray(sample.values))
    for k in range(n):
        circuit.extend(qsa, range(k * block, (k + 1) * block))
    data_qubits = [k * block + a for k in range(n)]
    circuit.extend(build_counter(spec), data_qubits + list(range(n * block, total)))
    return circuit


def outcome_table(data: ValueDataArray) -> list[int]:
    """The data of the resampler's n equally likely outcomes, in basis-index order.

    One walk over the lookup's pairs: an X on address qubit q toggles bit q
    of the sandwich mask, and an MCX on all address qubits flips data bit
    ``target - a`` at the one address it fires on, ``(n-1) ^ mask``. Any
    other pair, or a mask left set at the end, raises ``QbsError``. Outcome
    ``address + (data << a)`` holds the data above the address, so in
    basis-index order the data ascend; the table holds the data alone.
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
    return sorted(found)


def reference_raws(sample: SampleResults, seed: int, replications) -> list[int]:
    """Raw totals of the given quantum replications, computed draw by draw.

    The resampler's statevector gives its outcomes: the basis indices of
    nonzero weight, in order. One generator, ``make_rng(seed)``, yields
    scalar uniforms in replication-major order: draw k of replication j
    is uniform ``j*n + k``, and uniform u measures outcome ``int(u * n)``.
    The drawn values sum as Python ints.
    """
    if sample.aggregate == "COUNT":
        qsa = build_qsa(BitDataArray(sample.values))
    else:
        width = max(1, max(sample.values).bit_length())
        qsa = build_value_qsa(ValueDataArray(sample.values, width))
    support = np.flatnonzero(simulate(qsa).probabilities()).tolist()
    data = qsa.register("data")
    mask = (1 << len(data)) - 1
    n = sample.n
    rng = make_rng(seed)
    totals = []
    for _ in range(max(replications) + 1):
        indices = [support[int(rng.random() * n)] for _ in range(n)]
        totals.append(sum(index >> data.start & mask for index in indices))
    return [totals[j] for j in replications]
