"""Exact statevector simulation with shot-based measurement sampling, and
basis-index evaluation of reversible circuits. The replication engines run
only the latter; ``qbs qram-test`` and the tests simulate statevectors.

Gates act in place on a ``(2,)*n`` view of the amplitude array; axis k of
that view holds qubit ``n-1-k`` (qubit 0 is the least significant bit of
the basis index). Controlled NOTs swap the two target slices inside the
all-controls-on subspace, so no gate matrix is ever expanded.

A circuit of X/CX/CCX/MCX gates maps each basis state to one basis state,
so it runs on basis bits with no statevector. ``run_basis_bits`` runs
``(controls, target)`` pairs on packed words: bit j of word q is qubit q of
batch state j, so one pass evaluates a whole batch (Biham's bit-slicing).
The engines run no pairs: they read the resampler's outcome table off
the sorted sample values and add integers. Batch runs of the lookup's
(``qram.lookup_gates``), the counter's and the adder's pairs
(``counter.counter_gates``, ``counter.adder_gates``) check them in the
tests. ``basis_gates``
reduces a built circuit to the same pairs, and ``run_basis`` runs one on a
single basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateKind, GateOp, bitstring_of
from .errors import CapacityError, QbsError
from .rng import fresh_seed, make_rng

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# 2^26 complex128 amplitudes is about 1 GiB; anything above is a config error.
HARD_QUBIT_CAP = 26

# Unitary gates cannot drift the norm beyond rounding; larger drift means a bug.
NORM_DRIFT_LIMIT = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the 2^n computational basis states."""

    amplitudes: np.ndarray
    num_qubits: int

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class CountsTable:
    """Measured bitstrings and their occurrence counts over repeated shots."""

    shots: int
    entries: dict[str, int]
    num_qubits: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        total = 0
        for bits, count in self.entries.items():
            if len(bits) != self.num_qubits or set(bits) - {"0", "1"}:
                raise ValueError(f"bad bitstring key {bits!r}")
            if count < 0:
                raise ValueError(f"negative count for {bits!r}")
            total += count
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")

    def count(self, bits: str) -> int:
        return self.entries.get(bits, 0)


def apply_gate(state: np.ndarray, gate: GateOp, num_qubits: int) -> None:
    """Apply one gate in place to a length-2^n amplitude array."""
    tensor = state.reshape((2,) * num_qubits)

    def axis(qubit: int) -> int:
        return num_qubits - 1 - qubit

    if gate.kind is GateKind.H:
        view = np.moveaxis(tensor, axis(gate.target), 0)
        lo = view[0].copy()
        hi = view[1].copy()
        view[0] = (lo + hi) * _INV_SQRT2
        view[1] = (lo - hi) * _INV_SQRT2
        return

    # X / CX / CCX / MCX: swap target slices where every control is 1
    index_on: list = [slice(None)] * num_qubits
    for control in gate.controls:
        index_on[axis(control)] = 1
    index_off = list(index_on)
    index_on[axis(gate.target)] = 1
    index_off[axis(gate.target)] = 0
    on, off = tuple(index_on), tuple(index_off)
    swapped = tensor[off].copy()
    tensor[off] = tensor[on]
    tensor[on] = swapped


def simulate(circuit: Circuit) -> StateVector:
    """Run ``circuit`` from |0...0> and return the exact final statevector."""
    n = circuit.num_qubits
    if n > HARD_QUBIT_CAP:
        raise CapacityError(f"simulating {n} qubits exceeds the cap of {HARD_QUBIT_CAP}")
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for gate in circuit.gates:
        apply_gate(state, gate, n)
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    if drift > NORM_DRIFT_LIMIT:
        raise QbsError(f"statevector norm drifted by {drift:.3e}")
    state.setflags(write=False)
    return StateVector(state, n)


def basis_gates(circuit: Circuit) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The gates of a reversible circuit as ``(controls, target)`` pairs.

    This is the form ``run_basis_bits`` runs; ``H`` raises ``ValueError``.
    """
    if any(gate.kind is GateKind.H for gate in circuit.gates):
        raise ValueError("basis runs take X/CX/CCX/MCX gates only; simulate circuits with H")
    return tuple((gate.controls, gate.target) for gate in circuit.gates)


def run_basis_bits(gates, bits: list[int], batch: int = 1) -> list[int]:
    """Run ``(controls, target)`` pairs on ``batch`` basis states packed into words.

    ``bits[q]`` is a non-negative int whose bit j is qubit q of state j.
    Each pair does ``bits[target] ^= AND(bits[controls])``, starting the
    AND from the all-ones word, so a gate without controls (X) flips the
    target in every state and no bit at or above ``batch`` is ever set.
    Returns a new list.
    """
    ones = (1 << batch) - 1
    if any(word < 0 or word > ones for word in bits):
        raise ValueError(f"basis words must lie in 0..2**{batch}-1")
    bits = list(bits)
    for controls, target in gates:
        on = ones
        for control in controls:
            on &= bits[control]
        bits[target] ^= on
    return bits


def run_basis(circuit: Circuit, index: int) -> int:
    """Run a reversible circuit on the basis state ``index``; return the final index."""
    n = circuit.num_qubits
    if not 0 <= index < (1 << n):
        raise ValueError(f"index {index} out of range for {n} qubits")
    bits = run_basis_bits(basis_gates(circuit), [index >> qubit & 1 for qubit in range(n)])
    return sum(bit << qubit for qubit, bit in enumerate(bits))


def outcome_probabilities(state: StateVector) -> np.ndarray:
    """Measurement weights |amplitude|^2, scaled to sum to exactly 1.

    ``sample`` passes them to ``Generator.multinomial``.
    """
    probs = state.probabilities()
    # The statevector itself is never renormalized; dividing the sampling
    # weights by their sum (1 within NORM_DRIFT_LIMIT) only satisfies the
    # RNG's exact-simplex requirement.
    return probs / probs.sum()


def sample(circuit: Circuit, shots: int, seed: int | None = None) -> CountsTable:
    """Measure ``circuit`` for ``shots`` independent shots.

    Deterministic for a fixed seed; with ``seed=None`` a fresh entropy seed
    is drawn.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed is None:
        seed = fresh_seed()
    state = simulate(circuit)
    rng = make_rng(seed)
    per_state = rng.multinomial(shots, outcome_probabilities(state))
    entries = {
        bitstring_of(i, circuit.num_qubits): int(c)
        for i, c in enumerate(per_state)
        if c
    }
    return CountsTable(shots=shots, entries=entries, num_qubits=circuit.num_qubits)
