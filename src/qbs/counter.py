"""Binary counter and ripple-carry adder circuit fragments.

The counter accumulates the number of control qubits in |1> into a
little-endian counter register: each control drives a cascade of
multi-controlled NOTs that implements a conditional increment. Carry
propagation needs the counter bits to be consumed most significant first,
so the inner loop must run downward.

``counter_gates`` and ``adder_gates`` define each gate sequence once, as
``(controls, target)`` pairs: the builders wrap them into gates. The
engines total by the circuits' net effect instead, the integer sum of the
drawn values; the tests run the pairs on packed basis states
(``sim.run_basis_bits``) as its check. ``popcount_failures`` sweeps every
control pattern through the built counter; ``counter-test --exhaustive``
and ``selfcheck`` both report from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .circuit import Circuit, bitstring_of, register_value
from .sim import run_basis


def min_counter_width(num_controls: int) -> int:
    """Smallest counter width that can hold any count 0..num_controls."""
    if num_controls < 1:
        raise ValueError(f"need at least one control qubit, got {num_controls}")
    return num_controls.bit_length()


@dataclass(frozen=True)
class CounterSpec:
    """Register sizes for a popcount circuit: p controls, q counter qubits."""

    p: int
    q: int

    def __post_init__(self):
        needed = min_counter_width(self.p)
        if self.q < needed:
            raise ValueError(
                f"q={self.q} cannot represent counts up to {self.p}; need q >= {needed}"
            )

    @classmethod
    def for_controls(cls, num_controls: int) -> "CounterSpec":
        return cls(num_controls, min_counter_width(num_controls))

    @property
    def num_qubits(self) -> int:
        return self.p + self.q


def _counter_registers(spec: CounterSpec) -> dict[str, range]:
    return {
        "controls": range(0, spec.p),
        "counter": range(spec.p, spec.p + spec.q),
    }


def counter_gates(spec: CounterSpec) -> Iterator[tuple[tuple[int, ...], int]]:
    """The counter's gates, in order, as ``(controls, target)`` pairs.

    Control i conditionally increments the counter register, qubits
    ``[p, p + q)``: bit j flips when control i and all lower bits are set.
    """
    p = spec.p
    for i in range(p - 1, -1, -1):
        for j in range(spec.q - 1, -1, -1):
            yield (i, *range(p, p + j)), p + j


def build_counter(spec: CounterSpec) -> Circuit:
    """Popcount fragment: counter register (entering as |0..0>) gains the
    number of set control qubits, least significant bit first.
    """
    circuit = Circuit(spec.num_qubits, registers=_counter_registers(spec))
    return circuit.append_pairs(counter_gates(spec))


def build_inverse_counter(spec: CounterSpec) -> Circuit:
    """Counter gates in reverse order; every gate is self-inverse, so this
    undoes the counter (a conditional decrement per control qubit).
    """
    circuit = Circuit(spec.num_qubits, registers=_counter_registers(spec))
    return circuit.append_pairs(reversed(tuple(counter_gates(spec))))


def measure_counter(
    spec: CounterSpec, control_pattern: int, seed: int | None = None
) -> tuple[str, int]:
    """Run the counter on a classical control pattern and measure.

    Bit k of ``control_pattern`` loads control qubit k. A basis input
    measures deterministically, so ``seed`` is ignored; it stays only because
    acceptance criterion 03 (``tests/test_acceptance.py``) passes ``seed=0``.
    Returns the full measured bitstring (MSB-first, counter register
    leftmost) and the counter value.
    """
    if not 0 <= control_pattern < (1 << spec.p):
        raise ValueError(f"control pattern needs {spec.p} bits")
    index = run_basis(build_counter(spec), control_pattern)
    counter = register_value(index, range(spec.p, spec.num_qubits))
    return bitstring_of(index, spec.num_qubits), counter


def popcount_failures(spec: CounterSpec) -> list[int]:
    """The control patterns, ascending, whose measured count is not their popcount."""
    return [
        pattern
        for pattern in range(1 << spec.p)
        if measure_counter(spec, pattern)[1] != bin(pattern).count("1")
    ]


def adder_gates(width: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The ripple adder's gates, in order, as ``(controls, target)`` pairs.

    Layout: A at qubits [0, width), B at [width, 2*width), a carry-in
    ancilla, then the carry-out qubit.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    carry_in = 2 * width

    def carry_for(k: int) -> int:
        return carry_in if k == 0 else k - 1

    # majority half: after step k, A_k holds the carry into position k+1
    for k in range(width):
        c, b, a = carry_for(k), width + k, k
        yield (a,), b
        yield (a,), c
        yield (c, b), a
    yield (width - 1,), carry_in + 1
    # unmajority-and-add half restores A and the carry chain
    for k in reversed(range(width)):
        c, b, a = carry_for(k), width + k, k
        yield (c, b), a
        yield (a,), c
        yield (c,), b


def build_ripple_adder(width: int) -> Circuit:
    """In-place ripple-carry adder over registers A and B of ``width`` bits.

    Layout as in ``adder_gates``. On basis inputs with cleared ancillas B
    ends holding (a + b) mod 2^width, the carry-out qubit holds the
    overflow bit, and A is restored by the uncompute half.
    """
    gates = tuple(adder_gates(width))  # first, so a bad width reports itself
    carry_in = 2 * width
    circuit = Circuit(
        2 * width + 2,
        registers={
            "a": range(0, width),
            "b": range(width, 2 * width),
            "carry_in": range(carry_in, carry_in + 1),
            "carry_out": range(carry_in + 1, carry_in + 2),
        },
    )
    return circuit.append_pairs(gates)
