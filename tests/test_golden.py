"""Golden digests of the builders' gate sequences.

Each builder wraps a pair generator, so comparing a circuit's gates with
its generator proves nothing. These SHA-256 digests of ``repr`` of every
circuit's width, register labels and ``(kind, controls, target)`` gates
were computed from the circuits built before the generators existed, so a
reordered, dropped or relabelled gate fails here.
"""

import hashlib

import pytest

from qbs.counter import (
    CounterSpec,
    build_counter,
    build_inverse_counter,
    build_ripple_adder,
)
from qbs.qram import ValueDataArray, build_value_qsa


def digest(circuits) -> str:
    h = hashlib.sha256()
    for circuit in circuits:
        gates = tuple((g.kind.value, g.controls, g.target) for g in circuit.gates)
        h.update(repr((circuit.num_qubits, circuit.register_labels, gates)).encode())
    return h.hexdigest()


def counter_specs():
    """p = 1..69 controls, each at the minimum counter width and one wider."""
    for p in range(1, 70):
        q = p.bit_length()
        yield CounterSpec(p, q)
        yield CounterSpec(p, q + 1)


def value_arrays():
    """Address widths 0..5 and value widths 1..4, zeros included."""
    for a in range(6):
        for w in range(1, 5):
            values = tuple((7 * i + 3 * w + a) % (1 << w) for i in range(1 << a))
            yield ValueDataArray(values, w)


@pytest.mark.parametrize(
    "build,shapes,expected",
    [
        (
            build_counter,
            counter_specs,
            "f7f1220d322a42c755eb80faac1cc040b4728e92cda15958091c4c69d3aeabd6",
        ),
        (
            build_inverse_counter,
            counter_specs,
            "ff581f025150f17db712126db14fc87691f67fa0574230dca7830518e7cede5a",
        ),
        (
            build_ripple_adder,
            lambda: range(1, 20),
            "ad6639b7ece0a84c9df01a45fe072db45e683b0ddb1848c6a5beb3a9351bf15a",
        ),
        (
            build_value_qsa,
            value_arrays,
            "329098d1862178291ddd8e9f2359ebc3efa531efce97615ea64c6cb9805f760e",
        ),
    ],
    ids=["counter", "inverse_counter", "ripple_adder", "value_qsa"],
)
def test_gate_sequences_match_the_golden_digest(build, shapes, expected):
    assert digest(map(build, shapes())) == expected
