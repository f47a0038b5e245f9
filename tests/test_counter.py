import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbs.circuit import Circuit, register_value
from qbs.counter import (
    CounterSpec,
    build_counter,
    build_inverse_counter,
    build_ripple_adder,
    measure_counter,
    min_counter_width,
)
from qbs.sim import simulate

from helpers import basis_prep, popcount


def run_on_pattern(fragment: Circuit, pattern: int) -> int:
    """Basis-input run; returns the final basis index."""
    prep = basis_prep(fragment.num_qubits, pattern)
    prep.extend(fragment, range(fragment.num_qubits))
    return int(np.argmax(simulate(prep).probabilities()))


class TestCounterSpec:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 2), (3, 2), (4, 3), (7, 3), (8, 4)])
    def test_minimum_width(self, p, q):
        assert min_counter_width(p) == q
        assert CounterSpec.for_controls(p) == CounterSpec(p, q)

    def test_too_narrow_rejected(self):
        with pytest.raises(ValueError, match="q >="):
            CounterSpec(8, 3)

    def test_no_controls_rejected(self):
        with pytest.raises(ValueError):
            min_counter_width(0)


class TestCounter:
    def test_five_ones_pattern(self):
        spec = CounterSpec.for_controls(8)
        full, value = measure_counter(spec, 0b00011111, seed=0)
        assert full == "010100011111"
        assert value == 5

    def test_all_zero_controls(self):
        spec = CounterSpec.for_controls(8)
        _, value = measure_counter(spec, 0, seed=0)
        assert value == 0

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_exhaustive_popcount(self, p):
        spec = CounterSpec.for_controls(p)
        fragment = build_counter(spec)
        for pattern in range(1 << p):
            index = run_on_pattern(fragment, pattern)
            assert register_value(index, range(p, spec.num_qubits)) == popcount(pattern)

    @given(st.integers(1, 8).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, 2**p - 1))))
    def test_controls_preserved(self, p_and_pattern):
        p, pattern = p_and_pattern
        spec = CounterSpec.for_controls(p)
        index = run_on_pattern(build_counter(spec), pattern)
        assert register_value(index, range(0, p)) == pattern

    @given(st.integers(1, 7).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, 2**p - 1))))
    def test_extra_set_control_increments(self, p_and_pattern):
        p, pattern = p_and_pattern
        wide = CounterSpec.for_controls(p + 1)
        base = CounterSpec(p, wide.q)
        before = register_value(
            run_on_pattern(build_counter(base), pattern), range(p, base.num_qubits)
        )
        extended = pattern | (1 << p)
        after = register_value(
            run_on_pattern(build_counter(wide), extended), range(p + 1, wide.num_qubits)
        )
        assert after == before + 1

    def test_wider_than_minimum_counter_still_counts(self):
        spec = CounterSpec(3, 4)
        for pattern in range(8):
            index = run_on_pattern(build_counter(spec), pattern)
            assert register_value(index, range(3, 7)) == popcount(pattern)


class TestInverseCounter:
    def test_counter_then_inverse_is_identity(self):
        spec = CounterSpec.for_controls(8)
        circuit = Circuit(spec.num_qubits)
        for q in range(5):
            circuit.x(q)
        circuit.extend(build_counter(spec), range(spec.num_qubits))
        circuit.extend(build_inverse_counter(spec), range(spec.num_qubits))
        index = int(np.argmax(simulate(circuit).probabilities()))
        assert register_value(index, range(8, 12)) == 0
        assert register_value(index, range(0, 8)) == 0b11111

    @given(st.integers(1, 6).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, 2**p - 1))))
    def test_roundtrip_statevector_identity(self, p_and_pattern):
        p, pattern = p_and_pattern
        spec = CounterSpec.for_controls(p)
        prep = basis_prep(spec.num_qubits, pattern)
        reference = simulate(prep).amplitudes
        roundtrip = basis_prep(spec.num_qubits, pattern)
        roundtrip.extend(build_counter(spec), range(spec.num_qubits))
        roundtrip.extend(build_inverse_counter(spec), range(spec.num_qubits))
        assert np.allclose(simulate(roundtrip).amplitudes, reference, atol=1e-12)

    def test_inverse_alone_wraps_modulo(self):
        # decrement by 3 from 0 on a 2-bit counter lands on 1
        spec = CounterSpec(3, 2)
        index = run_on_pattern(build_inverse_counter(spec), 0b111)
        assert register_value(index, range(3, 5)) == (-3) % 4 == 1


class TestRippleAdder:
    def test_zero_plus_zero(self):
        fragment = build_ripple_adder(2)
        index = run_on_pattern(fragment, 0)
        assert index == 0

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_exhaustive(self, width):
        fragment = build_ripple_adder(width)
        size = 1 << width
        for a in range(size):
            for b in range(size):
                index = run_on_pattern(fragment, a | (b << width))
                assert register_value(index, range(width, 2 * width)) == (a + b) % size
                assert register_value(index, range(2 * width + 1, 2 * width + 2)) == int(
                    a + b >= size
                )
                assert register_value(index, range(0, width)) == a
                # the carry-in ancilla must come back clean
                assert register_value(index, range(2 * width, 2 * width + 1)) == 0

    def test_documented_operand_twenty(self):
        fragment = build_ripple_adder(5)
        index = run_on_pattern(fragment, 20)  # a=20 (10100), b=0
        assert register_value(index, range(5, 10)) == 20

    def test_width_validated(self):
        with pytest.raises(ValueError):
            build_ripple_adder(0)


class TestMeasureCounter:
    def test_pattern_out_of_range(self):
        with pytest.raises(ValueError):
            measure_counter(CounterSpec.for_controls(3), 8)

    def test_register_labels_present(self):
        spec = CounterSpec.for_controls(4)
        fragment = build_counter(spec)
        assert fragment.register("controls") == range(0, 4)
        assert fragment.register("counter") == range(4, 7)
