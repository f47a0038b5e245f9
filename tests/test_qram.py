import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbs.circuit import Circuit, GateKind, register_value
from qbs.qram import (
    BitDataArray,
    ValueDataArray,
    build_bit_qram,
    build_qsa,
    build_value_qram,
    build_value_qsa,
    load_data_array,
)
from qbs.sim import sample, simulate
from qbs.stats import chi_square_gof

from helpers import basis_prep


def read_fragment(fragment: Circuit, address: int, address_width: int) -> tuple[int, int]:
    """Simulate the fragment on a basis address; return (address out, data out)."""
    prep = basis_prep(fragment.num_qubits, address)
    prep.extend(fragment, range(fragment.num_qubits))
    index = int(np.argmax(simulate(prep).probabilities()))
    data = index >> address_width
    return index & ((1 << address_width) - 1), data


bit_arrays = st.integers(0, 3).flatmap(
    lambda a: st.lists(
        st.integers(0, 1), min_size=1 << a, max_size=1 << a
    ).map(lambda bits: BitDataArray(tuple(bits)))
)


class TestBitQram:
    def test_alternating_array_odd_address(self):
        data = BitDataArray((0, 1, 0, 1, 0, 1, 0, 1))
        addr_out, bit = read_fragment(build_bit_qram(data), 0b001, 3)
        assert (addr_out, bit) == (1, 1)

    def test_all_zero_array_is_identity(self):
        fragment = build_bit_qram(BitDataArray((0, 0, 0, 0)))
        assert len(fragment) == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            BitDataArray((0, 1, 0))

    def test_non_bits_rejected(self):
        with pytest.raises(ValueError):
            BitDataArray((0, 2))

    @given(bit_arrays)
    def test_lookup_matches_classical_array(self, data):
        fragment = build_bit_qram(data)
        a = data.address_width
        for address in range(len(data.bits)):
            addr_out, bit = read_fragment(fragment, address, a)
            assert bit == data.bits[address]
            assert addr_out == address

    def test_lookup_exhaustive_sixteen_cells(self):
        rng = np.random.Generator(np.random.PCG64(18))
        for _ in range(3):
            data = BitDataArray(tuple(int(b) for b in rng.integers(0, 2, size=16)))
            fragment = build_bit_qram(data)
            for address in range(16):
                addr_out, bit = read_fragment(fragment, address, 4)
                assert (addr_out, bit) == (address, data.bits[address])

    @given(bit_arrays)
    def test_gate_count_bound(self, data):
        fragment = build_bit_qram(data)
        ones = sum(data.bits)
        a = data.address_width
        # gates targeting the data qubit are the lookups (possibly a bare X
        # for a single-cell array); the rest is the address X sandwich
        lookups = sum(1 for g in fragment.gates if g.target == a)
        sandwich_x = sum(
            1 for g in fragment.gates if g.kind is GateKind.X and g.target != a
        )
        assert lookups <= ones
        assert sandwich_x <= 2 * a * ones


class TestValueQram:
    def test_documented_mapping_20_at_address_1(self):
        values = [0] * 8
        values[1] = 20
        fragment = build_value_qram(ValueDataArray(tuple(values), width=5))
        addr_out, data = read_fragment(fragment, 1, 3)
        assert addr_out == 1
        assert data == 20
        assert format(data, "05b") == "10100"

    def test_all_zero_values_no_gates(self):
        fragment = build_value_qram(ValueDataArray((0, 0), width=3))
        assert len(fragment) == 0

    def test_value_too_wide_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            ValueDataArray((8,), width=3)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            ValueDataArray((1, 2, 3), width=3)

    @given(
        st.lists(st.integers(0, 7), min_size=4, max_size=4),
    )
    def test_lookup_matches_classical_array(self, values):
        data = ValueDataArray(tuple(values), width=3)
        fragment = build_value_qram(data)
        for address in range(4):
            addr_out, value = read_fragment(fragment, address, 2)
            assert value == values[address]
            assert addr_out == address

    def test_value_qsa_draws_stored_values(self):
        data = ValueDataArray((5, 2, 7, 0), width=3)
        counts = sample(build_value_qsa(data), shots=2048, seed=31)
        for bits, count in counts.entries.items():
            index = int(bits, 2)
            address = register_value(index, range(0, 2))
            assert register_value(index, range(2, 5)) == data.values[address]


class TestQsa:
    def test_alternating_array_full_distribution(self):
        data = BitDataArray((0, 1, 0, 1, 0, 1, 0, 1))
        counts = sample(build_qsa(data), shots=1024, seed=99)
        assert len(counts.entries) == 8
        for bits, count in counts.entries.items():
            index = int(bits, 2)
            address = register_value(index, range(0, 3))
            data_bit = register_value(index, range(3, 4))
            assert data_bit == address % 2
            assert 96 <= count <= 160

    def test_constant_ones_data(self):
        qsa = build_qsa(BitDataArray((1, 1)))
        for seed in range(5):
            counts = sample(qsa, shots=1, seed=seed)
            ((bits, _),) = counts.entries.items()
            assert register_value(int(bits, 2), range(1, 2)) == 1

    def test_half_ones_probability(self):
        counts = sample(build_qsa(BitDataArray((0, 1, 1, 0))), shots=4096, seed=5)
        ones = sum(
            count
            for bits, count in counts.entries.items()
            if register_value(int(bits, 2), range(2, 3))
        )
        assert 0.47 <= ones / 4096 <= 0.53

    def test_uniform_address_marginal(self):
        data = BitDataArray((0, 1, 0, 1, 0, 1, 0, 1))
        counts = sample(build_qsa(data), shots=4096, seed=77)
        per_address = np.zeros(8)
        for bits, count in counts.entries.items():
            per_address[register_value(int(bits, 2), range(0, 3))] += count
        _, p = chi_square_gof(per_address, np.full(8, 1 / 8))
        assert p > 0.001

    @given(bit_arrays, st.integers(0, 15))
    def test_uncomputation_preserves_basis_addresses(self, data, address):
        # the X sandwich must cancel: the fragment never moves the address
        a = data.address_width
        address %= 1 << a if a else 1
        fragment = build_bit_qram(data)
        addr_out, _ = read_fragment(fragment, address, a)
        assert addr_out == address


class TestDataFiles:
    def test_bits_file(self, tmp_path):
        path = tmp_path / "bits.json"
        path.write_text(json.dumps({"bits": [0, 1, 1, 0]}))
        data = load_data_array(path)
        assert isinstance(data, BitDataArray)
        assert data.bits == (0, 1, 1, 0)

    def test_unknown_shape_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cells": [1]}))
        with pytest.raises(ValueError):
            load_data_array(path)
