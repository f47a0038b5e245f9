import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbs.circuit import Circuit, GateKind, GateOp, bitstring_of
from qbs.errors import CapacityError, QbsError
from qbs.rng import make_rng
from qbs.sim import (
    HARD_QUBIT_CAP,
    CountsTable,
    apply_gate,
    basis_gates,
    run_basis,
    run_basis_bits,
    sample,
    simulate,
)
from qbs.stats import chi_square_gof

from helpers import basis_prep, oracle_statevector


# --- strategies -----------------------------------------------------------

@st.composite
def gate_ops(draw, num_qubits: int, classical_only: bool = False):
    kinds = [GateKind.X]
    if num_qubits >= 2:
        kinds += [GateKind.CX, GateKind.MCX]
    if num_qubits >= 3:
        kinds.append(GateKind.CCX)
    if not classical_only:
        kinds.append(GateKind.H)
    kind = draw(st.sampled_from(kinds))
    if kind in (GateKind.H, GateKind.X):
        return GateOp(kind, (), draw(st.integers(0, num_qubits - 1)))
    arity = {GateKind.CX: 1, GateKind.CCX: 2}.get(kind)
    if arity is None:
        arity = draw(st.integers(1, num_qubits - 1))
    qubits = draw(
        st.lists(
            st.integers(0, num_qubits - 1),
            min_size=arity + 1,
            max_size=arity + 1,
            unique=True,
        )
    )
    return GateOp(kind, tuple(qubits[:-1]), qubits[-1])


@st.composite
def circuits(draw, max_qubits: int = 5, max_gates: int = 20, classical_only: bool = False):
    n = draw(st.integers(2, max_qubits))
    ops = draw(st.lists(gate_ops(n, classical_only), max_size=max_gates))
    circ = Circuit(n)
    for op in ops:
        circ.append(op)
    return circ


# --- simulate -------------------------------------------------------------

class TestSimulate:
    def test_single_hadamard(self):
        state = simulate(Circuit(1).h(0))
        expected = 1 / math.sqrt(2)
        assert np.allclose(state.amplitudes, [expected, expected], atol=1e-12)

    def test_single_x(self):
        state = simulate(Circuit(1).x(0))
        assert np.allclose(state.amplitudes, [0, 1], atol=1e-12)

    def test_three_hadamards_uniform(self):
        circ = Circuit(3).h(0).h(1).h(2)
        oracle = oracle_statevector(circ)
        assert np.allclose(oracle, np.full(8, 1 / math.sqrt(8)), atol=1e-12)
        assert np.allclose(simulate(circ).amplitudes, oracle, atol=1e-12)

    def test_capacity_guard(self):
        circ = Circuit(HARD_QUBIT_CAP + 1).h(0)
        with pytest.raises(CapacityError):
            simulate(circ)

    def test_statevector_is_read_only(self):
        state = simulate(Circuit(1).h(0))
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0

    def test_string_gate_kind_simulates_as_that_gate(self):
        state = simulate(Circuit(1).append(GateOp("H", (), 0)))
        expected = 1 / math.sqrt(2)
        assert np.allclose(state.amplitudes, [expected, expected], atol=1e-12)

    @given(circuits())
    def test_matches_dense_oracle(self, circ):
        assert np.allclose(
            simulate(circ).amplitudes, oracle_statevector(circ), atol=1e-12
        )

    @given(circuits())
    def test_norm_preserved_after_every_gate(self, circ):
        n = circ.num_qubits
        state = np.zeros(1 << n, dtype=np.complex128)
        state[0] = 1.0
        for gate in circ.gates:
            apply_gate(state, gate, n)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12

    @given(circuits(), gate_ops(2))
    def test_gates_are_self_inverse(self, circ, extra):
        # circuits() guarantees n >= 2, so a 2-qubit gate always fits
        n = circ.num_qubits
        before = simulate(circ).amplitudes.copy()
        state = before.copy()
        apply_gate(state, extra, n)
        apply_gate(state, extra, n)
        assert np.allclose(state, before, atol=1e-12)

    @given(circuits(classical_only=True), st.integers(0, 31))
    def test_classical_circuits_permute_basis_states(self, circ, pattern):
        n = circ.num_qubits
        pattern %= 1 << n
        state = np.zeros(1 << n, dtype=np.complex128)
        state[pattern] = 1.0
        for gate in circ.gates:
            apply_gate(state, gate, n)
        magnitudes = np.abs(state)
        assert np.count_nonzero(magnitudes > 1e-12) == 1
        assert np.isclose(magnitudes.max(), 1.0, atol=1e-12)


# --- sampling -------------------------------------------------------------

class TestSample:
    def test_deterministic_state_all_shots(self):
        counts = sample(Circuit(1).x(0), shots=100, seed=1)
        assert counts.entries == {"1": 100}

    def test_uniform_three_qubit_counts(self):
        circ = Circuit(3).h(0).h(1).h(2)
        counts = sample(circ, shots=1024, seed=2024)
        assert sum(counts.entries.values()) == 1024
        observed = [counts.count(bitstring_of(i, 3)) for i in range(8)]
        # expected 128 per state, +-3 sigma with sigma = sqrt(1024*(1/8)(7/8))
        assert all(96 <= c <= 160 for c in observed)
        _, p = chi_square_gof(np.array(observed), np.full(8, 1 / 8))
        assert p > 0.001

    def test_same_seed_same_counts(self):
        circ = Circuit(2).h(0).append_pairs([((0,), 1)])
        assert sample(circ, 500, seed=9) == sample(circ, 500, seed=9)

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            sample(Circuit(1).h(0), shots=0, seed=1)

    def test_hadamard_is_fair_across_seeds(self):
        circ = Circuit(1).h(0)
        ones = sum(sample(circ, shots=1, seed=s).count("1") for s in range(10000))
        assert 0.47 <= ones / 10000 <= 0.53

    def test_shared_circuit_samples_safely_across_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        circ = Circuit(3).h(0).h(1).h(2)
        with ThreadPoolExecutor(max_workers=4) as pool:
            concurrent = list(pool.map(lambda s: sample(circ, 200, seed=s), range(8)))
        for seed, counts in enumerate(concurrent):
            assert counts == sample(circ, 200, seed=seed)

    def test_counts_table_validates_total(self):
        with pytest.raises(ValueError):
            CountsTable(shots=3, entries={"0": 1, "1": 1}, num_qubits=1)

    def test_counts_table_validates_keys(self):
        with pytest.raises(ValueError):
            CountsTable(shots=1, entries={"2": 1}, num_qubits=1)
        with pytest.raises(ValueError):
            CountsTable(shots=1, entries={"00": 1}, num_qubits=1)


class TestRunBasis:
    def test_deterministic_circuit(self):
        assert run_basis(Circuit(1).x(0), 0) == 1

    def test_bitstring_orientation(self):
        # qubit 0 set, qubit 2 clear: MSB-first string reads 001
        assert bitstring_of(run_basis(Circuit(3).x(0), 0), 3) == "001"

    @given(circuits(max_qubits=10, max_gates=30, classical_only=True), st.integers(0, 1023))
    def test_matches_statevector_on_basis_inputs(self, circ, pattern):
        n = circ.num_qubits
        pattern %= 1 << n
        prep = basis_prep(n, pattern)
        prep.extend(circ, range(n))
        probs = simulate(prep).probabilities()
        expected = int(np.argmax(probs))
        assert np.isclose(probs[expected], 1.0, atol=1e-12)
        assert run_basis(circ, pattern) == expected

    @pytest.mark.parametrize("batch", [1, 7, 8, 63, 64, 65, 1000])
    @settings(max_examples=30)
    @given(
        circuits(max_qubits=10, max_gates=30, classical_only=True),
        st.lists(st.integers(0, 9), min_size=1, max_size=3),
        st.integers(0, 2**32 - 1),
    )
    def test_packed_words_match_run_basis(self, batch, circ, x_targets, pattern_seed):
        n = circ.num_qubits
        for target in x_targets:  # X gates flip with the all-ones word
            circ.x(target % n)
        patterns = make_rng(pattern_seed).integers(0, 1 << n, size=batch).tolist()
        words = [
            sum((pattern >> q & 1) << j for j, pattern in enumerate(patterns)) for q in range(n)
        ]
        out = run_basis_bits(basis_gates(circ), words, batch)
        assert all(0 <= word < 1 << batch for word in out)
        for j, pattern in enumerate(patterns):
            state = sum((word >> j & 1) << q for q, word in enumerate(out))
            assert state == run_basis(circ, pattern)

    def test_words_beyond_the_batch_rejected(self):
        gates = basis_gates(Circuit(2).x(0))
        for words in ([4, 0], [0, -1]):
            with pytest.raises(ValueError, match="basis words"):
                run_basis_bits(gates, words, batch=2)

    def test_rejects_hadamard(self):
        with pytest.raises(ValueError, match="H"):
            run_basis(Circuit(2).x(0).h(1), 0)

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            run_basis(Circuit(2).x(0), 4)


class TestNormGuard:
    def test_guard_trips_when_threshold_is_zeroed(self, monkeypatch):
        monkeypatch.setattr("qbs.sim.NORM_DRIFT_LIMIT", -1.0)
        with pytest.raises(QbsError, match="norm drifted"):
            simulate(Circuit(1).h(0))
