import pytest

from qbs.circuit import (
    Circuit,
    GateKind,
    GateOp,
    bitstring_of,
    controlled_x,
    register_value,
)
from qbs.errors import CapacityError
from qbs.sim import simulate


class TestBuildCircuit:
    def test_empty_construction(self):
        circ = Circuit(3)
        assert circ.num_qubits == 3
        assert circ.gates == ()

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            Circuit(0)

    def test_twelve_qubits_fit(self):
        # 8 control plus 4 counter qubits is the largest circuit used here
        assert Circuit(12).num_qubits == 12

    def test_capacity_error_names_the_limit(self):
        with pytest.raises(CapacityError, match="26"):
            simulate(Circuit(27))


class TestGateOp:
    def test_h_and_x_take_no_controls(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.H, (1,), 0)
        with pytest.raises(ValueError):
            GateOp(GateKind.X, (1,), 0)

    def test_cx_takes_one_control(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.CX, (), 0)
        with pytest.raises(ValueError):
            GateOp(GateKind.CX, (1, 2), 0)

    def test_mcx_needs_a_control(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.MCX, (), 0)

    def test_string_kind_is_converted_and_checked(self):
        assert GateOp("H", (), 0).kind is GateKind.H
        with pytest.raises(ValueError):
            GateOp("MCX", (), 0)
        with pytest.raises(ValueError):
            GateOp("Z", (), 0)

    def test_self_control_rejected(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.CX, (0,), 0)
        with pytest.raises(ValueError):
            GateOp(GateKind.MCX, (0, 1), 1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            GateOp(GateKind.X, (), -1)

    def test_wide_mcx_is_valid(self):
        gate = GateOp(GateKind.MCX, (0, 1, 2), 3)
        assert gate.qubits == (0, 1, 2, 3)

    def test_controlled_x_degenerates_by_arity(self):
        assert controlled_x([], 0).kind is GateKind.X
        assert controlled_x([1], 0).kind is GateKind.CX
        assert controlled_x([1, 2], 0).kind is GateKind.CCX
        assert controlled_x([1, 2, 3], 0).kind is GateKind.MCX


class TestAppend:
    def test_append_preserves_order(self):
        circ = Circuit(1)
        circ.append(GateOp(GateKind.H, (), 0))
        assert len(circ) == 1
        circ.x(0).h(0)
        assert [g.kind for g in circ.gates] == [GateKind.H, GateKind.X, GateKind.H]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2).x(2)
        with pytest.raises(ValueError):
            Circuit(3).append_pairs([((0, 3), 1)])


class TestRegisters:
    def test_lookup(self):
        circ = Circuit(4, registers={"addr": range(0, 3), "data": range(3, 4)})
        assert circ.register("addr") == range(0, 3)
        with pytest.raises(KeyError):
            circ.register("nope")

    def test_bad_register_rejected(self):
        with pytest.raises(ValueError):
            Circuit(2, registers={"r": range(0, 3)})
        with pytest.raises(ValueError):
            Circuit(2, registers={"r": range(1, 1)})

    def test_register_value_and_bits_agree(self):
        # basis index 0b1011: qubits 0,1,3 set
        index = 0b1011
        assert bitstring_of(index, 4) == "1011"
        assert register_value(index, range(0, 2)) == 0b11
        assert register_value(index, range(2, 4)) == 0b10

    def test_bitstring_of_range_check(self):
        with pytest.raises(ValueError):
            bitstring_of(4, 2)


class TestExtend:
    def test_remaps_fragment_qubits(self):
        frag = Circuit(2)
        frag.append_pairs([((0,), 1)])
        circ = Circuit(4)
        circ.extend(frag, [2, 0])
        (gate,) = circ.gates
        assert gate.controls == (2,) and gate.target == 0

    def test_map_length_checked(self):
        frag = Circuit(2)
        with pytest.raises(ValueError):
            Circuit(4).extend(frag, [0])

    def test_map_must_not_repeat(self):
        frag = Circuit(2)
        with pytest.raises(ValueError):
            Circuit(4).extend(frag, [1, 1])

    def test_ccx_survives_remap(self):
        frag = Circuit(3)
        frag.append_pairs([((0, 1), 2)])
        circ = Circuit(5)
        circ.extend(frag, [4, 2, 0])
        (gate,) = circ.gates
        assert gate.kind is GateKind.CCX
        assert gate.controls == (4, 2) and gate.target == 0
