"""Gate-list circuit representation over named qubit registers.

Bit ordering: qubit 0 is the least significant bit of every basis-state
index and of every bitstring, so ``int(bitstring, 2)`` gives the basis
index and the leftmost character of a bitstring is the highest qubit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence


class GateKind(str, Enum):
    H = "H"
    X = "X"
    CX = "CX"
    CCX = "CCX"
    MCX = "MCX"


_CONTROL_ARITY = {GateKind.H: 0, GateKind.X: 0, GateKind.CX: 1, GateKind.CCX: 2}


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind (a GateKind or its string value), control qubits, target qubit."""

    kind: GateKind
    controls: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        object.__setattr__(self, "controls", tuple(self.controls))
        fixed = _CONTROL_ARITY.get(self.kind)
        if fixed is not None and len(self.controls) != fixed:
            raise ValueError(
                f"{self.kind.value} takes {fixed} control(s), got {len(self.controls)}"
            )
        if self.kind is GateKind.MCX and not self.controls:
            raise ValueError("MCX needs at least one control")
        qubits = self.qubits
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"gate qubits must be distinct, got {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative qubit index in {qubits}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.controls + (self.target,)


_X_KINDS = (GateKind.X, GateKind.CX, GateKind.CCX)


def controlled_x(controls: Iterable[int], target: int) -> GateOp:
    """X on ``target`` conditioned on all of ``controls``.

    Degenerates to X / CX / CCX for 0, 1 or 2 controls.
    """
    controls = tuple(controls)
    kind = _X_KINDS[len(controls)] if len(controls) < len(_X_KINDS) else GateKind.MCX
    return GateOp(kind, controls, target)


class Circuit:
    """Ordered gate list over ``num_qubits`` qubits, all starting in |0>.

    Builders populate a circuit and then leave it alone; nothing in the
    package mutates a circuit after it is handed out, so a shared instance
    is safe to simulate concurrently with different seeds. Any width may be
    built; ``sim.HARD_QUBIT_CAP`` applies only when a circuit is simulated.
    """

    def __init__(
        self,
        num_qubits: int,
        registers: Mapping[str, range] | None = None,
    ):
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self.num_qubits = num_qubits
        self._gates: list[GateOp] = []
        self.register_labels: dict[str, range] = {}
        if registers:
            for label, qubits in registers.items():
                self.add_register(label, qubits)

    @property
    def gates(self) -> tuple[GateOp, ...]:
        return tuple(self._gates)

    def add_register(self, label: str, qubits: range) -> None:
        if qubits.step != 1 or len(qubits) == 0:
            raise ValueError(f"register {label!r} must be a non-empty contiguous range")
        if qubits.start < 0 or qubits.stop > self.num_qubits:
            raise ValueError(
                f"register {label!r} spans {qubits}, outside 0..{self.num_qubits}"
            )
        self.register_labels[label] = qubits

    def register(self, label: str) -> range:
        try:
            return self.register_labels[label]
        except KeyError:
            raise KeyError(f"no register named {label!r}") from None

    def append(self, gate: GateOp) -> "Circuit":
        for q in gate.qubits:
            if q >= self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )
        self._gates.append(gate)
        return self

    def append_pairs(self, pairs: Iterable[tuple[Iterable[int], int]]) -> "Circuit":
        """Append ``controlled_x(controls, target)`` for each ``(controls, target)`` pair."""
        for controls, target in pairs:
            self.append(controlled_x(controls, target))
        return self

    # convenience wrappers, qiskit-style
    def h(self, target: int) -> "Circuit":
        return self.append(GateOp(GateKind.H, (), target))

    def x(self, target: int) -> "Circuit":
        return self.append(GateOp(GateKind.X, (), target))

    def extend(self, fragment: "Circuit", qubit_map: Sequence[int]) -> "Circuit":
        """Append all gates of ``fragment``, remapping its qubit k to ``qubit_map[k]``."""
        qubit_map = list(qubit_map)
        if len(qubit_map) != fragment.num_qubits:
            raise ValueError(
                f"qubit_map has {len(qubit_map)} entries for a "
                f"{fragment.num_qubits}-qubit fragment"
            )
        if len(set(qubit_map)) != len(qubit_map):
            raise ValueError("qubit_map must not repeat qubits")
        for gate in fragment.gates:
            remapped = GateOp(
                gate.kind,
                tuple(qubit_map[c] for c in gate.controls),
                qubit_map[gate.target],
            )
            self.append(remapped)
        return self

    def __len__(self) -> int:
        return len(self._gates)

    def __repr__(self) -> str:
        return f"Circuit(num_qubits={self.num_qubits}, gates={len(self._gates)})"


def bitstring_of(index: int, num_qubits: int) -> str:
    """MSB-first bitstring of a basis index (qubit 0 is the rightmost char)."""
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    return format(index, f"0{num_qubits}b")


def register_value(index: int, qubits: range) -> int:
    """Integer held by a contiguous register within a basis index.

    Also works elementwise on an integer array of basis indices.
    """
    return (index >> qubits.start) & ((1 << len(qubits)) - 1)
