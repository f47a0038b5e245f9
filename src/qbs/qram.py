"""QRAM circuit fragments: map an address register to stored data qubits.

The construction is the X-sandwich form: for every address holding a
nonzero entry, X gates turn the matching address pattern into all-ones,
a multi-controlled NOT flips the data qubit(s), and the same X gates
uncompute the pattern. Address qubits are therefore untouched on basis
inputs, and addresses in superposition read all cells at once.

``lookup_gates`` defines that sequence once, as ``(controls, target)``
pairs: the builders wrap them into gates, and the tests walk them once
to read which data every address holds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .circuit import Circuit


def _exponent_of_power_of_two(length: int, what: str) -> int:
    if length < 1 or length & (length - 1):
        raise ValueError(f"{what} length must be a power of two, got {length}")
    return length.bit_length() - 1


@dataclass(frozen=True)
class BitDataArray:
    """Stored bits, one per address; length fixes the address width."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))
        _exponent_of_power_of_two(len(self.bits), "bit array")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bit array entries must be 0 or 1")

    @property
    def address_width(self) -> int:
        return _exponent_of_power_of_two(len(self.bits), "bit array")


@dataclass(frozen=True)
class ValueDataArray:
    """Stored non-negative integers in a fixed-width binary encoding."""

    values: tuple[int, ...]
    width: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        _exponent_of_power_of_two(len(self.values), "value array")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")
        for v in self.values:
            if not 0 <= v < (1 << self.width):
                raise ValueError(f"value {v} does not fit in {self.width} bits")

    @property
    def address_width(self) -> int:
        return _exponent_of_power_of_two(len(self.values), "value array")


def load_data_array(path: str | Path) -> BitDataArray | ValueDataArray:
    """Read a stored-data file: {"bits": [...]} or {"values": [...], "width": w}."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    for field in ("bits", "values"):
        if field in payload and not isinstance(payload[field], list):
            raise ValueError(f"{path}: field {field!r} must be a list")
    if "bits" in payload:
        return BitDataArray(tuple(payload["bits"]))
    if "values" in payload:
        if "width" not in payload:
            raise ValueError(f"{path}: value arrays need a 'width' field")
        width = payload["width"]
        if not isinstance(width, int) or isinstance(width, bool):
            raise ValueError(f"{path}: field 'width' must be an integer, got {width!r}")
        return ValueDataArray(tuple(payload["values"]), width)
    raise ValueError(f"{path}: expected a 'bits' or 'values' key")


def _lookup_registers(data: ValueDataArray) -> dict[str, range]:
    a = data.address_width
    registers = {"address": range(0, a)} if a else {}
    registers["data"] = range(a, a + data.width)
    return registers


def build_bit_qram(data: BitDataArray) -> Circuit:
    """Lookup fragment over ``address_width`` address qubits plus one data qubit.

    On every basis address |i> with the data qubit cleared, the fragment
    yields |i>|bits[i]>. A bit array is a width-1 value array.
    """
    return build_value_qram(ValueDataArray(data.bits, 1))


def build_value_qram(data: ValueDataArray) -> Circuit:
    """Lookup fragment mapping |i>|0..0> to |i>|values[i]>.

    The data register holds the value with its least significant bit on the
    lowest data qubit; all set bits of one value share a single X sandwich.
    """
    circuit = Circuit(data.address_width + data.width, registers=_lookup_registers(data))
    return circuit.append_pairs(lookup_gates(data))


def lookup_gates(data: ValueDataArray) -> Iterator[tuple[tuple[int, ...], int]]:
    """The lookup's gates, in order, as ``(controls, target)`` pairs for ``sim.run_basis_bits``."""
    a = data.address_width
    address_qubits = tuple(range(a))
    for address, value in enumerate(data.values):
        if value == 0:
            continue
        sandwich = [((), q) for q in range(a) if not (address >> q) & 1]
        yield from sandwich
        for k in range(data.width):
            if (value >> k) & 1:
                yield address_qubits, a + k
        yield from sandwich


def build_qsa(data: BitDataArray) -> Circuit:
    """Resampler circuit: Hadamards over the address register, then the lookup.

    Measuring yields a uniformly random address together with its stored
    bit, and repeated runs repeat addresses freely, which is exactly
    sampling with replacement from the array.
    """
    return build_value_qsa(ValueDataArray(data.bits, 1))


def build_value_qsa(data: ValueDataArray) -> Circuit:
    """Hadamards over the address register followed by the value lookup."""
    a = data.address_width
    qsa = Circuit(a + data.width, registers=_lookup_registers(data))
    for q in range(a):
        qsa.h(q)
    return qsa.append_pairs(lookup_gates(data))
