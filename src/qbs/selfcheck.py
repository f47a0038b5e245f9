"""Built-in verification suite behind the ``selfcheck`` CLI command.

Every check uses fixed seeds, so two runs of the suite print the same
summary. The whole suite stays well under a minute.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bootstrap import (
    MODE_SEQUENTIAL,
    SampleResults,
    classical_bootstrap_oracle,
    replicate,
)
from .circuit import Circuit, controlled_x, register_value
from .counter import CounterSpec, build_ripple_adder, measure_counter
from .qram import BitDataArray, build_bit_qram
from .rng import make_rng
from .sim import apply_gate, run_basis
from .stats import chi_square_two_sample, raw_count_histogram

_SUITE_SEED = 0x5EEDED


def _random_circuit(rng: np.random.Generator, num_qubits: int, num_gates: int) -> Circuit:
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.choice(len(_GATE_MAKERS))
        _GATE_MAKERS[kind](circuit, rng, num_qubits)
    return circuit


def _add_h(c: Circuit, rng, n: int) -> None:
    c.h(int(rng.integers(n)))


def _add_x(c: Circuit, rng, n: int) -> None:
    c.x(int(rng.integers(n)))


def _add_controlled(c: Circuit, rng, n: int) -> None:
    if n < 2:
        c.x(0)
        return
    arity = int(rng.integers(1, n))
    qubits = rng.choice(n, size=arity + 1, replace=False)
    c.append(controlled_x((int(q) for q in qubits[:-1]), int(qubits[-1])))


_GATE_MAKERS = (_add_h, _add_x, _add_controlled)


def check_norm_preservation() -> tuple[str, bool, str]:
    rng = make_rng(_SUITE_SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        circuit = _random_circuit(rng, n, int(rng.integers(1, 26)))
        state = np.zeros(1 << n, dtype=np.complex128)
        state[0] = 1.0
        for gate in circuit.gates:
            apply_gate(state, gate, n)
            worst = max(worst, abs(float(np.linalg.norm(state)) - 1.0))
    ok = worst < 1e-12
    return "statevector norm preservation", ok, f"max drift {worst:.2e} over 200 circuits"


def check_qram_lookup() -> tuple[str, bool, str]:
    rng = make_rng(_SUITE_SEED + 1)
    checked = 0
    for a in (1, 2, 3):
        for _ in range(3):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=1 << a))
            fragment = build_bit_qram(BitDataArray(bits))
            for address in range(1 << a):
                index = run_basis(fragment, address)
                if register_value(index, range(a, a + 1)) != bits[address]:
                    return "qram lookup", False, f"wrong bit at address {address} of {bits}"
                if register_value(index, range(0, a)) != address:
                    return "qram lookup", False, f"address {address} not preserved"
                checked += 1
    return "qram lookup", True, f"{checked} address reads match the stored arrays"


def check_counter_popcount() -> tuple[str, bool, str]:
    checked = 0
    for p in range(1, 9):
        spec = CounterSpec.for_controls(p)
        for pattern in range(1 << p):
            _, value = measure_counter(spec, pattern, seed=_SUITE_SEED)
            if value != bin(pattern).count("1"):
                return (
                    "counter popcount",
                    False,
                    f"pattern {pattern:0{p}b} decoded to {value}",
                )
            checked += 1
    return "counter popcount", True, f"{checked} control patterns over p=1..8"


def check_adder() -> tuple[str, bool, str]:
    checked = 0
    for width in (1, 2, 3):
        fragment = build_ripple_adder(width)
        total = fragment.num_qubits
        for a in range(1 << width):
            for b in range(1 << width):
                index = run_basis(fragment, a | b << width)
                got_sum = register_value(index, range(width, 2 * width))
                got_carry = register_value(index, range(2 * width + 1, total))
                got_a = register_value(index, range(0, width))
                want_sum = (a + b) % (1 << width)
                want_carry = int(a + b >= (1 << width))
                if (got_sum, got_carry, got_a) != (want_sum, want_carry, a):
                    return "ripple adder", False, f"{a}+{b} at width {width} gave {got_sum}"
                checked += 1
    return "ripple adder", True, f"{checked} operand pairs over widths 1..3"


def check_oracle_agreement() -> tuple[str, bool, str]:
    sample = SampleResults((0, 1, 0, 1, 0, 1, 0, 1), population_size=16)
    quantum = replicate(sample, 600, MODE_SEQUENTIAL, seed=_SUITE_SEED + 2)
    classical = classical_bootstrap_oracle(sample, 600, seed=_SUITE_SEED + 3)
    _, p_value = chi_square_two_sample(
        raw_count_histogram(quantum.raw_counts(), sample.n),
        raw_count_histogram(classical.raw_counts(), sample.n),
    )
    ok = p_value > 0.001
    return "quantum vs classical resampling", ok, f"two-sample chi-square p={p_value:.4f}"


CHECKS: tuple[Callable[[], tuple[str, bool, str]], ...] = (
    check_norm_preservation,
    check_qram_lookup,
    check_counter_popcount,
    check_adder,
    check_oracle_agreement,
)


def run_selfcheck(write: Callable[[str], None] = print) -> bool:
    all_ok = True
    for check in CHECKS:
        name, ok, detail = check()
        write(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        all_ok = all_ok and ok
    write("all checks passed" if all_ok else "selfcheck FAILED")
    return all_ok
