"""Seeded, reproducible randomness.

Every random draw in the package comes from a numpy PCG64 stream. Child
seeds for independent sub-tasks (replications, per-draw measurements) come
from ``numpy.random.SeedSequence`` with an index spawn key, i.e. a
counter-indexed hash of the master seed, so one master seed pins down the
entire run on any platform. ``child_seeds`` computes many child seeds, and
``child_uniforms`` the first uniform of many child generators, at once with
array arithmetic, bit for bit what building each would give; numpy keeps
the ``SeedSequence`` and ``PCG64`` streams stable (NEP 19). The hash runs
on uint32 arrays, one element per child, whose arithmetic wraps modulo
2**32 as numpy's C code does; entropy words that every child shares stay
Python ints and are masked. The hash constants never depend on the data,
so they are computed once.
"""

from __future__ import annotations

import operator
import secrets
from functools import lru_cache

import numpy as np


def fresh_seed() -> int:
    """Draw a 64-bit seed from OS entropy."""
    return secrets.randbits(64)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator for a non-negative integer seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(master: int, index: int) -> int:
    """Deterministic 64-bit child seed, keyed by ``index``."""
    if master < 0:
        raise ValueError(f"seed must be non-negative, got {master}")
    child = np.random.SeedSequence(master, spawn_key=(index,))
    return int(child.generate_state(1, np.uint64)[0])


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as (high, low) 64-bit words
_PCG_MULT = (2549297995355413924, 4865540595714422341)


@lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> tuple[tuple[int, int], ...]:
    """The first ``count`` (xor, multiply) constants of successive hash calls:
    the walk numpy's in-out ``hash_const`` takes, which never depends on the data."""
    consts = []
    const = init
    for _ in range(count):
        following = const * mult & _MASK32
        consts.append((const, following))
        const = following
    return tuple(consts)


def _mul32(const: int, value):
    """``const * value`` modulo 2**32 for a Python int or a uint32 array."""
    if isinstance(value, int):
        return const * value & _MASK32
    return value * const  # uint32 arithmetic wraps


def _hashmix(value, xor: int, mult: int):
    """numpy's ``hashmix`` on a Python int or a uint32 array."""
    value = _mul32(mult, value ^ xor)
    return value ^ value >> 16


def _mix(x, y):
    """numpy's ``mix`` on Python ints and uint32 arrays, modulo 2**32."""
    result = _mul32(_MIX_MULT_L, x) - _mul32(_MIX_MULT_R, y)
    if isinstance(result, int):
        result &= _MASK32
    return result ^ result >> 16


def _pool(words: list) -> list:
    """``SeedSequence.mix_entropy`` over 32-bit entropy words.

    A word may be a Python int or a uint32 array; the pool words come out as
    whichever their inputs were, so words shared by every child are mixed
    once as ints and the rest column-wise.
    """
    consts = iter(_hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(len(words), _POOL_SIZE)))
    padded = words + [0] * (_POOL_SIZE - len(words))
    pool = [_hashmix(word, *next(consts)) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, *next(consts)))
    return pool


def _state64(pool: list, n_words: int) -> list[np.ndarray]:
    """``SeedSequence.generate_state(n_words, np.uint64)`` as uint64 columns."""
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * n_words)
    halves = [
        np.asarray(_hashmix(pool[i % _POOL_SIZE], *consts[i]), dtype=np.uint64)
        for i in range(2 * n_words)
    ]
    # little-endian: the first 32-bit word is the low half
    return [halves[2 * i] | halves[2 * i + 1] << np.uint64(32) for i in range(n_words)]


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of ``a * b`` for a uint64 array and a 64-bit constant."""
    mask = np.uint64(_MASK32)
    shift = np.uint64(32)
    a_lo, a_hi = a & mask, a >> shift
    b_lo, b_hi = np.uint64(b & _MASK32), np.uint64(b >> 32)
    cross_lo, cross_hi = a_lo * b_hi, a_hi * b_lo
    middle = (a_lo * b_lo >> shift) + (cross_lo & mask) + (cross_hi & mask)
    return a_hi * b_hi + (cross_lo >> shift) + (cross_hi >> shift) + (middle >> shift)


def _add128(a_hi, a_lo, b_hi, b_lo):
    low = a_lo + b_lo
    return a_hi + b_hi + (low < a_lo), low


def _lcg_step(state_hi, state_lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * MULT + inc`` modulo 2**128."""
    mult_hi, mult_lo = _PCG_MULT
    prod_hi = (
        _mulhi64(state_lo, mult_lo)
        + state_lo * np.uint64(mult_hi)
        + state_hi * np.uint64(mult_lo)
    )
    return _add128(prod_hi, state_lo * np.uint64(mult_lo), inc_hi, inc_lo)


def _halves(words: np.ndarray) -> list[np.ndarray]:
    """The low and high uint32 halves of a uint64 array."""
    low, high = words & np.uint64(_MASK32), words >> np.uint64(32)
    return [low.astype(np.uint32), high.astype(np.uint32)]


def child_seeds(master, count: int) -> np.ndarray:
    """``s[..., k] == derive_seed(master, k)`` for k < count, as uint64.

    ``master`` is an int (numpy integers too), or a uint64 array of masters
    that each get a last axis of ``count`` children.
    """
    if not 0 <= count < 2**32:  # a larger key takes two entropy words
        raise ValueError(f"count must be in 0..2**32-1, got {count}")
    # the master's words, zero-padded to the pool, precede the one key word
    if isinstance(master, np.ndarray):
        master_words = _halves(master[..., None])
    elif (master := operator.index(master)) < 0:
        raise ValueError(f"seed must be non-negative, got {master}")
    else:
        master_words = [
            master >> shift & _MASK32 for shift in range(0, max(master.bit_length(), 1), 32)
        ]
    master_words += [0] * (_POOL_SIZE - len(master_words))
    keys = np.arange(count, dtype=np.uint32)
    (child,) = _state64(_pool(master_words + [keys]), 1)
    return child


def child_uniforms(master, count: int) -> np.ndarray:
    """``u[..., k] == make_rng(derive_seed(master, k)).random()`` for k < count.

    Replays, over ``child_seeds``, what PCG64 does: ``SeedSequence(child)``
    gives its initial state and increment, and the first output (XSL-RR)
    becomes a double in [0, 1).
    """
    child = child_seeds(master, count)
    # PCG64(child) seeds from SeedSequence(child); zero high words hash the
    # same as absent ones, so the child is always two words
    state_hi, state_lo, seq_hi, seq_lo = _state64(_pool(_halves(child)), 4)
    # pcg64 srandom: state = 0; inc = initseq << 1 | 1; step; += initstate; step
    one = np.uint64(1)
    inc_hi = seq_hi << one | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << one | one
    state = _add128(inc_hi, inc_lo, state_hi, state_lo)
    state = _lcg_step(*state, inc_hi, inc_lo)
    # the draw: one more step, then the XSL-RR output of the new state
    high, low = _lcg_step(*state, inc_hi, inc_lo)
    rot = high >> np.uint64(58)
    folded = high ^ low
    out = folded >> rot | folded << (-rot & np.uint64(63))
    return (out >> np.uint64(11)) * 2.0**-53
