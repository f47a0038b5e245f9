"""Seeded, reproducible randomness.

Every random draw in the package comes from a numpy PCG64 stream seeded
by a master seed, so one master seed pins down the entire run on any
platform; numpy keeps the ``PCG64`` and ``SeedSequence`` streams stable
(NEP 19). Each engine call draws from one generator, ``make_rng(seed)``.
``derive_seed`` gives independent child seeds for sub-tasks, via
``numpy.random.SeedSequence`` with an index spawn key: a counter-indexed
hash of the master seed.
"""

from __future__ import annotations

import secrets

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
