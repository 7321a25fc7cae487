"""Deterministic RNG derivation.

All randomness flows from a single 64-bit seed.  Substreams (per band,
per replicate, per subsystem) are derived through ``numpy.random.SeedSequence``
spawn keys, so results do not depend on the order in which substreams are
first used.  The event stream's slices take no ``SeedSequence`` of their
own: each band derives one key here, and slice k of the band is the
counter ``zigzag(k)`` of a counter-based generator under that key.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _encode(part: int | str) -> int:
    """Map a path component to a non-negative int for a spawn key."""
    if isinstance(part, str):
        h = 0
        for ch in part.encode("utf-8"):
            h = (h * 131 + ch) & _MASK64
        return h
    return zigzag(int(part))


def zigzag(n: int) -> int:
    """0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...: negative indices stay
    distinct from positive ones in an unsigned 64-bit word."""
    return (n << 1) & _MASK64 if n >= 0 else ((-n << 1) - 1) & _MASK64


def seed_sequence(seed: int, *path: int | str) -> np.random.SeedSequence:
    return np.random.SeedSequence(int(seed) & _MASK64,
                                  spawn_key=tuple(_encode(p) for p in path))


def rng_from(seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the substream identified by ``path`` under ``seed``."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *path)))


def child_seed(seed: int, *path: int | str) -> int:
    """A derived 64-bit seed (for configs that carry one integer seed)."""
    return int(seed_sequence(seed, *path).generate_state(1, np.uint64)[0])
