"""Seeded random stream with a stable, platform-independent draw sequence."""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4B7C15


def _mix64(x: int) -> int:
    # splitmix64 finalizer
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RngStream:
    """Deterministic uniform stream: same seed, same draws, on any platform.

    Wraps the stdlib Mersenne Twister, whose per-seed output sequence is part
    of its documented contract.  ``derive(k)`` yields an independent child
    stream (for example one per simulation trial) by a splitmix64 step on
    (seed, k), so child sequences never depend on how much the parent drew.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)
        # bound methods of the generator: a draw costs no extra Python frame
        self.random = self._rng.random  # next uniform draw in [0.0, 1.0)
        self.randrange = self._rng.randrange  # randrange(n): uniform int in [0, n)

    def derive(self, index: int) -> "RngStream":
        """Child stream number ``index``; deterministic in (seed, index) only."""
        if index < 0:
            raise ValueError(f"derive index must be >= 0, got {index}")
        return RngStream(_mix64((self.seed + (index + 1) * _GOLDEN) & _MASK64))
