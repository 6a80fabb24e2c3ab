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

    Wraps the stdlib Mersenne Twister and draws only through its
    ``random()``, whose per-seed sequence Python keeps across versions (the
    reproducibility notes of the ``random`` docs); its ``randrange`` has no
    such promise, so ours is built on ``random()``.  ``derive(k)`` yields an
    independent child stream (for example one per simulation trial) by a
    splitmix64 step on (seed, k), so child sequences never depend on how
    much the parent drew.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)
        # the generator's bound method: a draw costs no extra Python frame
        self.random = self._rng.random  # next uniform draw in [0.0, 1.0), a multiple of 2**-53

    def randrange(self, n: int) -> int:
        """Uniform int in [0, n) by exact rejection sampling on ``random()``.

        Reads k = n.bit_length() bits off 53-bit draws, the first draw giving
        the highest bits and the last its top bits only, and draws again
        while the value is n or more.
        """
        if n < 1:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        draw = self.random
        while True:
            value, need = 0, n.bit_length()
            while need:
                bits = min(need, 53)
                # scaling by a power of two is exact, so this is the draw's top bits
                value = value << bits | int(draw() * (1 << bits))
                need -= bits
            if value < n:
                return value

    def derive(self, index: int) -> "RngStream":
        """Child stream number ``index``; deterministic in (seed, index) only."""
        if index < 0:
            raise ValueError(f"derive index must be >= 0, got {index}")
        return RngStream(_mix64((self.seed + (index + 1) * _GOLDEN) & _MASK64))
