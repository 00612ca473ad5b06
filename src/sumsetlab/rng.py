"""Seeded random bits for sampling: SplitMix64.

Every seeded feature in this package (sampled verification, random subset
draws, seeded coset-representative choices) derives its bits from this one
generator so that identical seeds reproduce identical output on any platform,
forever.  The algorithm is the public-domain SplitMix64 mixer: 64-bit state,
one addition and three xor-multiply-shift rounds per output word.

Output k of a stream is mix(state + k * gamma), so ``words`` computes any
block of it at once in numpy; the words are those ``next_u64`` gives.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit generator with a tiny, fixed algorithm."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1F4EE3B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def words(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array."""
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self.jump(count)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1F4EE3B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return z

    def jump(self, count: int) -> None:
        """Move the stream on by ``count`` words (back, if negative)."""
        self._state = (self._state + count * _GAMMA) & _MASK64

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % bound

    def nonempty_mask(self, width: int) -> int:
        """Uniform bit mask over the 2**width - 1 nonempty masks: the low
        ``width`` bits of words drawn low word first, redrawn while zero."""
        if width <= 0:
            raise ValueError("width must be positive")
        while True:
            words = sum(self.next_u64() << shift for shift in range(0, width, 64))
            bits = words & ((1 << width) - 1)
            if bits:
                return bits

    def subset_of_size(self, width: int, size: int) -> int:
        """Uniform mask with exactly ``size`` of ``width`` bits set.

        Partial Fisher-Yates shuffle of 0..width-1, taking the first
        ``size`` slots.  Only the slots a swap has touched are stored (an
        untouched slot j holds j), and slot i is never read after step i.
        """
        if not 0 <= size <= width:
            raise ValueError(f"size {size} not in 0..{width}")
        moved = {}
        bits = 0
        for i in range(size):
            j = i + self.below(width - i)
            picked = moved.get(j, j)
            moved[j] = moved.get(i, i)
            bits |= 1 << picked
        return bits
