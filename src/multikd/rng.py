"""Deterministic pseudo-randomness for datasets, init, and shuffling.

splitmix64 is used as the single generator everywhere: it is tiny,
public-domain, and exactly reproducible from pure 64-bit integer
arithmetic, so identical seeds give identical streams on any platform.
The program draws only in blocks: one pass of numpy uint64 arithmetic,
which wraps modulo 2^64 as the masked Python integers do, holds the
integers of as many next_u64() calls. The permutation, initial weights
and synthetic data are drawn this way; tests/_oracles.py holds the
one-draw-at-a-time uniform, below and Gaussian-pair loops they match.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO64 = float(1 << 64)


class SplitMix64:
    """splitmix64 with the published constants; state is one uint64."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def _block(self, count: int) -> np.ndarray:
        """The next `count` next_u64() outputs as one uint64 array; state advances by count."""
        z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GOLDEN) + np.uint64(self.state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self.state = (self.state + count * _GOLDEN) & _MASK64
        return z

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n).

        Swaps position i = n-1 down to 1 with position j, the high 64
        bits of next_u64() * (i + 1). The n - 1 draws are taken as one
        block, so the generator ends in the state n - 1 next_u64() calls
        leave.
        """
        order = list(range(n))
        draws = max(n - 1, 0)
        high = _mul_high(self._block(draws), np.arange(draws + 1, 1, -1, dtype=np.uint64))
        for i, j in zip(range(n - 1, 0, -1), high.tolist()):
            order[i], order[j] = order[j], order[i]
        return order


def _mul_high(z: np.ndarray, m) -> np.ndarray:
    """High 64 bits of the 128-bit products z * m, from 32-bit halves (none overflows)."""
    m = np.asarray(m, dtype=np.uint64)
    low, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    z_hi, z_lo, m_hi, m_lo = z >> shift, z & low, m >> shift, m & low
    lo_lo, hi_lo = z_lo * m_lo, z_hi * m_lo
    cross = (lo_lo >> shift) + (hi_lo & low) + z_lo * m_hi
    return (hi_lo >> shift) + (cross >> shift) + z_hi * m_hi


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Each next_u64() output in z as a uniform in [0, 1): z / 2^64, as float64."""
    return z / _TWO64


def derive_seed(seed: int, index: int) -> int:
    """Substream seed: first splitmix64 output of state (seed + index)."""
    return SplitMix64((int(seed) + int(index)) & _MASK64).next_u64()
