"""Seedable, splittable 64-bit random generator used everywhere determinism matters.

All randomness in this package (weight init, sampling, shuffling, scene
generation) flows through SplitMix64 so that a run is fully determined by its
seeds and reproduces bit-for-bit across platforms.  The generator has 64 bits
of state; the i-th output after state s0 is mix(s0 + i*GAMMA), which lets a
whole block of outputs be produced with vectorised uint64 arithmetic.  Blocks
are generated in place, chunk by chunk, in the array that is returned: a block
of doubles is written over its own raw outputs.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CHUNK = 1 << 14  # outputs generated per pass of the block routine
_STEPS = np.arange(1, _CHUNK + 1, dtype=np.uint64) * np.uint64(_GAMMA)  # (i+1)*GAMMA
_S30, _S27, _S31, _S11 = (np.uint64(k) for k in (30, 27, 31, 11))
_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix_into(z: np.ndarray, scratch: np.ndarray) -> None:
    # SplitMix64 finaliser, in place on a uint64 array with wrapping arithmetic
    np.right_shift(z, _S30, out=scratch)
    z ^= scratch
    z *= _M1
    np.right_shift(z, _S27, out=scratch)
    z ^= scratch
    z *= _M2
    np.right_shift(z, _S31, out=scratch)
    z ^= scratch


def _mix_int(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64 stream with block generation and per-consumer splitting."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix_int(self._state)

    def split(self) -> "SplitMix64":
        """Child generator whose stream is independent of later parent use."""
        return SplitMix64(self.next_u64())

    def _block(self, n: int, low=None, high=None) -> np.ndarray:
        """The next n outputs, generated in place one chunk at a time: raw
        uint64 when low is None, else the doubles low + (high - low) * u, u
        from the top 53 bits of each output, written over the outputs."""
        if n < 0:
            raise ValueError("block size must be nonnegative")
        out = np.empty(n, dtype=np.uint64)
        scratch = np.empty(min(n, _CHUNK), dtype=np.uint64)
        for lo in range(0, n, _CHUNK):
            z = out[lo:lo + _CHUNK]
            np.add(_STEPS[:z.size], np.uint64((self._state + lo * _GAMMA) & _MASK), out=z)
            _mix_into(z, scratch[:z.size])
            if low is not None:
                z >>= _S11
                u = z.view(np.float64)
                np.multiply(z, 2.0 ** -53, out=u)
                np.multiply(high - low, u, out=u)
                np.add(low, u, out=u)
        self._state = (self._state + n * _GAMMA) & _MASK
        return out if low is None else out.view(np.float64)

    def floats(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), from the top 53 bits of each output
        (0 + 1*u is exactly u for u >= 0)."""
        return self._block(n, 0.0, 1.0)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        size = int(shape) if np.isscalar(shape) else math.prod(shape)
        return self._block(size, low, high).reshape(shape)

    def below(self, bound: int) -> int:
        """Integer in [0, bound).  Modulo bias is < 2**-50 for desk-scale bounds."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def int_range(self, low: int, high: int) -> int:
        """Integer in [low, high] inclusive."""
        if high < low:
            raise ValueError("empty range")
        return low + self.below(high - low + 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
