"""The reproducible random number generator behind all of minidl's draws.

Tensors throughout the library are plain ``numpy.ndarray`` objects in
C (row-major) order with dtype float64, operated on with numpy
directly. This module holds only ``Rng``: layer initialization, batch
shuffling, dropout masks and GAN noise all draw from it.
"""

from __future__ import annotations

import math

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1


_BLOCK = 16384
# j * _GAMMA for j = 1 .. _BLOCK, wrapping mod 2**64: added to
# seed + count * _GAMMA, it gives the counters of the next block of draws
_STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * _GAMMA


def _mix64(z, tmp=None):
    # splitmix64 output mixing (Steele, Lea, Flood 2014), in place on a
    # uint64 array, with ``tmp`` (of its shape) as the shifts' scratch.
    # Multiplication wraps mod 2**64 which is intended, so the overflow
    # warning is silenced rather than raised
    with np.errstate(over="ignore"):
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= _MIX1
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= _MIX2
        z ^= np.right_shift(z, np.uint64(31), out=tmp)
        return z


class Rng:
    """Counter-based splitmix64 generator.

    Draw ``i`` (1-indexed) of the raw stream is
    ``mix64(seed + i * 0x9E3779B97F4A7C15)`` where ``mix64`` is the
    splitmix64 finalizer. The counter form makes any block of draws a
    pure function of (seed, position), so sequences are bit-identical
    across runs and platforms. Uniform doubles take the top 53 bits of
    a raw draw; normals come from the Box-Muller transform, consuming
    two raw draws per pair of outputs (the spare value of an odd-length
    request is discarded rather than cached). Draws are computed in
    blocks of ``_BLOCK`` values written straight into the output, with
    the bits of computing the whole request at once.
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _U64_MASK
        self._count = 0

    def _units(self, out, start):
        """Fill ``out`` (1-D float64, at most ``_BLOCK`` values) with the
        top 53 bits of the draws after ``start`` times 2**-53, without
        moving the counter."""
        z = np.uint64((self._seed + start * int(_GAMMA)) & _U64_MASK) + _STEPS[: len(out)]
        _mix64(z, np.empty_like(z))
        z >>= np.uint64(11)
        return np.multiply(z, 2.0 ** -53, out=out)

    def uniform(self, shape=None, low=0.0, high=1.0):
        """Uniform float64 draws in [low, high)."""
        n = 1 if shape is None else int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        u = np.empty(max(n, 0))
        for k in range(0, len(u), _BLOCK):
            block = self._units(u[k : k + _BLOCK], self._count + k)
            # [0, 1) is the units themselves: the scale and shift change no bit
            if (low, high) != (0.0, 1.0):
                block *= high - low
                block += low
        self._count += len(u)
        if shape is None:
            return float(u[0])
        return u.reshape(shape)

    def normal(self, shape=None, mean=0.0, std=1.0):
        """Gaussian draws via Box-Muller on pairs of uniforms."""
        n = 1 if shape is None else int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        z = np.empty(max(n, 0))
        pairs = (len(z) + 1) // 2
        for k in range(0, pairs, _BLOCK):
            m = min(_BLOCK, pairs - k)
            # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1). Adding
            # 2**-53 is exact: it gives (top 53 bits + 1) * 2**-53.
            r = self._units(np.empty(m), self._count + k)
            r += 2.0 ** -53
            theta = self._units(np.empty(m), self._count + pairs + k)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            theta *= 2.0 * math.pi
            # this block's even and odd values; an odd request has no
            # room for its last sine
            for part, trig in ((z[2 * k : 2 * (k + m) : 2], np.cos),
                               (z[2 * k + 1 : 2 * (k + m) : 2], np.sin)):
                v = trig(theta[: len(part)])
                v *= r[: len(part)]
                v *= std
                np.add(v, mean, out=part)
        self._count += 2 * pairs
        if shape is None:
            return float(z[0])
        return z.reshape(shape)

    def randint(self, n):
        """Integer uniform on [0, n). Uses floor(u * n); the bias from
        the 53-bit mantissa is far below anything observable here."""
        if n <= 0:
            raise ValueError("randint needs a positive bound, got %r" % (n,))
        return min(int(self.uniform() * n), n - 1)

    def integers(self, n, size):
        if n <= 0:
            raise ValueError("integers needs a positive bound, got %r" % (n,))
        u = self.uniform((size,))
        return np.minimum((u * n).astype(np.int64), n - 1)

    def permutation(self, n):
        """Deterministic shuffle of range(n) by sorting uniform keys.

        argsort is stable, so even a key collision (probability ~0 with
        53-bit keys) keeps the result well defined.
        """
        keys = self.uniform((n,))
        return np.argsort(keys, kind="stable")

    def child(self, tag: int) -> "Rng":
        """Derive an independent stream for parallel or nested use."""
        return Rng(int(_mix64(np.uint64((self._seed + 0x632BE59BD9B4E019 * (tag + 1)) & _U64_MASK))))

