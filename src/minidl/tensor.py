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


def _mix64(z):
    # splitmix64 output mixing (Steele, Lea, Flood 2014). Operates on
    # uint64 arrays; multiplication wraps mod 2**64 which is intended,
    # so the overflow warning is silenced rather than raised
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


class Rng:
    """Counter-based splitmix64 generator.

    Draw ``i`` (1-indexed) of the raw stream is
    ``mix64(seed + i * 0x9E3779B97F4A7C15)`` where ``mix64`` is the
    splitmix64 finalizer. The counter form makes any block of draws a
    pure function of (seed, position), so sequences are bit-identical
    across runs and platforms. Uniform doubles take the top 53 bits of
    a raw draw; normals come from the Box-Muller transform, consuming
    two raw draws per pair of outputs (the spare value of an odd-length
    request is discarded rather than cached).
    """

    def __init__(self, seed: int):
        self._seed = int(seed) & _U64_MASK
        self._count = 0

    def _raw(self, n):
        # n raw uint64 draws, advancing the counter.
        with np.errstate(over="ignore"):
            idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
            out = _mix64(np.uint64(self._seed) + idx * _GAMMA)
        self._count += n
        return out

    def uniform(self, shape=None, low=0.0, high=1.0):
        """Uniform float64 draws in [low, high)."""
        n = 1 if shape is None else int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        u = (self._raw(max(n, 0)) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        u = low + (high - low) * u
        if shape is None:
            return float(u[0])
        return u.reshape(shape)

    def normal(self, shape=None, mean=0.0, std=1.0):
        """Gaussian draws via Box-Muller on pairs of uniforms."""
        n = 1 if shape is None else int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        pairs = (max(n, 0) + 1) // 2
        raw = self._raw(2 * pairs)
        # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1).
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        z = mean + std * z[:n]
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

