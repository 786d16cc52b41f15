import math

import numpy as np
import numpy.testing as npt
import pytest

from minidl import tensor
from minidl.tensor import Rng


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42)
        b = Rng(42)
        npt.assert_array_equal(a.uniform((100,)), b.uniform((100,)))
        npt.assert_array_equal(a.normal((101,)), b.normal((101,)))
        assert a.randint(1000) == b.randint(1000)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform((50,)), Rng(2).uniform((50,)))

    def test_block_independence_of_request_sizes(self):
        # the raw stream is counter based, so one request of 10 equals
        # two requests of 5
        a = Rng(9).uniform((10,))
        r = Rng(9)
        b = np.concatenate([r.uniform((5,)), r.uniform((5,))])
        npt.assert_array_equal(a, b)

    def test_uniform_range_and_moments(self):
        u = Rng(3).uniform((200000,))
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_uniform_low_high(self):
        u = Rng(4).uniform((1000,), low=-2.0, high=3.0)
        assert u.min() >= -2.0 and u.max() < 3.0

    def test_normal_moments(self):
        z = Rng(5).normal((200000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01

    def test_normal_mean_std(self):
        z = Rng(6).normal((100000,), mean=4.0, std=0.5)
        assert abs(z.mean() - 4.0) < 0.02
        assert abs(z.std() - 0.5) < 0.02

    def test_known_values_frozen(self):
        # frozen from the first run of this generator; guards against
        # accidental algorithm drift
        u = Rng(0).uniform((3,))
        npt.assert_allclose(
            u,
            [0.8833108082136426, 0.43152799704850997, 0.026433771592597743],
            rtol=0,
            atol=1e-15,
        )

    def test_permutation_is_a_permutation(self):
        p = Rng(7).permutation(1000)
        npt.assert_array_equal(np.sort(p), np.arange(1000))

    def test_permutation_deterministic(self):
        npt.assert_array_equal(Rng(8).permutation(50), Rng(8).permutation(50))

    def test_integers_bounds(self):
        v = Rng(10).integers(7, 5000)
        assert v.min() >= 0 and v.max() <= 6
        # all residues show up
        assert set(v.tolist()) == set(range(7))

    def test_randint_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(0).randint(0)

    def test_child_streams_independent(self):
        r = Rng(11)
        a = r.child(0).uniform((100,))
        b = r.child(1).uniform((100,))
        assert not np.array_equal(a, b)


def whole_array_mix64(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * tensor._MIX1
        z = (z ^ (z >> np.uint64(27))) * tensor._MIX2
        return z ^ (z >> np.uint64(31))


class WholeArrayRng:
    """Rng's draws as minidl computed them before they were blocked:
    every request's raw draws as one array, then one formula over it."""

    def __init__(self, seed):
        self._seed = int(seed) & tensor._U64_MASK
        self._count = 0

    def _raw(self, n):
        with np.errstate(over="ignore"):
            idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
            out = whole_array_mix64(np.uint64(self._seed) + idx * tensor._GAMMA)
        self._count += n
        return out

    def uniform(self, shape=None, low=0.0, high=1.0):
        n = 1 if shape is None else int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        u = (self._raw(max(n, 0)) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        u = low + (high - low) * u
        if shape is None:
            return float(u[0])
        return u.reshape(shape)

    def normal(self, shape=None, mean=0.0, std=1.0):
        n = 1 if shape is None else int(np.prod(shape, dtype=np.int64)) if shape != () else 1
        pairs = (max(n, 0) + 1) // 2
        raw = self._raw(2 * pairs)
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

    def integers(self, n, size):
        u = self.uniform((size,))
        return np.minimum((u * n).astype(np.int64), n - 1)

    def permutation(self, n):
        return np.argsort(self.uniform((n,)), kind="stable")


BLOCK = tensor._BLOCK
# around each boundary of the value blocks (uniform) and of the pair
# blocks (normal, two values per pair)
SIZES = [0, 1, 2, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1,
         3 * BLOCK + 5]
CALLS = {
    "uniform": lambda r, n: r.uniform((n,)),
    "uniform_low_high": lambda r, n: r.uniform((n,), low=-0.05, high=0.05),
    "normal": lambda r, n: r.normal((n,)),
    "normal_mean_std": lambda r, n: r.normal((n,), mean=4.0, std=0.5),
    "integers": lambda r, n: r.integers(7, n),
    "permutation": lambda r, n: r.permutation(n),
}


def assert_same_draw(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("n", SIZES)
def test_blocked_draws_equal_the_whole_array_formulas(call, n):
    # started off a block boundary, so the blocks straddle the request
    got, want = Rng(12), WholeArrayRng(12)
    assert_same_draw(got.uniform((3,)), want.uniform((3,)))
    assert_same_draw(CALLS[call](got, n), CALLS[call](want, n))
    assert got._count == want._count
    assert_same_draw(got.normal((5,)), want.normal((5,)))


def test_interleaved_blocked_draws_equal_the_whole_array_formulas():
    got, want = Rng(2**64 - 3), WholeArrayRng(2**64 - 3)
    for k, n in enumerate(SIZES * 2):
        for call in sorted(CALLS):
            assert_same_draw(CALLS[call](got, n + k), CALLS[call](want, n + k))
            assert got._count == want._count, (call, n)
    for shape in [None, (), (2, 3), (BLOCK + 3, 2)]:
        assert_same_draw(got.uniform(shape, -1.0, 2.0), want.uniform(shape, -1.0, 2.0))
        assert_same_draw(got.normal(shape, 1.0, 3.0), want.normal(shape, 1.0, 3.0))
        assert got._count == want._count
    assert got.randint(1000) == min(int(want.uniform() * 1000), 999)


@pytest.mark.parametrize("offset", [0, 5, BLOCK - 3])
def test_default_uniform_is_the_explicit_formula_across_a_block_boundary(offset):
    # [0, 1) draws skip the scale by high - low and the shift by low:
    # u * 1.0 + 0.0 is u, bit for bit, for every u in [0, 1)
    got, ref = Rng(77), WholeArrayRng(77)
    got.uniform((offset,))
    ref._raw(offset)
    raw = ref._raw(BLOCK + 9)
    units = (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    assert_same_draw(got.uniform((BLOCK + 9,)), units * (1.0 - 0.0) + 0.0)
    assert_same_draw(got.uniform((4,), 0.0, 2.0), ref.uniform((4,), 0.0, 2.0))
