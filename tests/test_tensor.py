import numpy as np
import numpy.testing as npt
import pytest

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

