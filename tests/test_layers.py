import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from conftest import fd_grads
from minidl import layers
from minidl.conv import Conv2D, Pool2D
from minidl.recurrent import LSTM, Embedding, SimpleRNN, TimeDistributedDense
from minidl.tensor import Rng


class TestDense:
    def fixture(self, activation="linear"):
        layer = layers.Dense(2, activation=activation)
        layer.build((3,), Rng(0))
        layer.params["W"][:] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        layer.params["b"][:] = [0.5, -0.5]
        return layer

    def test_forward_manual(self):
        layer = self.fixture()
        out = layer.forward(np.array([[1.0, 0.0, -1.0]]))
        # Manually calculated: [1-5+0.5, 2-6-0.5]
        npt.assert_allclose(out, [[-3.5, -4.5]])

    def test_backward_manual(self):
        layer = self.fixture()
        layer.forward(np.array([[1.0, 0.0, -1.0]]))
        dx = layer.backward(np.array([[1.0, 2.0]]))
        npt.assert_allclose(layer.grads["W"], [[1.0, 2.0], [0.0, 0.0], [-1.0, -2.0]])
        npt.assert_allclose(layer.grads["b"], [1.0, 2.0])
        npt.assert_allclose(dx, [[5.0, 11.0, 17.0]])

    def test_batch_grads_accumulate_over_rows(self):
        layer = self.fixture()
        x = np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 1.0]])
        layer.forward(x)
        layer.backward(np.ones((2, 2)))
        npt.assert_allclose(layer.grads["b"], [2.0, 2.0])
        npt.assert_allclose(layer.grads["W"], x.T @ np.ones((2, 2)))

    def test_preact_skips_activation_derivative(self):
        lin = self.fixture("linear")
        sig = self.fixture("sigmoid")
        x = np.array([[0.2, -0.4, 0.1]])
        up = np.array([[0.3, -0.7]])
        lin.forward(x)
        sig.forward(x)
        dx_lin = lin.backward(up)
        dx_sig = sig.backward(up, preact=True)
        npt.assert_allclose(dx_sig, dx_lin)
        npt.assert_allclose(sig.grads["W"], lin.grads["W"])

    def test_preactivation_property(self):
        layer = self.fixture("sigmoid")
        x = np.array([[1.0, 0.0, -1.0]])
        out = layer.forward(x)
        npt.assert_allclose(layer.preactivation, [[-3.5, -4.5]])
        assert np.all(out != layer.preactivation)

    @pytest.mark.parametrize("activation", ["linear", "sigmoid", "tanh", "relu", "leaky_relu"])
    def test_gradients_match_finite_differences(self, activation):
        rng = Rng(7)
        layer = layers.Dense(4, activation=activation)
        layer.build((5,), rng)
        x = rng.normal((3, 5)) + 0.05  # nudge off relu kinks
        up = rng.normal((3, 4))
        want = fd_grads(lambda: np.sum(layer.forward(x) * up), 1e-6, x=x, **layer.params)
        layer.forward(x)
        dx = layer.backward(up)
        npt.assert_allclose(dx, want["x"], atol=1e-6)
        npt.assert_allclose(layer.grads["W"], want["W"], atol=1e-6)
        npt.assert_allclose(layer.grads["b"], want["b"], atol=1e-6)

    def test_rejects_wrong_width(self):
        layer = self.fixture()
        with pytest.raises(ValueError, match="dense"):
            layer.forward(np.ones((2, 4)))

    def test_rejects_unflat_build(self):
        layer = layers.Dense(2)
        with pytest.raises(ValueError, match="flat"):
            layer.build((3, 3), Rng(0))

    def test_param_count(self):
        layer = layers.Dense(32)
        layer.build((10,), Rng(0))
        assert layer.param_count() == 10 * 32 + 32

    def test_bias_starts_at_zero(self):
        layer = layers.Dense(6)
        layer.build((4,), Rng(3))
        assert np.all(layer.params["b"] == 0.0)

    def test_hyper_round_trip(self):
        layer = layers.Dense(8, activation="leaky_relu", leaky_slope=0.3)
        rebuilt = layers.Dense(**layer.hyper())
        assert rebuilt.units == 8
        assert rebuilt.activation.name == "leaky_relu"
        npt.assert_allclose(rebuilt.activation.deriv(np.array([-1.0]), None), [0.3])


class TestDropout:
    def build(self, rate, seed=0):
        layer = layers.Dropout(rate)
        layer.build((6,), Rng(seed))
        return layer

    def test_inference_is_identity(self):
        layer = self.build(0.5)
        x = np.arange(12, dtype=np.float64).reshape(2, 6)
        npt.assert_array_equal(layer.forward(x, train=False), x)
        npt.assert_array_equal(layer.backward(np.ones((2, 6))), np.ones((2, 6)))

    def test_training_zeroes_and_rescales(self):
        layer = self.build(0.5)
        x = np.ones((200, 6))
        out = layer.forward(x, train=True)
        vals = np.unique(out)
        assert set(vals.tolist()) <= {0.0, 2.0}
        dropped = np.mean(out == 0.0)
        assert 0.4 < dropped < 0.6

    def test_expectation_preserved(self):
        layer = self.build(0.3)
        x = np.full((5000, 6), 3.0)
        out = layer.forward(x, train=True)
        assert abs(np.mean(out) - 3.0) < 0.1

    def test_backward_uses_same_mask(self):
        layer = self.build(0.4)
        x = np.ones((4, 6))
        out = layer.forward(x, train=True)
        dx = layer.backward(np.ones((4, 6)))
        npt.assert_array_equal(dx, out)

    def test_rate_zero_never_drops(self):
        layer = self.build(0.0)
        x = np.ones((3, 6))
        npt.assert_array_equal(layer.forward(x, train=True), x)

    def test_mask_sequence_is_seeded(self):
        a = self.build(0.5, seed=9)
        b = self.build(0.5, seed=9)
        x = np.ones((8, 6))
        for _ in range(3):
            npt.assert_array_equal(a.forward(x, train=True), b.forward(x, train=True))

    def test_mask_is_the_uniform_draw_thresholded_and_scaled(self):
        layer = self.build(0.3, seed=4)
        x = np.full((7, 6), 2.0)
        out = layer.forward(x, train=True)
        want = (Rng(4).uniform(x.shape) >= 0.3) / (1.0 - 0.3)
        # backward of ones hands back the mask itself
        assert layer.backward(np.ones(x.shape)).tobytes() == want.tobytes()
        assert out.tobytes() == (x * want).tobytes()

    def test_accepts_any_rank(self):
        layer = self.build(0.5)
        out = layer.forward(np.ones((2, 3, 4, 5)), train=True)
        assert out.shape == (2, 3, 4, 5)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            layers.Dropout(1.0)
        with pytest.raises(ValueError):
            layers.Dropout(-0.1)


class TestBatchNorm:
    def test_training_output_is_standardized(self):
        layer = layers.BatchNorm(eps=1e-8)
        layer.build((3,), Rng(0))
        x = Rng(4).normal((64, 3), mean=5.0, std=2.0)
        out = layer.forward(x, train=True)
        npt.assert_allclose(np.mean(out, axis=0), 0.0, atol=1e-10)
        npt.assert_allclose(np.std(out, axis=0), 1.0, atol=1e-4)

    def test_gamma_beta_applied(self):
        layer = layers.BatchNorm(eps=1e-8)
        layer.build((2,), Rng(0))
        layer.params["gamma"][:] = [2.0, 0.5]
        layer.params["beta"][:] = [1.0, -1.0]
        x = np.array([[0.0, 0.0], [2.0, 4.0]])
        out = layer.forward(x, train=True)
        # standardized columns are [-1, 1]
        npt.assert_allclose(out, [[-1.0, -1.5], [3.0, -0.5]], atol=1e-6)

    def test_running_stats_update(self):
        layer = layers.BatchNorm(momentum=0.9)
        layer.build((1,), Rng(0))
        x = np.array([[1.0], [3.0]])  # mean 2, biased var 1
        layer.forward(x, train=True)
        npt.assert_allclose(layer.state["running_mean"], [0.9 * 0.0 + 0.1 * 2.0])
        npt.assert_allclose(layer.state["running_var"], [0.9 * 1.0 + 0.1 * 1.0])

    def test_inference_uses_running_stats(self):
        layer = layers.BatchNorm(eps=1e-300)
        layer.build((1,), Rng(0))
        layer.state["running_mean"][:] = [4.0]
        layer.state["running_var"][:] = [4.0]
        out = layer.forward(np.array([[6.0]]), train=False)
        npt.assert_allclose(out, [[1.0]])

    def test_single_row_training_batch_uses_running_statistics(self):
        layer = layers.BatchNorm()
        layer.build((3,), Rng(0))
        layer.state["running_mean"][:] = [1.0, -2.0, 0.5]
        layer.state["running_var"][:] = [4.0, 0.25, 1.0]
        before = {k: v.copy() for k, v in layer.state.items()}
        x = np.array([[3.0, -1.0, 2.0]])
        out = layer.forward(x, train=True)
        npt.assert_array_equal(out, layer.forward(x, train=False))
        for k, v in layer.state.items():
            npt.assert_array_equal(v, before[k])

    def test_single_row_train_backward_matches_finite_differences(self):
        layer = layers.BatchNorm()
        layer.build((4,), Rng(0))
        rng = Rng(12)
        layer.state["running_mean"][:] = rng.normal((4,))
        layer.state["running_var"][:] = rng.uniform((4,), low=0.5, high=2.0)
        layer.params["gamma"][:] = rng.normal((4,))
        x = rng.normal((1, 4), std=1.5)
        up = rng.normal((1, 4))
        want = fd_grads(
            lambda: np.sum(layer.forward(x, train=True) * up), 1e-6, x=x, **layer.params
        )
        layer.forward(x, train=True)
        dx = layer.backward(up)
        npt.assert_allclose(dx, want["x"], atol=1e-6)
        npt.assert_allclose(layer.grads["gamma"], want["gamma"], atol=1e-6)
        npt.assert_allclose(layer.grads["beta"], want["beta"], atol=1e-6)

    def test_train_backward_matches_finite_differences(self):
        layer = layers.BatchNorm()
        layer.build((4,), Rng(0))
        rng = Rng(11)
        x = rng.normal((6, 4), std=1.5)
        up = rng.normal((6, 4))
        want = fd_grads(
            lambda: np.sum(layer.forward(x, train=True) * up), 1e-6, x=x, **layer.params
        )
        layer.forward(x, train=True)
        dx = layer.backward(up)
        npt.assert_allclose(dx, want["x"], atol=1e-6)
        npt.assert_allclose(layer.grads["gamma"], want["gamma"], atol=1e-6)
        npt.assert_allclose(layer.grads["beta"], want["beta"], atol=1e-6)

    def test_inference_backward_is_frozen_scale(self):
        layer = layers.BatchNorm(eps=1e-300)
        layer.build((2,), Rng(0))
        layer.state["running_var"][:] = [4.0, 0.25]
        layer.params["gamma"][:] = [3.0, 3.0]
        layer.forward(np.ones((2, 2)), train=False)
        dx = layer.backward(np.ones((2, 2)))
        npt.assert_allclose(dx, [[1.5, 6.0], [1.5, 6.0]])


class TestFlatten:
    def test_forward_and_back(self):
        layer = layers.Flatten()
        layer.build((2, 3, 2), Rng(0))
        assert layer.out_shape((2, 3, 2)) == (12,)
        x = np.arange(48, dtype=np.float64).reshape(4, 2, 3, 2)
        out = layer.forward(x)
        assert out.shape == (4, 12)
        npt.assert_array_equal(out[0], np.arange(12))
        dx = layer.backward(out)
        npt.assert_array_equal(dx, x)

    def test_no_params(self):
        layer = layers.Flatten()
        layer.build((5, 5), Rng(0))
        assert layer.param_count() == 0


class TestInitializers:
    def test_glorot_spread(self):
        rng = Rng(0)
        w = layers.glorot_normal()((400, 300), rng, 400, 300)
        want = math.sqrt(2.0 / 700.0)
        assert abs(np.std(w) - want) / want < 0.05
        assert abs(np.mean(w)) < 0.01

    def test_fan_in_spread(self):
        rng = Rng(1)
        w = layers.variance_scaling("fan_in")((400, 100), rng, 400, 100)
        want = 1.0 / math.sqrt(400.0)
        assert abs(np.std(w) - want) / want < 0.05

    def test_fixed_normal(self):
        rng = Rng(2)
        w = layers.random_normal(0.02)((500, 100), rng, 500, 100)
        assert abs(np.std(w) - 0.02) / 0.02 < 0.05

    def test_resolution(self):
        fn = layers.get_initializer(("normal", 0.5))
        w = fn((1000, 10), Rng(3), 1000, 10)
        assert abs(np.std(w) - 0.5) / 0.5 < 0.05
        custom = lambda shape, rng, fi, fo: np.zeros(shape)
        assert layers.get_initializer(custom) is custom
        with pytest.raises(ValueError, match="unknown"):
            layers.get_initializer("xavier_uniform")
        with pytest.raises(ValueError, match="unknown"):
            layers.variance_scaling("fan_sideways")


@pytest.mark.parametrize(
    "make, name, value",
    [
        (lambda: layers.Dense(0), "units", 0),
        (lambda: layers.Dense(-1), "units", -1),
        (lambda: Conv2D(0, 3), "filters", 0),
        (lambda: Conv2D(4, 0), "kernel_size", 0),
        (lambda: Conv2D(4, 3, stride=0), "stride", 0),
        (lambda: SimpleRNN(0), "units", 0),
        (lambda: LSTM(0), "units", 0),
        (lambda: TimeDistributedDense(0), "units", 0),
        (lambda: Embedding(0, 4), "vocab_size", 0),
        (lambda: Embedding(10, -2), "dim", -2),
        (lambda: layers.Dense(0.0), "units", 0.0),
        (lambda: Conv2D(4, (3, -1)), "kernel_size", -1),
        (lambda: Conv2D(4, 3, dilation=0), "dilation", 0),
        (lambda: Pool2D((2, 0.0)), "pool_size", 0.0),
        (lambda: Pool2D(2, stride=-3), "stride", -3),
    ],
)
def test_layer_sizes_below_one_rejected(make, name, value):
    with pytest.raises(ValueError, match="%s must be at least 1, got %r" % (name, value)):
        make()


@pytest.mark.parametrize(
    "value",
    [math.inf, -math.inf, math.nan, 2.5, "4", True],
    ids=["inf", "-inf", "nan", "fraction", "string", "bool"],
)
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: layers.Dense(v), "units"),
        (lambda v: Conv2D(v, 3), "filters"),
        (lambda v: Embedding(v, 4), "vocab_size"),
        (lambda v: Embedding(10, v), "dim"),
        (lambda v: SimpleRNN(v), "units"),
        (lambda v: LSTM(v), "units"),
        (lambda v: TimeDistributedDense(v), "units"),
        (lambda v: Conv2D(4, v), "kernel_size"),
        (lambda v: Conv2D(4, (3, v)), "kernel_size"),
        (lambda v: Conv2D(4, 3, stride=v), "stride"),
        (lambda v: Conv2D(4, 3, dilation=v), "dilation"),
        (lambda v: Pool2D(v), "pool_size"),
        (lambda v: Pool2D(2, stride=(v, 2)), "stride"),
    ],
)
def test_layer_sizes_without_an_integer_value_rejected(make, name, value):
    with pytest.raises(ValueError, match="%s must be a whole number, got %r" % (name, value)):
        make(value)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: layers.Dropout("0.5"), "rate must be in [0, 1), got '0.5'"),
        (lambda: layers.BatchNorm(eps=0.0), "eps must be finite and above 0, got 0.0"),
        (lambda: layers.BatchNorm(eps=-1), "eps must be finite and above 0, got -1"),
        (lambda: layers.BatchNorm(eps=math.nan), "eps must be finite and above 0, got nan"),
        (lambda: layers.BatchNorm(eps=math.inf), "eps must be finite and above 0, got inf"),
        (lambda: layers.BatchNorm(eps=10**400), "eps must be finite and above 0, got 1000"),
        (lambda: layers.BatchNorm(momentum=math.nan), "momentum must be in [0, 1], got nan"),
        (lambda: layers.BatchNorm(momentum=1.5), "momentum must be in [0, 1], got 1.5"),
        (lambda: layers.BatchNorm(momentum="0.9"), "momentum must be in [0, 1], got '0.9'"),
        (lambda: LSTM(3, return_sequences="no"),
         "return_sequences must be True or False, got 'no'"),
        (lambda: SimpleRNN(3, return_sequences=1), "return_sequences must be True or False, got 1"),
        (lambda: Embedding(5, 2, trainable="yes"), "trainable must be True or False, got 'yes'"),
        (lambda: layers.Dense(3, init="bogus"), "init: unknown initializer 'bogus'"),
        (lambda: Conv2D(2, 3, init=("normal", "wide")), "init: could not convert"),
        (lambda: layers.Dense(3, activation=3), "activation must be an activation name, got 3"),
        (lambda: SimpleRNN(3, activation="bogus"), "unknown activation 'bogus'"),
        (lambda: layers.Dense(3, activation="leaky_relu", leaky_slope="0.2"),
         "leaky_slope must be in (0, 1], got '0.2'"),
        (lambda: Pool2D(2, mode="median"), "mode must be max or avg, got 'median'"),
    ],
)
def test_layer_arguments_out_of_range_or_of_another_kind_rejected(make, message):
    # refused at construction, before any build
    with pytest.raises(ValueError, match=re.escape(message)):
        make()
