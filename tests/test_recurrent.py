import numpy as np
import numpy.testing as npt
import pytest

from minidl import recurrent
from minidl.layers import Dense
from minidl.tensor import Rng


def sig(z):
    return 1.0 / (1.0 + np.exp(-z))


def fd_grads(layer, x, up, eps=1e-5):
    def loss():
        return np.sum(layer.forward(x) * up)

    out = {}
    flat = x.reshape(-1)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss()
        flat[i] = orig - eps
        lo = loss()
        flat[i] = orig
        num[i] = (hi - lo) / (2 * eps)
    out["x"] = num.reshape(x.shape)
    for name, p in layer.params.items():
        pflat = p.reshape(-1)
        pnum = np.zeros_like(pflat)
        for i in range(pflat.size):
            orig = pflat[i]
            pflat[i] = orig + eps
            hi = loss()
            pflat[i] = orig - eps
            lo = loss()
            pflat[i] = orig
            pnum[i] = (hi - lo) / (2 * eps)
        out[name] = pnum.reshape(p.shape)
    return out


class TestEmbedding:
    def build(self, vocab=5, dim=3, **kw):
        layer = recurrent.Embedding(vocab, dim, **kw)
        layer.build((4,), Rng(0))
        return layer

    def test_lookup_rows(self):
        layer = self.build()
        layer.params["W"][:] = np.arange(15, dtype=np.float64).reshape(5, 3)
        out = layer.forward(np.array([[0, 2], [4, 2]]))
        npt.assert_array_equal(out[0, 0], [0, 1, 2])
        npt.assert_array_equal(out[0, 1], [6, 7, 8])
        npt.assert_array_equal(out[1, 0], [12, 13, 14])
        assert out.shape == (2, 2, 3)

    def test_init_range(self):
        layer = recurrent.Embedding(500, 20)
        layer.build((4,), Rng(1))
        W = layer.params["W"]
        assert np.all(W >= -0.05) and np.all(W <= 0.05)
        assert np.std(W) > 0.02  # roughly uniform, not degenerate

    def test_preset_weights(self):
        table = np.arange(6, dtype=np.float64).reshape(3, 2)
        layer = recurrent.Embedding(3, 2, weights=table, trainable=False)
        layer.build((4,), Rng(0))
        npt.assert_array_equal(layer.params["W"], table)
        bad = recurrent.Embedding(3, 2, weights=np.zeros((4, 2)))
        with pytest.raises(ValueError, match="shape"):
            bad.build((4,), Rng(0))

    def test_id_out_of_range(self):
        layer = self.build(vocab=5)
        with pytest.raises(ValueError, match="range"):
            layer.forward(np.array([[0, 5]]))
        with pytest.raises(ValueError, match="range"):
            layer.forward(np.array([[-1, 0]]))

    def test_backward_scatter_adds_repeats(self):
        layer = self.build(vocab=4, dim=2)
        ids = np.array([[1, 1, 3]])
        layer.forward(ids)
        up = np.array([[[1.0, 2.0], [10.0, 20.0], [5.0, 6.0]]])
        dx = layer.backward(up)
        assert dx is None
        npt.assert_array_equal(layer.grads["W"][1], [11.0, 22.0])
        npt.assert_array_equal(layer.grads["W"][3], [5.0, 6.0])
        npt.assert_array_equal(layer.grads["W"][0], [0.0, 0.0])

    def test_frozen_embedding_skips_gradient(self):
        layer = recurrent.Embedding(4, 2, trainable=False)
        layer.build((3,), Rng(0))
        layer.forward(np.array([[0, 1, 2]]))
        out = layer.backward(np.ones((1, 3, 2)))
        assert out is None and layer.grads == {}
        assert layer.trainable is False

    def test_float_ids_cast(self):
        layer = self.build()
        out = layer.forward(np.array([[0.0, 2.0]]))
        npt.assert_array_equal(out[0, 1], layer.params["W"][2])

    def test_param_count(self):
        layer = recurrent.Embedding(148243, 100)
        layer.build((40,), Rng(0))
        assert layer.param_count() == 14824300


class TestSimpleRNN:
    def test_matches_plain_loop(self):
        rng = Rng(3)
        layer = recurrent.SimpleRNN(4, return_sequences=True)
        layer.build((5, 3), rng)
        x = rng.normal((2, 5, 3))
        got = layer.forward(x)
        W, U, b = layer.params["W"], layer.params["U"], layer.params["b"]
        h = np.zeros((2, 4))
        for t in range(5):
            h = np.tanh(h @ W + x[:, t, :] @ U + b)
            npt.assert_allclose(got[:, t, :], h, atol=1e-12)

    def test_last_step_only_by_default(self):
        rng = Rng(4)
        seq = recurrent.SimpleRNN(4, return_sequences=True)
        last = recurrent.SimpleRNN(4)
        seq.build((5, 3), Rng(4))
        last.build((5, 3), Rng(4))
        x = rng.normal((2, 5, 3))
        npt.assert_array_equal(last.forward(x), seq.forward(x)[:, -1, :])
        assert last.out_shape((5, 3)) == (4,)
        assert seq.out_shape((5, 3)) == (5, 4)

    def test_relu_recurrence(self):
        layer = recurrent.SimpleRNN(2, activation="relu")
        layer.build((2, 1), Rng(0))
        layer.params["W"][:] = 0.0
        layer.params["U"][:] = [[1.0, -1.0]]
        out = layer.forward(np.array([[[3.0], [2.0]]]))
        npt.assert_allclose(out, [[2.0, 0.0]])

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_gradients_match_finite_differences(self, return_sequences):
        rng = Rng(9)
        layer = recurrent.SimpleRNN(3, return_sequences=return_sequences)
        layer.build((4, 2), rng)
        x = rng.normal((2, 4, 2))
        up_shape = (2, 4, 3) if return_sequences else (2, 3)
        up = rng.normal(up_shape)
        want = fd_grads(layer, x, up)
        layer.forward(x)
        dx = layer.backward(up)
        npt.assert_allclose(dx, want["x"], atol=1e-6)
        for name in ("W", "U", "b"):
            npt.assert_allclose(layer.grads[name], want[name], atol=1e-6)

    def test_variable_time_length(self):
        layer = recurrent.SimpleRNN(4)
        layer.build((10, 3), Rng(0))
        assert layer.forward(np.zeros((2, 6, 3))).shape == (2, 4)
        with pytest.raises(ValueError, match="simple_rnn"):
            layer.forward(np.zeros((2, 6, 5)))

    def test_param_count(self):
        layer = recurrent.SimpleRNN(800)
        layer.build((100, 57), Rng(0))
        assert layer.param_count() == 800 * 800 + 57 * 800 + 800


class TestLSTM:
    def test_matches_plain_loop(self):
        rng = Rng(13)
        layer = recurrent.LSTM(3, return_sequences=True)
        layer.build((4, 2), rng)
        x = rng.normal((2, 4, 2))
        got = layer.forward(x)
        p = layer.params
        h = np.zeros((2, 3))
        c = np.zeros((2, 3))
        for t in range(4):
            xt = x[:, t, :]
            f = sig(h @ p["Wf"] + xt @ p["Uf"] + p["bf"])
            i = sig(h @ p["Wi"] + xt @ p["Ui"] + p["bi"])
            a = np.tanh(h @ p["Wa"] + xt @ p["Ua"] + p["ba"])
            o = sig(h @ p["Wo"] + xt @ p["Uo"] + p["bo"])
            c = f * c + i * a
            h = o * np.tanh(c)
            npt.assert_allclose(got[:, t, :], h, atol=1e-12)

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_gradients_match_finite_differences(self, return_sequences):
        rng = Rng(21)
        layer = recurrent.LSTM(3, return_sequences=return_sequences)
        layer.build((4, 2), rng)
        x = rng.normal((2, 4, 2))
        up_shape = (2, 4, 3) if return_sequences else (2, 3)
        up = rng.normal(up_shape)
        want = fd_grads(layer, x, up)
        layer.forward(x)
        dx = layer.backward(up)
        npt.assert_allclose(dx, want["x"], rtol=1e-4, atol=1e-6)
        for name in layer.params:
            npt.assert_allclose(layer.grads[name], want[name], rtol=1e-4, atol=1e-6)

    def test_saturated_gates_copy_for_twenty_steps(self):
        # feature 0 is a write flag, feature 1 a value. Saturating the
        # gate preactivations turns the cell into a latch: at the flag
        # the forget gate shuts and the input gate opens; afterwards the
        # cell carries tanh(value) untouched while noise streams past.
        layer = recurrent.LSTM(1, return_sequences=True)
        layer.build((21, 2), Rng(0))
        p = layer.params
        for g in layer.GATES:
            p["W" + g][:] = 0.0
            p["U" + g][:] = 0.0
            p["b" + g][:] = 0.0
        p["bf"][:] = 500.0
        p["Uf"][0, 0] = -1000.0
        p["bi"][:] = -500.0
        p["Ui"][0, 0] = 1000.0
        p["Ua"][1, 0] = 1.0
        p["bo"][:] = 500.0

        rng = Rng(8)
        x = np.zeros((2, 21, 2))
        x[:, :, 1] = rng.normal((2, 21))  # distractor values all along
        x[0, 0] = [1.0, 2.0]
        x[1, 0] = [1.0, -2.0]
        h = layer.forward(x)[:, :, 0]
        want = np.tanh(np.tanh(2.0))
        npt.assert_allclose(h[0, 1:], want, atol=1e-3)
        npt.assert_allclose(h[1, 1:], -want, atol=1e-3)
        # constant across the whole 20-step gap, not just at the end
        assert np.ptp(h[0, 1:]) < 1e-6

    def test_variable_time_length(self):
        layer = recurrent.LSTM(4)
        layer.build((10, 3), Rng(0))
        assert layer.forward(np.zeros((2, 7, 3))).shape == (2, 4)
        with pytest.raises(ValueError, match="lstm"):
            layer.forward(np.zeros((2, 7, 4)))

    def test_param_count(self):
        layer = recurrent.LSTM(128)
        layer.build((100, 100), Rng(0))
        assert layer.param_count() == 4 * (128 * 128 + 100 * 128 + 128)


class TestTimeDistributedDense:
    def test_equals_reshaped_dense(self):
        rng = Rng(31)
        tdd = recurrent.TimeDistributedDense(4, activation="sigmoid")
        tdd.build((5, 3), Rng(31))
        dense = Dense(4, activation="sigmoid")
        dense.build((3,), Rng(31))
        x = rng.normal((2, 5, 3))
        got = tdd.forward(x)
        want = dense.forward(x.reshape(10, 3)).reshape(2, 5, 4)
        npt.assert_array_equal(got, want)

    def test_gradients_match_finite_differences(self):
        rng = Rng(33)
        tdd = recurrent.TimeDistributedDense(4, activation="tanh")
        tdd.build((5, 3), rng)
        x = rng.normal((2, 5, 3))
        up = rng.normal((2, 5, 4))
        want = fd_grads(tdd, x, up)
        tdd.forward(x)
        dx = tdd.backward(up)
        npt.assert_allclose(dx, want["x"], atol=1e-6)
        npt.assert_allclose(tdd.grads["W"], want["W"], atol=1e-6)
        npt.assert_allclose(tdd.grads["b"], want["b"], atol=1e-6)

    def test_preactivation_shape(self):
        tdd = recurrent.TimeDistributedDense(4, activation="softmax")
        tdd.build((5, 3), Rng(0))
        x = Rng(1).normal((2, 5, 3))
        out = tdd.forward(x)
        assert tdd.preactivation.shape == (2, 5, 4)
        npt.assert_allclose(np.sum(out, axis=-1), 1.0, atol=1e-12)

    def test_variable_time_length(self):
        tdd = recurrent.TimeDistributedDense(2)
        tdd.build((9, 3), Rng(0))
        assert tdd.forward(np.zeros((1, 4, 3))).shape == (1, 4, 2)

    def test_param_count(self):
        tdd = recurrent.TimeDistributedDense(57)
        tdd.build((100, 800), Rng(0))
        assert tdd.param_count() == 800 * 57 + 57


class _Stub:
    """Minimal next-token model: emits one-hot of (last id + 1) mod n."""

    def __init__(self, n):
        self.n = n
        self.seen = []

    def predict(self, x):
        self.seen.append(x.shape)
        b, T, n = x.shape
        out = np.zeros((b, T, n))
        last = int(np.argmax(x[0, -1]))
        out[0, -1, (last + 1) % self.n] = 1.0
        return out


class TestGenerateGreedy:
    def test_counts_upward(self):
        model = _Stub(5)
        ids = recurrent.generate_greedy(model, 0, 7, 5)
        assert ids == [0, 1, 2, 3, 4, 0, 1, 2]

    def test_returns_seed_plus_length(self):
        model = _Stub(3)
        ids = recurrent.generate_greedy(model, 2, 10, 3)
        assert len(ids) == 11 and ids[0] == 2

    def test_window_clips_history(self):
        model = _Stub(4)
        recurrent.generate_greedy(model, 0, 8, 4, window=3)
        lengths = [shape[1] for shape in model.seen]
        assert lengths == [1, 2, 3, 3, 3, 3, 3, 3]

    def test_ties_resolve_to_lowest_id(self):
        class Flat:
            def predict(self, x):
                return np.full(x.shape, 0.25)

        ids = recurrent.generate_greedy(Flat(), 3, 4, 4)
        assert ids == [3, 0, 0, 0, 0]
