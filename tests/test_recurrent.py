import numpy as np
import numpy.testing as npt
import pytest

from minidl import activations, recurrent
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


def loop_rnn(layer, x, up, preact=False):
    """SimpleRNN forward and backward as per-step loops, the way minidl
    first wrote them: every GEMM and gradient sum inside the time loop.
    Returns (y, dx, grads)."""
    p, fn = layer.params, layer.activation
    b, T, n_in = x.shape
    u = layer.units
    h = np.zeros((b, u))
    hs = np.empty((b, T, u))
    pres = np.empty((b, T, u))
    for t in range(T):
        pre = h @ p["W"] + x[:, t, :] @ p["U"] + p["b"]
        h = fn.fn(pre)
        pres[:, t] = pre
        hs[:, t] = h
    y = hs if layer.return_sequences else hs[:, -1, :]
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dx = np.empty_like(x)
    carry = np.zeros((b, u))
    if layer.return_sequences:
        up_seq = up
    else:
        up_seq = np.zeros((b, T, u))
        up_seq[:, -1, :] = up
    for t in range(T - 1, -1, -1):
        dh = up_seq[:, t, :] + carry
        if preact and layer.return_sequences:
            delta = dh
        else:
            delta = dh * fn.deriv(pres[:, t], hs[:, t])
        h_prev = hs[:, t - 1, :] if t > 0 else np.zeros((b, u))
        grads["W"] += h_prev.T @ delta
        grads["U"] += x[:, t, :].T @ delta
        grads["b"] += np.sum(delta, axis=0)
        dx[:, t, :] = delta @ p["U"].T
        carry = delta @ p["W"].T
    return y, dx, grads


def loop_lstm(layer, x, up):
    """LSTM forward and backward as per-step, per-gate loops, the way
    minidl first wrote them: 4 gate GEMM pairs per step forward, and
    every gate's weight gradient accumulated inside the backward loop.
    Returns (y, dx, grads)."""
    p = layer.params
    b, T, n_in = x.shape
    u = layer.units
    h = np.zeros((b, u))
    c = np.zeros((b, u))
    cache = {k: np.empty((b, T, u)) for k in ("f", "i", "a", "o", "c", "tc", "h")}
    for t in range(T):
        xt = x[:, t, :]
        f = activations.sigmoid(h @ p["Wf"] + xt @ p["Uf"] + p["bf"])
        i = activations.sigmoid(h @ p["Wi"] + xt @ p["Ui"] + p["bi"])
        a = np.tanh(h @ p["Wa"] + xt @ p["Ua"] + p["ba"])
        o = activations.sigmoid(h @ p["Wo"] + xt @ p["Uo"] + p["bo"])
        c = f * c + i * a
        tc = np.tanh(c)
        h = o * tc
        for k, v in (("f", f), ("i", i), ("a", a), ("o", o), ("c", c), ("tc", tc), ("h", h)):
            cache[k][:, t] = v
    y = cache["h"] if layer.return_sequences else h
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    dx = np.empty_like(x)
    carry_h = np.zeros((b, u))
    carry_c = np.zeros((b, u))
    if layer.return_sequences:
        up_seq = up
    else:
        up_seq = np.zeros((b, T, u))
        up_seq[:, -1, :] = up
    for t in range(T - 1, -1, -1):
        f, i, a, o, tc = (cache[k][:, t] for k in ("f", "i", "a", "o", "tc"))
        c_prev = cache["c"][:, t - 1] if t > 0 else np.zeros((b, u))
        h_prev = cache["h"][:, t - 1] if t > 0 else np.zeros((b, u))
        dh = up_seq[:, t, :] + carry_h
        dc = dh * o * (1.0 - tc * tc) + carry_c
        deltas = {
            "o": dh * tc * o * (1.0 - o),
            "f": dc * c_prev * f * (1.0 - f),
            "i": dc * a * i * (1.0 - i),
            "a": dc * i * (1.0 - a * a),
        }
        carry_c = dc * f
        carry_h = np.zeros((b, u))
        dxt = np.zeros((b, n_in))
        for g in ("f", "i", "a", "o"):
            d = deltas[g]
            grads["W" + g] += h_prev.T @ d
            grads["U" + g] += x[:, t, :].T @ d
            grads["b" + g] += np.sum(d, axis=0)
            carry_h += d @ p["W" + g].T
            dxt += d @ p["U" + g].T
        dx[:, t, :] = dxt
    return y, dx, grads


def assert_rel_close(got, want, rel=1e-12):
    """Largest absolute difference within ``rel`` of the largest
    reference magnitude."""
    assert got.shape == want.shape
    err = np.max(np.abs(got - want))
    assert err <= rel * np.max(np.abs(want)), err


def run_layer(layer, x, up, **kw):
    y = layer.forward(x)
    dx = layer.backward(up, **kw)
    # named_grads() lists the gradients in this order
    assert list(layer.grads) == list(layer.params)
    return y, dx, layer.grads


def assert_matches_loop(got, want):
    # the layers sum in another order than the loops (one GEMM over all
    # steps instead of per-step accumulation), so results agree to a
    # relative bound, not bit for bit
    (y, dx, grads), (want_y, want_dx, want_grads) = got, want
    assert_rel_close(y, want_y)
    assert_rel_close(dx, want_dx)
    for name, want in want_grads.items():
        assert_rel_close(grads[name], want)


# the shapes cover a one-row batch, one step and the charlstm benchmark
# shape (batch 32, 100 steps, 29 characters, 128 units)
LOOP_SHAPES = [(3, 6, 4, 5), (1, 6, 4, 5), (3, 1, 4, 5), (32, 100, 29, 128)]


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
        # no steps leave the zero initial state
        npt.assert_array_equal(layer.forward(np.zeros((2, 0, 3))), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="simple_rnn"):
            layer.forward(np.zeros((2, 6, 5)))

    def test_param_count(self):
        layer = recurrent.SimpleRNN(800)
        layer.build((100, 57), Rng(0))
        assert layer.param_count() == 800 * 800 + 57 * 800 + 800

    @pytest.mark.parametrize("shape", LOOP_SHAPES)
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_matches_loop_reference(self, shape, return_sequences):
        b, T, n_in, units = shape
        rng = Rng(51)
        layer = recurrent.SimpleRNN(units, return_sequences=return_sequences)
        layer.build((T, n_in), rng)
        x = rng.normal((b, T, n_in))
        up = rng.normal((b,) + layer.out_shape((T, n_in)))
        assert_matches_loop(run_layer(layer, x, up), loop_rnn(layer, x, up))

    @pytest.mark.parametrize("activation, preact", [("relu", False), ("sigmoid", True)])
    def test_matches_loop_reference_other_paths(self, activation, preact):
        rng = Rng(52)
        layer = recurrent.SimpleRNN(5, activation=activation, return_sequences=True)
        layer.build((6, 4), rng)
        x = rng.normal((3, 6, 4))
        up = rng.normal((3, 6, 5))
        assert_matches_loop(
            run_layer(layer, x, up, preact=preact), loop_rnn(layer, x, up, preact=preact)
        )

    def test_variable_length_matches_loop_reference(self):
        rng = Rng(53)
        layer = recurrent.SimpleRNN(5)
        layer.build((10, 4), rng)
        for T in (7, 3):
            x = rng.normal((3, T, 4))
            up = rng.normal((3, 5))
            assert_matches_loop(run_layer(layer, x, up), loop_rnn(layer, x, up))


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
        # no steps leave the zero initial state
        npt.assert_array_equal(layer.forward(np.zeros((2, 0, 3))), np.zeros((2, 4)))
        with pytest.raises(ValueError, match="lstm"):
            layer.forward(np.zeros((2, 7, 4)))

    def test_param_count(self):
        layer = recurrent.LSTM(128)
        layer.build((100, 100), Rng(0))
        assert layer.param_count() == 4 * (128 * 128 + 100 * 128 + 128)

    @pytest.mark.parametrize("shape", LOOP_SHAPES)
    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_matches_loop_reference(self, shape, return_sequences):
        b, T, n_in, units = shape
        rng = Rng(61)
        layer = recurrent.LSTM(units, return_sequences=return_sequences)
        layer.build((T, n_in), rng)
        for g in layer.GATES:
            # nonzero biases, distinct per gate, so a gate mix-up shows
            layer.params["b" + g][:] = rng.normal((units,), std=0.5)
        x = rng.normal((b, T, n_in))
        up = rng.normal((b,) + layer.out_shape((T, n_in)))
        assert_matches_loop(run_layer(layer, x, up), loop_lstm(layer, x, up))

    def test_variable_length_matches_loop_reference(self):
        rng = Rng(62)
        layer = recurrent.LSTM(5, return_sequences=True)
        layer.build((10, 4), rng)
        for T in (7, 3):
            x = rng.normal((3, T, 4))
            up = rng.normal((3, T, 5))
            assert_matches_loop(run_layer(layer, x, up), loop_lstm(layer, x, up))

    def test_loop_reference_bound_catches_small_gradient_error(self):
        rng = Rng(63)
        layer = recurrent.LSTM(5, return_sequences=True)
        layer.build((6, 4), rng)
        x = rng.normal((3, 6, 4))
        up = rng.normal((3, 6, 5))
        got, want = run_layer(layer, x, up), loop_lstm(layer, x, up)
        assert_matches_loop(got, want)
        got[2]["Wf"][0, 0] += 1e-11 * np.max(np.abs(want[2]["Wf"]))
        with pytest.raises(AssertionError):
            assert_matches_loop(got, want)


@pytest.mark.parametrize(
    "layer", [recurrent.LSTM(3), recurrent.SimpleRNN(3)], ids=["lstm", "simple_rnn"]
)
def test_backward_consumes_forward_cache(layer):
    layer.build((4, 2), Rng(0))
    x = Rng(1).normal((2, 4, 2))
    up = Rng(2).normal((2, 3))
    with pytest.raises(ValueError, match=layer.kind):
        layer.backward(up)
    layer.forward(x)
    first = layer.backward(up).copy()
    with pytest.raises(ValueError, match=layer.kind):
        layer.backward(up)
    layer.forward(x)
    npt.assert_array_equal(layer.backward(up), first)


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
