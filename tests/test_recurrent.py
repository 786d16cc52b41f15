import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_grads
from minidl import activations, recurrent
from minidl.data import build_char_dataset
from minidl.layers import BatchNorm, Dense, Dropout
from minidl.model import SequentialModel
from minidl.tensor import Rng


def sig(z):
    return 1.0 / (1.0 + np.exp(-z))


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
        d = fn.deriv(pres[:, t], hs[:, t])
        # with ``preact`` the upstream gradient is with respect to the
        # preactivation already; the carry from later steps is not
        delta = up_seq[:, t, :] + carry * d if preact else (up_seq[:, t, :] + carry) * d
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
        want = fd_grads(lambda: np.sum(layer.forward(x) * up), 1e-5, x=x, **layer.params)
        layer.forward(x)
        dx = layer.backward(up)
        npt.assert_allclose(dx, want["x"], atol=1e-6)
        for name in ("W", "U", "b"):
            npt.assert_allclose(layer.grads[name], want[name], atol=1e-6)

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_fused_sigmoid_loss_matches_finite_differences(self, return_sequences):
        # the loss's gradient is with respect to the preactivation; the
        # carry from later steps still goes through the activation
        model = SequentialModel(
            [recurrent.SimpleRNN(3, activation="sigmoid", return_sequences=return_sequences)],
            seed=1,
        )
        model.compile((4, 2), "binary_crossentropy", "sgd")
        layer, loss = model.layers[0], model.loss
        x = Rng(2).normal((2, 4, 2))
        y = (Rng(3).uniform((2,) + model.output_shape) > 0.5).astype(np.float64)
        want = fd_grads(lambda: loss.value(model.forward(x), y), 1e-6, **layer.params)
        model.backward(loss.grad(model.forward(x), y), preact=True)
        for name in ("W", "U", "b"):
            npt.assert_allclose(layer.grads[name], want[name], atol=1e-8)

    @pytest.mark.parametrize("return_sequences", [False, True])
    def test_fused_softmax_loss_refused_at_compile(self, return_sequences):
        # a softmax has no elementwise derivative for the carry to take,
        # and a last-step output is not the whole step sequence's logits
        model = SequentialModel(
            [
                recurrent.TimeDistributedDense(2),
                recurrent.SimpleRNN(3, activation="softmax", return_sequences=return_sequences),
            ],
            seed=1,
        )
        with pytest.raises(ValueError, match=r"layer 1 \(simple_rnn\).*recurrent softmax"):
            model.compile((4, 2), "categorical_crossentropy", "sgd")
        assert not model.compiled

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
        want = fd_grads(lambda: np.sum(layer.forward(x) * up), 1e-5, x=x, **layer.params)
        layer.forward(x)
        dx = layer.backward(up)
        # perfbench's tracer reads the step count from ``_x`` after backward
        assert layer._x.shape == x.shape
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


@pytest.mark.parametrize("return_sequences", [True, False])
@pytest.mark.parametrize("kind", ["lstm", "simple_rnn"])
def test_second_inference_forward_peaks_no_higher(kind, return_sequences):
    # a forward drops the last call's cache before allocating its own, so
    # back-to-back inference forwards (evaluate's batches) never hold two
    # batches' buffers at once
    cls = recurrent.LSTM if kind == "lstm" else recurrent.SimpleRNN
    layer = cls(32, return_sequences=return_sequences)
    layer.build((50, 8), Rng(0))
    x = Rng(1).normal((16, 50, 8))
    peaks = np.zeros(2, dtype=np.int64)  # filled in place: no new objects
    tracemalloc.start()
    try:
        for i in range(2):
            tracemalloc.reset_peak()
            layer.forward(x)
            peaks[i] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # up to 1 KB that numpy's small-object caches keep from call to call;
    # one batch's cache here is 0.4 MB (SimpleRNN) or 1.4 MB (LSTM)
    assert peaks[1] <= peaks[0] + 1024, peaks


@pytest.mark.parametrize("return_sequences", [True, False])
@pytest.mark.parametrize("kind", ["lstm", "simple_rnn"])
def test_carried_state_continues_a_forward(kind, return_sequences):
    cls = recurrent.LSTM if kind == "lstm" else recurrent.SimpleRNN
    layer = cls(5, return_sequences=return_sequences)
    layer.build((7, 4), Rng(0))
    x = Rng(1).normal((3, 7, 4))
    want = layer.forward(x)
    layer._carry = layer._zero_state(3)
    head = layer.forward(x[:, :3])
    tail = layer.forward(x[:, 3:])
    got = np.concatenate([head, tail], axis=1) if return_sequences else tail
    npt.assert_allclose(got, want, rtol=1e-12, atol=0)
    npt.assert_allclose(layer._carry[0], want[:, -1] if return_sequences else want,
                        rtol=1e-12, atol=0)
    assert len(layer._carry) == (2 if kind == "lstm" else 1)
    # a carried forward is inference only: it leaves nothing to backward
    assert layer._x.shape == (3, 4, 4)
    with pytest.raises(ValueError, match=layer.kind):
        layer.backward(np.ones_like(tail))


@pytest.mark.parametrize("kind", ["lstm", "simple_rnn"])
def test_carried_forward_feeds_one_input_row_to_every_carried_row(kind):
    cls = recurrent.LSTM if kind == "lstm" else recurrent.SimpleRNN
    layer = cls(5, return_sequences=True)
    layer.build((2, 4), Rng(0))
    x = Rng(1).normal((1, 2, 4))
    carry = tuple(Rng(2 + j).normal((3, 5)) for j in range(layer._n_states))
    layer._carry = carry
    want = layer.forward(np.repeat(x, 3, axis=0))
    want_carry = layer._carry
    layer._carry = carry
    got = layer.forward(x)
    assert got.shape == (3, 2, 5)
    npt.assert_allclose(got, want, rtol=1e-12, atol=0)
    for g, w in zip(layer._carry, want_carry):
        npt.assert_allclose(g, w, rtol=1e-12, atol=0)


class ConcatLSTM(recurrent.LSTM):
    """LSTM forward and backward as minidl computed them before the gates
    were stored fused: each call joins the 12 named arrays into W, U and
    b with ``np.concatenate``, the sigmoid takes two exps, and backward
    copies each gate's columns of the fused gradients into that gate's
    named gradient."""

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, n_in = x.shape
        u = self.units
        p = self.params
        W, U, bias = (np.concatenate([p[k + g] for g in self._FUSED], axis=-1) for k in "WUb")
        gates, (h, c) = self._start((x.reshape(b * T, n_in) @ U).reshape(b, T, 4 * u))
        b = len(gates)
        gv = gates.reshape(b, T, 4, u)
        cs = np.empty((b, T, u))
        tcs = np.empty((b, T, u))
        hs = np.empty((b, T, u))
        for t in range(T):
            g = gates[:, t]
            g += h @ W
            g += bias
            z = g[:, : 3 * u]
            g[:, : 3 * u] = np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))
            np.tanh(g[:, 3 * u :], out=g[:, 3 * u :])
            f, i, o, a = gv[:, t, 0], gv[:, t, 1], gv[:, t, 2], gv[:, t, 3]
            c = np.add(f * c, i * a, out=cs[:, t])
            h = np.multiply(o, np.tanh(c, out=tcs[:, t]), out=hs[:, t])
        self._keep(x, (W, U, gates, cs, tcs, hs), (h, c))
        return hs if self.return_sequences else h

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        W, U, gates, cs, tcs, hs, x = self._take_cache()
        b, T, n_in = x.shape
        u = self.units
        up = self._upstream_sequence(upstream, T)
        gv = gates.reshape(b, T, 4, u)
        zeros = np.zeros((b, u))
        carry_h = carry_c = zeros
        for t in range(T - 1, -1, -1):
            f, i, o, a = gv[:, t, 0], gv[:, t, 1], gv[:, t, 2], gv[:, t, 3]
            tc = tcs[:, t]
            c_prev = cs[:, t - 1] if t else zeros
            dh = up[:, t] + carry_h
            dc = dh * o * (1.0 - tc * tc) + carry_c
            carry_c = dc * f
            d_i = dc * a * i * (1.0 - i)
            d_a = dc * i * (1.0 - a * a)
            o *= dh * tc * (1.0 - o)
            f *= dc * c_prev * (1.0 - f)
            i[...] = d_i
            a[...] = d_a
            if t:
                carry_h = gates[:, t] @ W.T
        d2 = gates.reshape(b * T, 4 * u)
        if param_grads:
            fused = {
                "W": recurrent._previous(hs).reshape(b * T, u).T @ d2,
                "U": x.reshape(b * T, n_in).T @ d2,
                "b": d2.sum(axis=0),
            }
            cols = {g: slice(k * u, (k + 1) * u) for k, g in enumerate(self._FUSED)}
            for key, grad in self.grads.items():
                grad[...] = fused[key[0]][..., cols[key[1]]]
        return (d2 @ U.T).reshape(b, T, n_in) if input_grad else None


def outcome(call):
    """``call()``'s result, or the type and message of what it raised."""
    try:
        return "returned", call()
    except Exception as e:  # noqa: BLE001 - compared, not handled
        return "raised", (type(e), str(e))


def assert_same_bits(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised" or want[1] is None:
        assert got[1] == want[1]
    else:
        assert got[1].shape == want[1].shape
        assert got[1].tobytes() == want[1].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    units=st.integers(1, 6), n_in=st.integers(1, 5), T=st.integers(0, 7),
    batch=st.integers(0, 3), sequences=st.booleans(), input_grad=st.booleans(),
    param_grads=st.booleans(), compiled=st.booleans(), carried=st.integers(0, 4),
    scale=st.sampled_from([0.5, 1.0, 4.0]), seed=st.integers(0, 2**16),
)
def test_fused_storage_matches_the_concatenating_lstm(
    units, n_in, T, batch, sequences, input_grad, param_grads, compiled, carried, scale, seed
):
    layer = recurrent.LSTM(units, return_sequences=sequences)
    ref = ConcatLSTM(units, return_sequences=sequences)
    if compiled:
        model = SequentialModel([layer], seed=seed)
        model.compile((max(T, 1), n_in), "mse", "sgd")
        blocks, grad_blocks = layer.storage()
        # forward and backward read and write the model's vectors in place
        for block in blocks.values():
            assert np.shares_memory(block, model.flat_params)
        for block in grad_blocks.values():
            assert np.shares_memory(block, model.flat_grads)
    else:
        layer.build((max(T, 1), n_in), Rng(seed))
    ref.build((max(T, 1), n_in), Rng(seed))
    rng = Rng(seed + 1)
    for name, p in ref.params.items():
        # the same init draws, then distinct nonzero values in every gate
        assert layer.params[name].tobytes() == p.tobytes(), name
        p[...] = rng.normal(p.shape, std=scale)
        layer.params[name][...] = p
    x = rng.normal((batch, T, n_in), std=scale)
    if carried:
        # one ring call: k carried rows, all fed the same one input row
        state = tuple(rng.normal((carried, units)) for _ in range(2))
        x = rng.normal((1, T, n_in), std=scale)
        layer._carry, ref._carry = state, tuple(s.copy() for s in state)
        assert_same_bits(outcome(lambda: layer.forward(x)), outcome(lambda: ref.forward(x)))
        for got, want in zip(layer._carry, ref._carry):
            assert got.tobytes() == want.tobytes()
        return
    assert_same_bits(outcome(lambda: layer.forward(x)), outcome(lambda: ref.forward(x)))
    up = rng.normal((batch,) + layer.out_shape((T, n_in)))
    for grads in (layer.grads, ref.grads):
        for g in grads.values():
            g[...] = 7.0  # what param_grads=False must leave alone
    kw = {"input_grad": input_grad, "param_grads": param_grads}
    assert_same_bits(outcome(lambda: layer.backward(up, **kw)),
                     outcome(lambda: ref.backward(up, **kw)))
    assert list(layer.grads) == list(ref.grads)
    for name, want in ref.grads.items():
        assert layer.grads[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "input_grad, param_grads, carried",
    [(True, True, 0), (True, False, 0), (False, True, 0), (True, True, 100)],
    ids=["both", "input_grad_only", "param_grads_only", "carried_100_rows"],
)
def test_fused_storage_matches_the_concatenating_lstm_at_the_benchmark_shape(
    input_grad, param_grads, carried
):
    # the hypothesis draws stay at units <= 6 and batch <= 3, where BLAS
    # runs other kernels than at charlstm's [32, 100, 29] input
    test_fused_storage_matches_the_concatenating_lstm.hypothesis.inner_test(
        units=128, n_in=29, T=100, batch=32, sequences=True, input_grad=input_grad,
        param_grads=param_grads, compiled=True, carried=carried, scale=1.0, seed=21,
    )


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
        assert got.shape == (2, 5, 4) and got.tobytes() == want.tobytes()
        up = rng.normal((2, 5, 4))
        dx = tdd.backward(up)
        want_dx = dense.backward(up.reshape(10, 4)).reshape(2, 5, 3)
        assert dx.shape == (2, 5, 3) and dx.tobytes() == want_dx.tobytes()
        for k in ("W", "b"):
            assert tdd.grads[k].tobytes() == dense.grads[k].tobytes(), k

    def test_gradients_match_finite_differences(self):
        rng = Rng(33)
        tdd = recurrent.TimeDistributedDense(4, activation="tanh")
        tdd.build((5, 3), rng)
        x = rng.normal((2, 5, 3))
        up = rng.normal((2, 5, 4))
        want = fd_grads(lambda: np.sum(tdd.forward(x) * up), 1e-5, x=x, **tdd.params)
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
        self.layers = []

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
        # the window clips the carried runs; predict sees the newest row
        assert model.seen == [(1, 1, 4)] * 8

    def test_ties_resolve_to_lowest_id(self):
        class Flat:
            layers = []

            def predict(self, x):
                return np.full(x.shape, 0.25)

        ids = recurrent.generate_greedy(Flat(), 3, 4, 4)
        assert ids == [3, 0, 0, 0, 0]

    def test_rejects_bad_window_and_length(self):
        for window in (0, -3):
            with pytest.raises(ValueError, match="window"):
                recurrent.generate_greedy(_Stub(3), 0, 5, 3, window=window)
        with pytest.raises(ValueError, match="length"):
            recurrent.generate_greedy(_Stub(3), 0, -2, 3)
        assert recurrent.generate_greedy(_Stub(3), 2, 0, 3) == [2]

    @pytest.mark.parametrize("seed_id", [-1, 3, 7])
    def test_rejects_seed_id_outside_the_vocabulary(self, seed_id):
        model = _Stub(3)
        with pytest.raises(ValueError, match="seed_id"):
            recurrent.generate_greedy(model, seed_id, 5, 3)
        assert model.seen == []


CHAR_TEXT = "the quick brown fox jumps over the lazy dog. " * 6


@pytest.fixture(scope="module")
def char_lstm():
    """A 2-layer character LSTM trained long enough to predict varied ids."""
    X, Y, vocab = build_char_dataset(CHAR_TEXT, 15)
    model = SequentialModel(
        [
            recurrent.LSTM(24, return_sequences=True),
            Dropout(0.2),
            recurrent.LSTM(24, return_sequences=True),
            Dropout(0.2),
            recurrent.TimeDistributedDense(len(vocab), activation="softmax"),
        ],
        seed=5,
    )
    model.compile((15, len(vocab)), "categorical_crossentropy", "adam")
    model.fit(X[:-1], Y[:-1], epochs=150, batch_size=6)
    return model, len(vocab)


def last_row(out):
    """Row 0's distribution: its last step for sequence output."""
    return out[0, -1] if out.ndim == 3 else out[0]


def rerun_greedy(model, seed_id, length, n_vocab, window):
    """generate_greedy as first written: every character reruns the
    trailing window from a zero state."""
    ids = [int(seed_id)]
    history = np.zeros((1, length + 1, n_vocab))
    for i in range(length):
        history[0, i, ids[-1]] = 1.0
        lo = max(0, i - (window - 1))
        ids.append(int(np.argmax(last_row(model.predict(history[:, lo : i + 1, :])))))
    return ids


def carries(model):
    return [getattr(layer, "_carry", None) for layer in model.layers]


def record_predict(model, monkeypatch):
    """Make ``model.predict`` log the shape of each input; returns the log."""
    seen = []
    predict = model.predict
    monkeypatch.setattr(model, "predict", lambda x: seen.append(x.shape) or predict(x))
    return seen


def greedy_with_probs(generate, model, *args, **kwargs):
    """The ids ``generate`` returns, and the distribution each generated
    id was chosen from: row 0 (at its last step) of each ``predict``."""
    probs = []
    predict = model.predict

    def recording(x):
        out = predict(x)
        probs.append(last_row(out).copy())
        return out

    model.predict = recording
    try:
        return generate(model, *args, **kwargs), probs
    finally:
        del model.predict


def assert_same_as_rerun(model, seed_id, length, n_vocab, window):
    want, want_probs = greedy_with_probs(rerun_greedy, model, seed_id, length, n_vocab, window)
    got, got_probs = greedy_with_probs(
        recurrent.generate_greedy, model, seed_id, length, n_vocab, window=window
    )
    assert got == want
    assert len(got_probs) == len(want_probs) == length
    for g, w in zip(got_probs, want_probs):
        npt.assert_allclose(g, w, rtol=1e-12, atol=0)
    assert carries(model) == [None] * len(model.layers)
    return got


def ring_rows(i, length, window):
    """How many runs are live at character i: those started at 0, or at
    p with p + window - 1 < length, and not yet retired."""
    return sum(1 for p in range(max(0, i - window + 1), i + 1) if p == 0 or p + window <= length)


class TestGenerateCarried:
    @pytest.mark.parametrize("window", [6, 40])
    def test_ids_match_the_rerun(self, char_lstm, window, monkeypatch):
        model, n_vocab = char_lstm
        want = rerun_greedy(model, 3, 30, n_vocab, window)
        assert len(set(want)) > 8
        seen = record_predict(model, monkeypatch)
        assert recurrent.generate_greedy(model, 3, 30, n_vocab, window=window) == want
        # one row and one step per character, before and past a full window
        assert seen == [(1, 1, n_vocab)] * 30
        assert carries(model) == [None] * 5

    @pytest.mark.parametrize("window,length", [(1, 12), (30, 30), (31, 30), (100, 30)])
    def test_probabilities_match_the_rerun(self, char_lstm, window, length):
        model, n_vocab = char_lstm
        assert_same_as_rerun(model, 3, length, n_vocab, window)

    @pytest.mark.parametrize("window,length", [(1, 9), (4, 4), (4, 13), (6, 30), (40, 30)])
    def test_ring_holds_only_runs_still_to_be_read(self, char_lstm, window, length, monkeypatch):
        model, n_vocab = char_lstm
        rows = []
        predict = model.predict
        monkeypatch.setattr(
            model, "predict", lambda x: rows.append(len(model.layers[0]._carry[0])) or predict(x)
        )
        recurrent.generate_greedy(model, 0, length, n_vocab, window=window)
        assert rows == [ring_rows(i, length, window) for i in range(length)]
        assert max(rows) <= window

    @staticmethod
    def raise_at_call(model, n_vocab, monkeypatch, fail_at):
        calls = []
        predict = model.predict

        def failing(x):
            calls.append(x.shape)
            if len(calls) == fail_at:
                assert carries(model)[0] is not None
                raise RuntimeError("boom")
            return predict(x)

        monkeypatch.setattr(model, "predict", failing)
        with pytest.raises(RuntimeError, match="boom"):
            recurrent.generate_greedy(model, 0, 10, n_vocab, window=5)
        assert carries(model) == [None] * 5

    def test_carries_cleared_when_predict_raises(self, char_lstm, monkeypatch):
        self.raise_at_call(*char_lstm, monkeypatch, fail_at=3)

    def test_carries_cleared_when_predict_raises_past_the_window(self, char_lstm, monkeypatch):
        self.raise_at_call(*char_lstm, monkeypatch, fail_at=8)

    @pytest.mark.parametrize("kind", ["lstm", "simple_rnn"])
    def test_last_step_only_model_matches_the_rerun(self, kind, monkeypatch):
        cls = recurrent.LSTM if kind == "lstm" else recurrent.SimpleRNN
        model = SequentialModel([cls(8), Dense(5, activation="softmax")], seed=1)
        model.compile((6, 5), "categorical_crossentropy", "sgd")
        model.flat_params *= 3.0
        ids = assert_same_as_rerun(model, 1, 25, 5, 6)
        assert len(set(ids)) > 2
        seen = record_predict(model, monkeypatch)
        recurrent.generate_greedy(model, 1, 25, 5, window=6)
        assert seen == [(1, 1, 5)] * 25

    @given(
        kind=st.sampled_from(["lstm", "tanh", "relu"]),
        depth=st.integers(1, 2),
        head=st.sampled_from(["time_distributed", "dense", "batchnorm"]),
        units=st.integers(1, 6),
        n_vocab=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1.0, 3.0]),
        window=st.integers(1, 6),
        length=st.integers(0, 15),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_ring_matches_the_rerun(self, kind, depth, head, units, n_vocab, seed, scale, window,
                                    length, data):
        layers = []
        for d in range(depth):
            # a last-step head reads only the top recurrent layer's last step
            sequences = head == "time_distributed" or d < depth - 1
            if kind == "lstm":
                layers.append(recurrent.LSTM(units, return_sequences=sequences))
            else:
                layers.append(
                    recurrent.SimpleRNN(units, activation=kind, return_sequences=sequences)
                )
            layers.append(Dropout(0.3))
        if head == "time_distributed":
            layers.append(recurrent.TimeDistributedDense(n_vocab, activation="softmax"))
        else:
            if head == "batchnorm":
                layers.append(BatchNorm())
            layers.append(Dense(n_vocab, activation="softmax"))
        model = SequentialModel(layers, seed=seed)
        model.compile((window, n_vocab), "categorical_crossentropy", "sgd")
        # larger weights give livelier, less repetitive id sequences
        model.flat_params *= scale
        seed_id = data.draw(st.integers(0, n_vocab - 1))
        assert_same_as_rerun(model, seed_id, length, n_vocab, window)
