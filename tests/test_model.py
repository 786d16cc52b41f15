import json
import math
import re
import struct
import tracemalloc
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minidl import model as model_mod
from minidl.conv import Conv2D, Pool2D
from minidl.layers import BatchNorm, Dense, Dropout, Flatten, get_initializer
from minidl.model import (
    History,
    ModelFileError,
    NanLossError,
    SequentialModel,
    load_model,
    train_val_test_split,
)
from minidl.recurrent import LSTM, Embedding, SimpleRNN, TimeDistributedDense
from minidl.tensor import Rng


def toy_regression(n=32, seed=5):
    rng = Rng(seed)
    X = rng.normal((n, 3))
    w = np.array([[1.0], [-2.0], [0.5]])
    Y = X @ w + 0.1
    return X, Y


def mlp(seed=0, units=(8, 1)):
    m = SequentialModel(seed=seed)
    for u in units[:-1]:
        m.add(Dense(u, activation="tanh"))
    m.add(Dense(units[-1], activation="linear"))
    return m


class TestCompile:
    def test_no_layers(self):
        with pytest.raises(ValueError, match="no layers"):
            SequentialModel().compile((3,), "mse", "sgd")

    def test_shape_chain_error_names_layer(self):
        m = SequentialModel([Conv2D(4, 3), Dense(2)])
        with pytest.raises(ValueError, match=r"layer 1 \(dense\)"):
            m.compile((8, 8, 1), "mse", "sgd")

    @pytest.mark.parametrize("shape, message", [
        ((2.5,), "input_shape[0] must be a whole number, got 2.5"),
        ((0,), "input_shape[0] must be at least 1, got 0"),
        ((4, math.nan), "input_shape[1] must be a whole number, got nan"),
    ])
    def test_input_shape_entries_must_be_whole_numbers_of_at_least_one(self, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SequentialModel([Dense(2)]).compile(shape, "mse", "sgd")

    def test_fused_softmax_requires_softmax_tail(self):
        m = SequentialModel([Dense(3, activation="sigmoid")])
        with pytest.raises(ValueError, match="softmax"):
            m.compile((4,), "categorical_crossentropy", "sgd")

    def test_fused_sigmoid_requires_sigmoid_tail(self):
        m = SequentialModel([Dense(1, activation="tanh")])
        with pytest.raises(ValueError, match="sigmoid"):
            m.compile((4,), "binary_crossentropy", "sgd")

    def test_unfused_loss_takes_any_tail(self):
        m = SequentialModel([Dense(1, activation="tanh")])
        m.compile((4,), "mse", "sgd")
        assert m.compiled and m.output_shape == (1,)

    def test_accuracy_resolves_by_loss(self):
        from minidl import metrics

        m = SequentialModel([Dense(3, activation="softmax")])
        m.compile((4,), "categorical_crossentropy", "sgd", metrics=("accuracy",))
        assert m._metrics[0][1] is metrics.categorical_accuracy
        m2 = SequentialModel([Dense(1, activation="sigmoid")])
        m2.compile((4,), "binary_crossentropy", "sgd", metrics=("accuracy",))
        assert m2._metrics[0][1] is metrics.binary_accuracy
        with pytest.raises(ValueError, match="unknown metric"):
            m2.compile((4,), "binary_crossentropy", "sgd", metrics=("auc",))

    def test_optimizer_instance_passes_through(self):
        from minidl.optim import Adam

        opt = Adam(lr=0.005)
        m = SequentialModel([Dense(1)])
        m.compile((2,), "mse", opt)
        assert m.optimizer is opt

    def test_layers_share_model_rng(self):
        a = SequentialModel([Dense(4), Dense(4)], seed=3)
        b = SequentialModel([Dense(4), Dense(4)], seed=3)
        a.compile((5,), "mse", "sgd")
        b.compile((5,), "mse", "sgd")
        npt.assert_array_equal(a.layers[1].params["W"], b.layers[1].params["W"])
        # second layer draws after the first, so they differ
        assert not np.array_equal(
            a.layers[0].params["W"][: a.layers[1].params["W"].shape[0]],
            a.layers[1].params["W"],
        )


# one layer of every kind whose build checks the input rank, and that rank
RANKED = {
    "dense": (lambda: Dense(2), 1),
    "batchnorm": (BatchNorm, 1),
    "conv2d": (lambda: Conv2D(2, 1), 3),
    "pool2d": (lambda: Pool2D(1), 3),
    "embedding": (lambda: Embedding(5, 2), 1),
    "simple_rnn": (lambda: SimpleRNN(2), 2),
    "lstm": (lambda: LSTM(2), 2),
    "time_distributed_dense": (lambda: TimeDistributedDense(2), 2),
}


@pytest.mark.parametrize(
    "kind", sorted(set(model_mod.LAYER_KINDS) - {"dropout", "flatten"})
)
def test_wrong_rank_build_names_the_kind(kind):
    make, rank = RANKED[kind]
    layer = make()
    assert type(layer) is model_mod.LAYER_KINDS[kind]
    for n in (rank - 1, rank + 1):
        with pytest.raises(ValueError, match=r"^%s expects .+ input, got shape \(" % kind):
            layer.build((3,) * n, Rng(0))
    layer.build((3,) * rank, Rng(0))


class TestForwardBackward:
    def test_two_linear_layers_compose(self):
        m = SequentialModel([Dense(2), Dense(1)])
        m.compile((3,), "mse", "sgd")
        W0, b0 = m.layers[0].params["W"], m.layers[0].params["b"]
        W1, b1 = m.layers[1].params["W"], m.layers[1].params["b"]
        x = Rng(2).normal((4, 3))
        npt.assert_allclose(m.forward(x), (x @ W0 + b0) @ W1 + b1, atol=1e-12)

    def test_gradient_chain_stops_only_at_bottom(self):
        m = SequentialModel([Dense(2), Embedding(5, 3)])
        m.compile((2,), "mse", "sgd")
        # embedding returns no input gradient; with a layer beneath it
        # backward must refuse rather than silently drop the chain
        m.layers[1].forward(np.array([[0, 1]]))
        with pytest.raises(RuntimeError, match="layer 1"):
            m.backward(np.ones((1, 2, 3)))

    def test_train_on_batch_descends(self):
        X, Y = toy_regression()
        m = mlp(seed=1)
        m.compile((3,), "mse", "sgd")
        first, _ = m.train_on_batch(X, Y)
        for _ in range(50):
            last, _ = m.train_on_batch(X, Y)
        assert last < first * 0.5

    def test_full_batch_step_matches_manual_sgd(self):
        X, Y = toy_regression(n=8)
        m = SequentialModel([Dense(1)], seed=4)
        from minidl.optim import SGD

        m.compile((3,), "mse", SGD(lr=0.1))
        W = m.layers[0].params["W"].copy()
        b = m.layers[0].params["b"].copy()
        pred = X @ W + b
        gout = 2.0 * (pred - Y) / pred.size
        wantW = W - 0.1 * (X.T @ gout)
        wantb = b - 0.1 * np.sum(gout, axis=0)
        m.fit(X, Y, epochs=1, batch_size=8)
        npt.assert_allclose(m.layers[0].params["W"], wantW, atol=1e-12)
        npt.assert_allclose(m.layers[0].params["b"], wantb, atol=1e-12)

    def test_apply_gradients_uses_the_given_optimizer(self):
        from minidl.optim import SGD

        X, Y = toy_regression(n=8)
        m = SequentialModel([Dense(1)], seed=4)
        m.compile((3,), "mse", SGD(lr=0.1))
        W = m.layers[0].params["W"].copy()
        out = m.forward(X, train=True)
        m.backward(m.loss.grad(out, Y))
        dW = m.layers[0].grads["W"].copy()
        m.apply_gradients(SGD(lr=0.5))
        npt.assert_array_equal(m.layers[0].params["W"], W - 0.5 * dW)


class TestFit:
    def test_history_epochs_one_based(self):
        X, Y = toy_regression()
        m = mlp()
        m.compile((3,), "mse", "sgd")
        h = m.fit(X, Y, epochs=3, batch_size=8)
        assert h.epochs == [1, 2, 3]
        assert len(h.history["loss"]) == 3

    def test_epochs_zero_is_noop(self):
        X, Y = toy_regression()
        m = mlp()
        m.compile((3,), "mse", "sgd")
        before = m.layers[0].params["W"].copy()
        h = m.fit(X, Y, epochs=0)
        assert h.epochs == []
        npt.assert_array_equal(m.layers[0].params["W"], before)

    def test_same_seed_same_history(self):
        X, Y = toy_regression()
        h1 = mlp(seed=7).compile((3,), "mse", "sgd").fit(X, Y, epochs=3, batch_size=4)
        h2 = mlp(seed=7).compile((3,), "mse", "sgd").fit(X, Y, epochs=3, batch_size=4)
        assert h1.history == h2.history
        h3 = mlp(seed=8).compile((3,), "mse", "sgd").fit(X, Y, epochs=3, batch_size=4)
        assert h1.history["loss"] != h3.history["loss"]

    def test_validation_split_takes_trailing_rows(self):
        X, Y = toy_regression(n=8)
        from minidl.optim import SGD

        m = mlp(seed=2)
        # lr 0 freezes the weights, so every reported number must equal
        # a plain evaluation of the relevant slice
        m.compile((3,), "mse", SGD(lr=0.0))
        h = m.fit(X, Y, epochs=2, batch_size=4, validation_split=0.25)
        train_loss = m.evaluate(X[:6], Y[:6], batch_size=4)["loss"]
        val_loss = m.evaluate(X[6:], Y[6:], batch_size=4)["loss"]
        npt.assert_allclose(h.history["loss"], [train_loss] * 2, atol=1e-12)
        npt.assert_allclose(h.history["val_loss"], [val_loss] * 2, atol=1e-12)

    def test_validation_data_overrides_split(self):
        X, Y = toy_regression(n=8)
        Xv, Yv = toy_regression(n=4, seed=9)
        from minidl.optim import SGD

        m = mlp(seed=2)
        m.compile((3,), "mse", SGD(lr=0.0))
        h = m.fit(X, Y, epochs=1, batch_size=4, validation_data=(Xv, Yv))
        npt.assert_allclose(
            h.last("val_loss"), m.evaluate(Xv, Yv)["loss"], atol=1e-12
        )

    def test_row_count_mismatch(self):
        m = mlp()
        m.compile((3,), "mse", "sgd")
        with pytest.raises(ValueError, match="row counts differ"):
            m.fit(np.zeros((4, 3)), np.zeros((5, 1)), epochs=1)

    @pytest.mark.parametrize("n,split", [(8, 1.0), (0, 0.0), (0, 0.5)])
    def test_empty_training_split_rejected_before_training(self, n, split):
        X, Y = toy_regression(n=8)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        before = m.layers[0].params["W"].copy()
        with pytest.raises(ValueError, match="training split is empty"):
            m.fit(X[:n], Y[:n], epochs=2, validation_split=split)
        npt.assert_array_equal(m.layers[0].params["W"], before)

    @pytest.mark.parametrize("split", [-0.1, 1.5, float("nan")])
    def test_validation_split_outside_unit_interval_rejected(self, split):
        X, Y = toy_regression(n=8)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        before = m.layers[0].params["W"].copy()
        with pytest.raises(ValueError, match="validation_split must be in"):
            m.fit(X, Y, epochs=1, validation_split=split)
        npt.assert_array_equal(m.layers[0].params["W"], before)

    def test_empty_validation_split_rejected_before_training(self):
        X, Y = toy_regression(n=8)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        before = m.layers[0].params["W"].copy()
        with pytest.raises(ValueError, match="validation split is empty"):
            m.fit(X, Y, epochs=1, validation_data=(X[:0], Y[:0]))
        with pytest.raises(ValueError, match="validation split is empty"):
            m.fit(X[:5], Y[:5], epochs=1, validation_split=0.1)  # int(0.5) rows
        npt.assert_array_equal(m.layers[0].params["W"], before)

    def test_nan_loss_aborts_with_location(self):
        X, Y = toy_regression(n=4)
        m = SequentialModel([Dense(1)], seed=0)
        m.compile((3,), "mse", "sgd")
        Y = Y.copy()
        Y[:] = np.nan
        with pytest.raises(NanLossError) as exc:
            m.fit(X, Y, epochs=3, batch_size=2)
        assert exc.value.epoch == 1 and exc.value.batch == 0
        assert "epoch 1" in str(exc.value)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergent_training_aborts_mid_run(self):
        X, Y = toy_regression(n=4)
        from minidl.optim import SGD

        m = SequentialModel([Dense(1)], seed=0)
        m.compile((3,), "mse", SGD(lr=1e30))
        with pytest.raises(NanLossError) as exc:
            m.fit(X * 1e3, Y, epochs=10, batch_size=2)
        assert 1 <= exc.value.epoch <= 10

    def test_verbose_prints_epochs(self, capsys):
        X, Y = toy_regression(n=8)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        m.fit(X, Y, epochs=2, batch_size=4, verbose=True)
        out = capsys.readouterr().out
        assert "epoch 1/2" in out and "epoch 2/2" in out

    def test_metrics_logged(self):
        rng = Rng(0)
        X = rng.normal((20, 4))
        Y = (X[:, :1] > 0).astype(np.float64)
        m = SequentialModel([Dense(1, activation="sigmoid")])
        m.compile((4,), "binary_crossentropy", "sgd", metrics=("accuracy",))
        h = m.fit(X, Y, epochs=2, batch_size=5, validation_split=0.2)
        for col in ("loss", "accuracy", "val_loss", "val_accuracy"):
            assert col in h.history and len(h.history[col]) == 2
            assert np.isfinite(h.history[col]).all()

    def test_batchnorm_trains_through_a_one_row_final_batch(self):
        # 33 rows at batch 32 leave one row for the last batch of each epoch
        X, Y = toy_regression(n=33)
        m = SequentialModel([Dense(4, activation="tanh"), BatchNorm(), Dense(1)], seed=2)
        m.compile((3,), "mse", "sgd")
        h = m.fit(X, Y, epochs=3, batch_size=32)
        assert h.epochs == [1, 2, 3]
        assert np.all(np.isfinite(h.history["loss"]))
        # the one-row step moves the parameters but not the statistics
        stats = {k: v.copy() for k, v in m.layers[1].state.items()}
        before = m.flat_params.copy()
        m.train_on_batch(X[:1], Y[:1])
        assert np.any(m.flat_params != before)
        for k, v in m.layers[1].state.items():
            npt.assert_array_equal(v, stats[k])


def assert_flat_views(m):
    """The storage blocks of the trainable layers (an LSTM's ``_blocks``
    and ``_grad_blocks``, otherwise its ``params`` and ``grads``) tile
    the model's two vectors in layer order. Where a layer's blocks are its
    ``params`` and ``grads`` entries, each entry is a view of its slice,
    laid out in ``named_params`` order. An LSTM's blocks are C-contiguous
    views of their slices, and each of its 12 named arrays is exactly its
    gate's columns of its block, in the fused gate order f, i, o, a."""
    params, grads = m.named_params(), m.named_grads()
    assert list(params) == list(grads)
    assert m.flat_params.size == m.flat_grads.size == sum(p.size for p in params.values())

    def offset(view, base):
        return view.__array_interface__["data"][0] - base.__array_interface__["data"][0]

    lo = 0
    for i, layer in enumerate(m.layers):
        if not layer.trainable:
            continue
        blocks = getattr(layer, "_blocks", layer.params)
        grad_blocks = getattr(layer, "_grad_blocks", layer.grads)
        if blocks is layer.params:
            assert grad_blocks is layer.grads
            for name, p in params.items():
                if not name.startswith("layer%d/" % i):
                    continue
                g = grads[name]
                assert g.shape == p.shape, name
                assert p.flags.c_contiguous and g.flags.c_contiguous, name
                assert np.shares_memory(p, m.flat_params) and offset(p, m.flat_params) == 8 * lo, name
                assert np.shares_memory(g, m.flat_grads) and offset(g, m.flat_grads) == 8 * lo, name
                lo += p.size
            continue
        assert isinstance(layer, LSTM)
        assert list(blocks) == list(grad_blocks) == ["W", "U", "b"]
        u = layer.units
        for key, block in blocks.items():
            grad_block = grad_blocks[key]
            assert block.shape == grad_block.shape and block.shape[-1] == 4 * u, key
            assert block.flags.c_contiguous and grad_block.flags.c_contiguous, key
            assert offset(block, m.flat_params) == offset(grad_block, m.flat_grads) == 8 * lo
            assert np.shares_memory(block, m.flat_params), key
            assert np.shares_memory(grad_block, m.flat_grads), key
            for arrays, base in ((layer.params, block), (layer.grads, grad_block)):
                for k, gate in enumerate("fioa"):
                    view, cols = arrays[key + gate], base[..., k * u : (k + 1) * u]
                    assert view.shape == cols.shape and view.strides == cols.strides, key + gate
                    assert offset(view, base) == offset(cols, base), key + gate
            lo += block.size
    assert lo == m.flat_params.size


def flat_models():
    return {
        "mlp": (SequentialModel([Dense(4, activation="relu"), BatchNorm(), Dense(1)]),
                (3,), "mse", Rng(1).normal((5, 3)), Rng(2).normal((5, 1))),
        "conv": (SequentialModel([Conv2D(2, 3, padding="same"), Pool2D(2), Flatten(),
                                  Dense(3, activation="softmax")]),
                 (6, 6, 1), "categorical_crossentropy", Rng(3).normal((4, 6, 6, 1)),
                 np.eye(3)[[0, 1, 2, 0]]),
        "lstm": (SequentialModel([Embedding(9, 4), LSTM(3), Dense(1, activation="sigmoid")]),
                 (5,), "binary_crossentropy", Rng(4).integers(9, 10).reshape(2, 5),
                 np.array([[0.0], [1.0]])),
        "rnn-tdd": (SequentialModel([SimpleRNN(3, return_sequences=True),
                                     TimeDistributedDense(4, activation="softmax")]),
                    (5, 2), "categorical_crossentropy", Rng(5).normal((2, 5, 2)),
                    np.eye(4)[Rng(6).integers(4, 10)].reshape(2, 5, 4)),
    }


class TestFlatBuffers:
    @pytest.mark.parametrize("kind", sorted(flat_models()))
    def test_params_and_grads_are_views_after_compile_step_and_load(self, kind, tmp_path):
        m, shape, loss, X, Y = flat_models()[kind]
        m.compile(shape, loss, "adam")
        assert_flat_views(m)
        before = m.flat_params.copy()
        m.train_on_batch(X, Y)
        assert_flat_views(m)
        assert np.any(m.flat_params != before) and np.any(m.flat_grads != 0.0)
        path = str(tmp_path / "m.gbk")
        m.save(path)
        loaded = load_model(path)
        assert_flat_views(loaded)
        npt.assert_array_equal(loaded.flat_params, m.flat_params)
        loaded.train_on_batch(X, Y)
        assert_flat_views(loaded)

    def test_frozen_embedding_stays_out_of_the_vectors(self):
        table = Rng(7).normal((6, 2))
        m = SequentialModel([Embedding(6, 2, weights=table, trainable=False), LSTM(3)])
        m.compile((4,), "mse", "sgd")
        assert_flat_views(m)
        assert m.flat_params.size == m.layers[1].param_count()
        assert not np.shares_memory(m.layers[0].params["W"], m.flat_params)
        m.train_on_batch(np.array([[1, 2, 3, 4]]), np.ones((1, 3)))
        npt.assert_array_equal(m.layers[0].params["W"], table)

    def test_time_distributed_dense_trains_in_the_flat_vectors(self):
        m = SequentialModel([SimpleRNN(3, return_sequences=True), TimeDistributedDense(2)])
        m.compile((4, 2), "mse", "sgd")
        tdd = m.layers[1]
        before = {k: p.copy() for k, p in tdd.params.items()}
        for k in ("W", "b"):
            assert tdd.params[k].base is m.flat_params
            assert tdd.grads[k].base is m.flat_grads
        m.train_on_batch(Rng(8).normal((3, 4, 2)), Rng(9).normal((3, 4, 2)))
        for k in ("W", "b"):
            assert tdd.params[k].base is m.flat_params
            assert np.all(tdd.grads[k] != 0.0), k
            assert np.all(tdd.params[k] != before[k]), k

    @pytest.mark.parametrize("make, shape", [
        (lambda: [Dense(512) for _ in range(8)], (512,)),
        (lambda: [LSTM(256, return_sequences=True), TimeDistributedDense(64)], (10, 64)),
    ], ids=["dense", "lstm"])
    def test_compile_lays_each_parameter_out_once(self, make, shape):
        # the two vectors and one parameter's draws: building each layer's
        # own arrays first and copying them in traced 4.00x on both stacks
        m = SequentialModel(make(), seed=0)
        tracemalloc.start()
        try:
            m.compile(shape, "mse", "sgd")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * m.flat_params.nbytes

    @pytest.mark.parametrize("kind", sorted(set(RANKED) - {"pool2d"}))
    def test_a_layer_built_alone_keeps_its_params_in_one_vector(self, kind):
        make, rank = RANKED[kind]
        layer = make()
        layer.build((3,) * rank, Rng(0))
        for arrays in (layer.params, layer.grads):
            bases = {id(a.base) for a in arrays.values()}
            assert len(bases) == 1 and all(a.base.ndim == 1 for a in arrays.values()), kind
            for a in arrays.values():
                assert a.base.size == layer.param_count(), kind
        assert not any(np.shares_memory(p, g) for p in layer.params.values()
                       for g in layer.grads.values())

    def test_in_place_write_reaches_the_next_forward(self):
        # criterion 08's saturated gates, written through a compiled model:
        # forget pinned to 1 and input to 0 after one write keep the cell
        m = SequentialModel([LSTM(1, return_sequences=True)])
        m.compile((21, 2), "mse", "sgd")
        p = m.layers[0].params
        for k in p:
            p[k][:] = 0.0
        p["bf"][:] = 500.0
        p["Ui"][0, 0] = 1000.0
        p["bi"][:] = -500.0
        p["Ua"][0, 0] = 2.0
        p["bo"][:] = 500.0
        assert_flat_views(m)
        X = np.zeros((1, 21, 2))
        X[0, 0, 0] = 1.0
        h = m.predict(X)[0, :, 0]
        assert h[0] == pytest.approx(np.tanh(np.tanh(2.0)), rel=1e-12)
        assert all(v == h[0] for v in h[1:])

    def test_lstm_file_bytes_and_reload_unchanged(self, tmp_path):
        # the 12 gates go to the file as their own arrays, by name, holding
        # what the per-gate initialization drew in the order f, i, a, o
        m = SequentialModel([Embedding(9, 4), LSTM(3), Dense(2, activation="softmax")], seed=5)
        m.compile((5,), "categorical_crossentropy", "adam")
        rng, init = Rng(5), get_initializer("glorot")
        drawn = {"layer0/W": rng.uniform((9, 4), low=-0.05, high=0.05)}
        for g in "fiao":
            drawn["layer1/W" + g] = init((3, 3), rng, 3, 3)
            drawn["layer1/U" + g] = init((4, 3), rng, 4, 3)
            drawn["layer1/b" + g] = np.zeros(3)
        drawn["layer2/W"] = init((3, 2), rng, 3, 2)
        drawn["layer2/b"] = np.zeros(2)
        path = tmp_path / "m.gbk"
        m.save(str(path))
        assert path.read_bytes() == gbk1_bytes(m.manifest(), sorted(drawn.items()))
        # after a step the values move and each named view is still written whole
        m.train_on_batch(Rng(6).integers(9, 10).reshape(2, 5), np.eye(2))
        m.save(str(path))
        raw = path.read_bytes()
        assert raw == gbk1_bytes(m.manifest(), sorted(m.named_params().items()))
        loaded = load_model(str(path))
        assert_flat_views(loaded)
        for name, p in m.named_params().items():
            assert loaded.named_params()[name].tobytes() == p.tobytes(), name
        again = tmp_path / "again.gbk"
        loaded.save(str(again))
        assert again.read_bytes() == raw

    def test_conv_batchnorm_dense_file_bytes(self, tmp_path):
        # Conv2D draws W [kh, kw, c, f] with fans kh*kw*c and kh*kw*f;
        # BatchNorm draws nothing and keeps its statistics as state blocks
        m = SequentialModel([Conv2D(2, 3), Flatten(), BatchNorm(), Dense(3)], seed=8)
        m.compile((4, 4, 1), "mse", "sgd")
        rng, init = Rng(8), get_initializer("glorot")
        conv_W = init((3, 3, 1, 2), rng, 9, 18)
        dense_W = init((8, 3), rng, 8, 3)
        blocks = [
            ("layer0/W", conv_W), ("layer0/b", np.zeros(2)),
            ("layer2/beta", np.zeros(8)), ("layer2/gamma", np.ones(8)),
            ("layer2/state/running_mean", np.zeros(8)),
            ("layer2/state/running_var", np.ones(8)),
            ("layer3/W", dense_W), ("layer3/b", np.zeros(3)),
        ]
        path = tmp_path / "m.gbk"
        m.save(str(path))
        assert path.read_bytes() == gbk1_bytes(m.manifest(), blocks)

    def test_embedding_rnn_tdd_file_bytes(self, tmp_path):
        # SimpleRNN draws W before U; the file holds its blocks by name
        m = SequentialModel(
            [Embedding(9, 4), SimpleRNN(3, return_sequences=True),
             TimeDistributedDense(2, activation="softmax")],
            seed=9,
        )
        m.compile((5,), "categorical_crossentropy", "rmsprop")
        rng, init = Rng(9), get_initializer("glorot")
        emb_W = rng.uniform((9, 4), low=-0.05, high=0.05)
        rnn_W = init((3, 3), rng, 3, 3)
        rnn_U = init((4, 3), rng, 4, 3)
        tdd_W = init((3, 2), rng, 3, 2)
        blocks = [
            ("layer0/W", emb_W),
            ("layer1/U", rnn_U), ("layer1/W", rnn_W), ("layer1/b", np.zeros(3)),
            ("layer2/W", tdd_W), ("layer2/b", np.zeros(2)),
        ]
        path = tmp_path / "m.gbk"
        m.save(str(path))
        assert path.read_bytes() == gbk1_bytes(m.manifest(), blocks)


def gbk1_bytes(manifest, arrays):
    """A GBK1 file laid out as the ``minidl.model`` docstring says, from
    the manifest and (name, array) pairs in file order."""
    body = json.dumps(manifest, sort_keys=True).encode("utf-8")
    parts = [b"GBK1", struct.pack("<HI", 1, len(body)), body]
    for name, arr in arrays:
        nb = name.encode("utf-8")
        parts += [struct.pack("<H", len(nb)), nb, struct.pack("<B", arr.ndim)]
        parts += [struct.pack("<I", d) for d in arr.shape]
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    payload = b"".join(parts)
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


class TestHistory:
    def test_csv_header_and_repr_floats(self, tmp_path):
        h = History(["accuracy"], has_validation=True)
        h.append(1, {"loss": 0.1, "accuracy": 0.5, "val_loss": 0.2,
                     "val_accuracy": 0.25})
        path = tmp_path / "hist.csv"
        h.save_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss,accuracy,val_loss,val_accuracy"
        assert lines[1] == "1,0.1,0.5,0.2,0.25"
        # repr round-trips exactly
        assert float(lines[1].split(",")[1]) == 0.1

    def test_no_validation_columns_absent(self, tmp_path):
        h = History([], has_validation=False)
        h.append(1, {"loss": 1.0 / 3.0})
        path = tmp_path / "hist.csv"
        h.save_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss"
        assert lines[1] == "1," + repr(1.0 / 3.0)


class TestEvaluatePredict:
    def test_predict_batches_match_single_pass(self):
        X, _ = toy_regression(n=50)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        npt.assert_allclose(
            m.predict(X, batch_size=7), m.predict(X, batch_size=50), rtol=1e-12
        )

    def test_evaluate_batch_size_invariant(self):
        X, Y = toy_regression(n=24)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        a = m.evaluate(X, Y, batch_size=5)["loss"]
        b = m.evaluate(X, Y, batch_size=24)["loss"]
        npt.assert_allclose(a, b, atol=1e-12)

    def test_evaluate_empty_set_rejected(self):
        m = mlp()
        m.compile((3,), "mse", "sgd")
        with pytest.raises(ValueError, match="evaluation set is empty"):
            m.evaluate(np.zeros((0, 3)), np.zeros((0, 1)))

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, math.nan, True])
    @pytest.mark.parametrize("method", ["fit", "evaluate", "predict"])
    def test_batch_size_below_one_rejected(self, method, batch_size):
        X, Y = toy_regression(n=8)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        args = {"fit": (X, Y, 1), "evaluate": (X, Y), "predict": (X,)}[method]
        what = "at least 1" if batch_size < 1 else "a whole number"
        with pytest.raises(ValueError, match=re.escape(
                "batch_size must be %s, got %r" % (what, batch_size))):
            getattr(m, method)(*args, batch_size=batch_size)

    def test_predict_on_no_rows_gives_empty_output(self):
        m = SequentialModel([
            SimpleRNN(6, return_sequences=True),
            TimeDistributedDense(4, activation="softmax"),
        ])
        m.compile((5, 3), "categorical_crossentropy", "rmsprop")
        out = m.predict(np.zeros((0, 5, 3)))
        assert out.shape == (0, 5, 4)

    def test_evaluate_fused_loss_uses_logits(self):
        rng = Rng(3)
        X = rng.normal((10, 4))
        Y = np.zeros((10, 3))
        Y[np.arange(10), np.arange(10) % 3] = 1.0
        m = SequentialModel([Dense(3, activation="softmax")])
        m.compile((4,), "categorical_crossentropy", "sgd")
        got = m.evaluate(X, Y)["loss"]
        probs = m.predict(X)
        want = -np.mean(np.log(probs[Y.astype(bool)]))
        npt.assert_allclose(got, want, atol=1e-10)


class TestSummary:
    def test_param_counts(self):
        m = SequentialModel([Dense(32, activation="relu"),
                             Dense(32, activation="relu"),
                             Dense(1, activation="sigmoid")])
        m.compile((10,), "binary_crossentropy", "sgd")
        assert m.param_counts() == [352, 1056, 33]
        assert m.total_params() == 1441

    def test_summary_text(self):
        m = SequentialModel([Dense(4), Dropout(0.5), Dense(2)])
        m.compile((3,), "mse", "sgd")
        text = m.summary()
        assert "dense" in text and "dropout" in text
        assert "26" in text  # total: 16 + 0 + 10


@pytest.fixture(scope="module")
def mutation_model(tmp_path_factory):
    """A saved, trained BatchNorm MLP: the path each mutation is
    written to, and the original bytes (also kept at path + ".orig")."""
    X, Y = toy_regression()
    m = SequentialModel([Dense(4, activation="relu"), BatchNorm(), Dense(1)])
    m.compile((3,), "mse", "sgd")
    m.fit(X, Y, epochs=2, batch_size=8)
    path = str(tmp_path_factory.mktemp("mutate") / "m.gbk")
    m.save(path + ".orig")
    with open(path + ".orig", "rb") as f:
        raw = f.read()
    return path, raw


# the models the manifest mutator edits: (layers, input shape) by name
MUTATED_MODELS = {
    "mlp": (
        lambda: [Dense(2, activation="leaky_relu", leaky_slope=0.3), BatchNorm(), Dropout(0.5),
                 Dense(1)],
        (3,),
    ),
    "conv": (
        lambda: [Conv2D(2, 3, padding="same", activation="relu"), Pool2D(2), Flatten(), Dense(1)],
        (4, 4, 1),
    ),
    "seq": (
        lambda: [Embedding(6, 3), LSTM(2, return_sequences=True),
                 SimpleRNN(2, return_sequences=True),
                 TimeDistributedDense(2, activation="softmax")],
        (5,),
    ),
}

# hyperparameter values a mutation writes: wrong JSON types, zero,
# negative, fractional, infinite, huge and nested
MUTATED_VALUES = [
    0, -1, 1, 2, 2.5, 1e300, 10**12, 10**400, float("inf"), float("-inf"), float("nan"),
    "4", "relu", "same", "max", True, False, None, [2, 2], [0, 1], [2.5, 1], [[2]], {"units": 2},
]


def mutate_manifest(data, manifest):
    """Apply one structural edit drawn from ``data`` to a saved manifest:
    a layer kind changed, missing, added or dropped; a hyper key missing,
    extra or renamed; a hyper value or an input_shape entry replaced; or
    the input rank changed."""
    layers = manifest["layers"]
    i = data.draw(st.integers(0, len(layers) - 1), label="layer")
    entry, hyper = layers[i], layers[i]["hyper"]
    kinds = st.sampled_from(sorted(model_mod.LAYER_KINDS) + ["bogus"])
    keys = sorted(hyper)
    names = st.sampled_from(sorted({k for e in layers for k in e["hyper"]} | {"init", "bogus"}))
    values = st.sampled_from(MUTATED_VALUES)
    shape = manifest["input_shape"]
    op = data.draw(st.sampled_from([
        "kind", "no_kind", "extra_layer", "no_layer", "no_key", "extra_key", "renamed_key",
        "value", "input_shape", "input_rank",
    ]), label="op")
    if op == "kind":
        entry["kind"] = data.draw(kinds)
    elif op == "no_kind":
        del entry["kind"]
    elif op == "extra_layer":
        layers.insert(i, {"kind": data.draw(kinds), "hyper": {}})
    elif op == "no_layer":
        del layers[i]
    elif op == "extra_key":
        hyper[data.draw(names)] = data.draw(values)
    elif op == "input_shape":
        j = data.draw(st.integers(0, len(shape) - 1))
        shape[j] = data.draw(st.sampled_from([0, -1, 1, 2, 3, 7, 10**12, 2.0, "3", None]))
    elif op == "input_rank" and data.draw(st.booleans()):
        shape.append(3)
    elif op == "input_rank":
        shape.pop()
    elif keys:
        key = data.draw(st.sampled_from(keys), label="key")
        if op == "no_key":
            del hyper[key]
        elif op == "renamed_key":
            hyper[data.draw(names)] = hyper.pop(key)
        else:
            hyper[key] = data.draw(values)


class TestPersistence:
    def roundtrip(self, m, X, tmp_path, name="m.gbk"):
        path = str(tmp_path / name)
        m.save(path)
        loaded = load_model(path)
        npt.assert_array_equal(loaded.predict(X), m.predict(X))
        return loaded

    def test_mlp_roundtrip_bit_identical(self, tmp_path):
        X, Y = toy_regression()
        m = SequentialModel([Dense(8, activation="relu"),
                             Dense(1, activation="sigmoid")])
        m.compile((3,), "binary_crossentropy", "adam")
        m.fit(X, (Y > 0).astype(float), epochs=2, batch_size=8)
        loaded = self.roundtrip(m, X, tmp_path)
        assert loaded.loss.name == "binary_crossentropy"
        assert loaded.optimizer.name == "adam"

    def test_conv_stack_roundtrip(self, tmp_path):
        m = SequentialModel([
            Conv2D(4, 3, padding="same", activation="relu"),
            Pool2D(2),
            Flatten(),
            Dense(10, activation="softmax"),
        ])
        m.compile((8, 8, 1), "categorical_crossentropy", "adam")
        X = Rng(1).normal((3, 8, 8, 1))
        self.roundtrip(m, X, tmp_path)

    def test_recurrent_roundtrip(self, tmp_path):
        m = SequentialModel([
            Embedding(20, 6),
            LSTM(5),
            Dense(1, activation="sigmoid"),
        ])
        m.compile((7,), "binary_crossentropy", "adam")
        X = Rng(2).integers(20, 28).reshape(4, 7)
        self.roundtrip(m, X, tmp_path)

    def test_rnn_tdd_roundtrip(self, tmp_path):
        m = SequentialModel([
            SimpleRNN(6, return_sequences=True),
            TimeDistributedDense(4, activation="softmax"),
        ])
        m.compile((5, 4), "categorical_crossentropy", "rmsprop")
        X = Rng(3).normal((2, 5, 4))
        self.roundtrip(m, X, tmp_path)

    def test_batchnorm_state_round_trips(self, tmp_path):
        X, Y = toy_regression()
        m = SequentialModel([Dense(4), BatchNorm(), Dense(1)])
        m.compile((3,), "mse", "sgd")
        m.fit(X, Y, epochs=2, batch_size=8)
        stats = m.layers[1].state["running_mean"].copy()
        assert np.any(stats != 0.0)
        loaded = self.roundtrip(m, X, tmp_path)
        npt.assert_array_equal(loaded.layers[1].state["running_mean"], stats)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.gbk"
        m = SequentialModel([Dense(1)])
        m.compile((3,), "mse", "sgd")
        m.save(str(path))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WAT1"
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="magic"):
            load_model(str(path))

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "w.gbk"
        m = SequentialModel([Dense(1)])
        m.compile((3,), "mse", "sgd")
        m.save(str(path))
        raw = bytearray(path.read_bytes())
        raw[-12] ^= 0xFF  # a weight byte, far from the structure fields
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="checksum"):
            load_model(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "w.gbk"
        m = SequentialModel([Dense(1)])
        m.compile((3,), "mse", "sgd")
        m.save(str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ModelFileError, match="truncated|checksum"):
            load_model(str(path))
        path.write_bytes(raw[:3])
        with pytest.raises(ModelFileError, match="truncated"):
            load_model(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "w.gbk"
        m = SequentialModel([Dense(1)])
        m.compile((3,), "mse", "sgd")
        m.save(str(path))
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ModelFileError, match="version"):
            load_model(str(path))

    def test_bad_hyperparameters_in_valid_file_rejected(self, tmp_path):
        # a file whose checksum holds but whose manifest names a
        # constructor argument the layer does not take
        path = tmp_path / "w.gbk"
        m = SequentialModel([Dense(1)])
        m.compile((3,), "mse", "sgd")
        m.save(str(path))
        raw = path.read_bytes()[:-4]
        raw = raw.replace(b'"units": 1', b'"unitz": 1')
        path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
        with pytest.raises(ModelFileError, match="layer 0"):
            load_model(str(path))

    @staticmethod
    def resealed(tmp_path, edit):
        """A saved Dense(2), BatchNorm(), Dense(1) model whose bytes before
        the checksum ``edit`` rewrote, with the checksum recomputed so
        that only the edit is wrong. Returns the path."""
        path = tmp_path / "m.gbk"
        m = SequentialModel([Dense(2), BatchNorm(), Dense(1)])
        m.compile((3,), "mse", "sgd")
        m.save(str(path))
        raw = edit(path.read_bytes()[:-4])
        path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
        return str(path)

    def test_non_utf8_block_name_in_valid_file_rejected(self, tmp_path):
        path = self.resealed(tmp_path, lambda raw: raw.replace(b"layer0/W", b"layer0/\xff"))
        with pytest.raises(ModelFileError, match="block name"):
            load_model(path)

    def test_longer_state_block_in_valid_file_rejected(self, tmp_path):
        def edit(raw):
            # one more value in running_mean, its extent raised to match
            name = b"layer1/state/running_mean"
            at = raw.index(name) + len(name) + 1  # past the name and the rank byte
            (n,) = struct.unpack("<I", raw[at : at + 4])
            end = at + 4 + 8 * n
            return (raw[:at] + struct.pack("<I", n + 1) + raw[at + 4 : end]
                    + struct.pack("<d", 0.5) + raw[end:])

        with pytest.raises(ModelFileError, match="running_mean"):
            load_model(self.resealed(tmp_path, edit))

    def test_extra_block_in_valid_file_rejected(self, tmp_path):
        name = b"layer3/W"
        block = struct.pack("<H", len(name)) + name + struct.pack("<BId", 1, 1, 1.0)
        with pytest.raises(ModelFileError, match="layer3/W"):
            load_model(self.resealed(tmp_path, lambda raw: raw + block))

    @staticmethod
    def with_manifest(tmp_path, edit, layers=lambda: [Dense(1)], input_shape=(3,)):
        """A saved model (by default Dense(1)) whose manifest ``edit``
        rewrote, with the checksum recomputed so that only the manifest
        is wrong. Returns the path."""
        path = tmp_path / "m.gbk"
        m = SequentialModel(layers())
        m.compile(input_shape, "mse", "sgd")
        m.save(str(path))
        raw = path.read_bytes()[:-4]
        (mlen,) = struct.unpack("<I", raw[6:10])
        manifest = json.loads(raw[10 : 10 + mlen])
        edit(manifest)
        mbytes = json.dumps(manifest).encode("utf-8")
        raw = raw[:6] + struct.pack("<I", len(mbytes)) + mbytes + raw[10 + mlen :]
        path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
        return str(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.pop("input_shape"),
            lambda m: m["layers"][0].pop("kind"),
            lambda m: m.update(layers=5),
        ],
        ids=["no_input_shape", "no_layer_kind", "layers_not_a_list"],
    )
    def test_malformed_manifest_in_valid_file_rejected(self, tmp_path, edit):
        path = self.with_manifest(tmp_path, edit)
        with pytest.raises(ModelFileError, match="malformed"):
            load_model(path)

    @pytest.mark.parametrize("key", ["pool_size", "stride"])
    def test_pool_size_zero_in_valid_file_rejected(self, tmp_path, key):
        def edit(manifest):
            manifest["layers"][0]["hyper"][key] = [0, 0]

        path = self.with_manifest(
            tmp_path, edit, lambda: [Pool2D(2), Flatten(), Dense(1)], (4, 4, 1)
        )
        with pytest.raises(ModelFileError, match="layer 0 .*%s must be at least 1" % key):
            load_model(path)

    def test_infinite_units_in_valid_file_rejected(self, tmp_path):
        def edit(manifest):
            manifest["layers"][0]["hyper"]["units"] = float("inf")

        path = self.with_manifest(tmp_path, edit)
        assert b'"units": Infinity' in open(path, "rb").read()
        with pytest.raises(ModelFileError, match="layer 0"):
            load_model(path)

    def test_batchnorm_eps_zero_in_valid_file_rejected(self, tmp_path):
        # eps 0 normalizes a constant feature to NaN in training
        def edit(manifest):
            manifest["layers"][1]["hyper"]["eps"] = 0.0

        path = self.with_manifest(tmp_path, edit, lambda: [Dense(2), BatchNorm()])
        with pytest.raises(ModelFileError, match="cannot rebuild layer 1 .*eps must be"):
            load_model(path)

    def test_infinite_conv_padding_in_valid_file_rejected(self, tmp_path):
        def edit(manifest):
            manifest["layers"][0]["hyper"]["padding"] = float("inf")

        path = self.with_manifest(
            tmp_path, edit, lambda: [Conv2D(2, 3), Flatten(), Dense(1)], (4, 4, 1)
        )
        # refused when the layer is constructed, before anything is built
        with pytest.raises(ModelFileError, match="cannot rebuild layer 0 .*padding"):
            load_model(path)

    @pytest.mark.parametrize("padding", [-1, 1.5])
    def test_negative_or_fractional_conv_padding_in_valid_file_rejected(self, tmp_path, padding):
        def edit(manifest):
            manifest["layers"][0]["hyper"]["padding"] = padding

        path = self.with_manifest(
            tmp_path, edit, lambda: [Conv2D(2, 3), Flatten(), Dense(1)], (6, 6, 1)
        )
        assert b'"padding": %s' % str(padding).encode() in open(path, "rb").read()
        with pytest.raises(ModelFileError, match="cannot rebuild layer 0 .*padding"):
            load_model(path)

    def test_unknown_loss_in_valid_file_rejected(self, tmp_path):
        path = self.with_manifest(tmp_path, lambda m: m.update(loss="hinge"))
        with pytest.raises(ModelFileError, match="hinge"):
            load_model(path)

    @pytest.mark.parametrize("units", [2 * 10**6, 10**12])
    def test_huge_layer_in_valid_file_refused_before_anything_is_allocated(self, tmp_path, units):
        # a Dense(1) on a 3-wide input whose manifest asks for ``units``
        # units: building them first traced 244 MB for 2e6 units
        def edit(manifest):
            manifest["layers"][0]["hyper"]["units"] = units

        path = self.with_manifest(tmp_path, edit)
        tracemalloc.start()
        try:
            with pytest.raises(ModelFileError, match="architecture mismatch at block 0"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_leaky_time_distributed_dense_round_trips_its_slope(self, tmp_path):
        m = SequentialModel([
            SimpleRNN(4, return_sequences=True),
            TimeDistributedDense(3, activation="leaky_relu", leaky_slope=0.3),
        ])
        m.compile((5, 2), "mse", "sgd")
        assert m.manifest()["layers"][1]["hyper"] == {
            "units": 3, "activation": "leaky_relu", "leaky_slope": 0.3,
        }
        loaded = self.roundtrip(m, Rng(4).normal((2, 5, 2)), tmp_path)
        npt.assert_array_equal(loaded.layers[1].activation.fn(np.array([-1.0])), [-0.3])
        assert loaded.manifest() == m.manifest()

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_manifest_mutation_is_refused_or_keeps_the_arrays(self, tmp_path_factory, data):
        # a resealed file whose manifest one structural edit changed: the
        # load either raises ModelFileError or gives the saved arrays
        name = data.draw(st.sampled_from(sorted(MUTATED_MODELS)), label="model")
        layers, shape = MUTATED_MODELS[name]
        tmp = tmp_path_factory.getbasetemp() / "manifest-mutations"
        tmp.mkdir(exist_ok=True)
        path = self.with_manifest(tmp, lambda m: mutate_manifest(data, m), layers, shape)
        try:
            loaded = load_model(path)
        except ModelFileError:
            return
        original = SequentialModel(layers())
        original.compile(shape, "mse", "sgd")
        got, want = list(loaded._blocks()), list(original._blocks())
        assert [k for k, _ in got] == [k for k, _ in want]
        for (k, a), (_, b) in zip(got, want):
            npt.assert_array_equal(a, b, err_msg=k)

    @given(
        kind=st.sampled_from(["flip", "truncate", "insert"]),
        data=st.data(),
        bit=st.integers(0, 7),
        byte=st.integers(0, 255),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_single_mutation_raises_model_file_error(
        self, mutation_model, kind, data, bit, byte
    ):
        path, raw = mutation_model
        raw = bytearray(raw)
        at = data.draw(st.integers(0, len(raw) - 1), label="position")
        if kind == "flip":
            raw[at] ^= 1 << bit
        elif kind == "truncate":
            del raw[at:]
        else:
            raw.insert(at, byte)
        with open(path, "wb") as f:
            f.write(raw)
        try:
            loaded = load_model(path)
        except ModelFileError:
            return
        original = load_model(path + ".orig")
        for a, b in zip(loaded.layers, original.layers):
            for k in b.params:
                npt.assert_array_equal(a.params[k], b.params[k])
            for k in b.state:
                npt.assert_array_equal(a.state[k], b.state[k])

    def test_save_requires_compiled(self, tmp_path):
        m = SequentialModel([Dense(1)])
        with pytest.raises(RuntimeError, match="compile"):
            m.save(str(tmp_path / "w.gbk"))


class TestSplits:
    def test_sizes_for_housing_shape(self):
        X = np.arange(1460 * 2, dtype=np.float64).reshape(1460, 2)
        Y = np.arange(1460, dtype=np.float64).reshape(1460, 1)
        Xt, Yt, Xv, Yv, Xe, Ye = train_val_test_split(X, Y, 0.3, Rng(0))
        assert Xt.shape[0] == 1022 and Xv.shape[0] == 219 and Xe.shape[0] == 219

    def test_partition_is_disjoint_and_complete(self):
        X = np.arange(20, dtype=np.float64).reshape(20, 1)
        Y = X.copy()
        parts = train_val_test_split(X, Y, 0.3, Rng(1))
        ids = np.concatenate([parts[0][:, 0], parts[2][:, 0], parts[4][:, 0]])
        assert sorted(ids.tolist()) == list(range(20))

    def test_rows_stay_paired(self):
        X = np.arange(30, dtype=np.float64).reshape(30, 1)
        Y = X * 10.0
        for part in range(0, 6, 2):
            parts = train_val_test_split(X, Y, 0.4, Rng(2))
            npt.assert_array_equal(parts[part] * 10.0, parts[part + 1])

    def test_seeded(self):
        X = np.arange(10, dtype=np.float64).reshape(10, 1)
        a = train_val_test_split(X, X, 0.3, Rng(5))
        b = train_val_test_split(X, X, 0.3, Rng(5))
        npt.assert_array_equal(a[0], b[0])

    def test_bad_fraction(self):
        X = np.zeros((10, 1))
        with pytest.raises(ValueError, match="fraction"):
            train_val_test_split(X, X, 1.5, Rng(0))
