import json
import struct
import zlib

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minidl import model as model_mod
from minidl.conv import Conv2D, Pool2D
from minidl.layers import BatchNorm, Dense, Dropout, Flatten
from minidl.model import (
    Callback,
    Checkpoint,
    EarlyStopping,
    History,
    ModelFileError,
    NanLossError,
    SequentialModel,
    kfold_indices,
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


class _Recorder(Callback):
    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def on_epoch_end(self, epoch, logs, model):
        self.log.append((self.tag, epoch))


class TestCallbacks:
    def test_called_in_order_after_each_epoch(self):
        X, Y = toy_regression(n=8)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        log = []
        m.fit(X, Y, epochs=2, batch_size=4,
              callbacks=[_Recorder("a", log), _Recorder("b", log)])
        assert log == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]

    def test_early_stopping_sequence(self):
        class Dummy:
            def copy_weights(self):
                return "snap"

            def set_weights(self, s):
                self.restored = s

        es = EarlyStopping(monitor="loss", patience=2)
        dummy = Dummy()
        for epoch, value in enumerate([1.0, 0.9, 0.95, 0.94, 0.96], start=1):
            es.on_epoch_end(epoch, {"loss": value}, dummy)
            if es.stop_training:
                break
        assert es.stop_training and es.stopped_epoch == 4
        assert es.best == 0.9

    def test_early_stopping_min_delta(self):
        es = EarlyStopping(monitor="loss", min_delta=0.01, patience=1)
        dummy = object()
        es.on_epoch_end(1, {"loss": 1.0}, dummy)
        es.on_epoch_end(2, {"loss": 0.995}, dummy)  # improvement below delta
        assert es.stop_training and es.best == 1.0

    def test_early_stopping_restores_best(self):
        restored = []

        class Dummy:
            def __init__(self):
                self.epoch = 0

            def copy_weights(self):
                return self.epoch

            def set_weights(self, s):
                restored.append(s)

        es = EarlyStopping(monitor="loss", patience=1, restore_best=True)
        dummy = Dummy()
        for epoch, value in enumerate([1.0, 0.5, 0.7], start=1):
            dummy.epoch = epoch
            es.on_epoch_end(epoch, {"loss": value}, dummy)
        assert restored == [2]

    def test_early_stopping_missing_monitor(self):
        es = EarlyStopping(monitor="val_loss")
        with pytest.raises(ValueError, match="val_loss"):
            es.on_epoch_end(1, {"loss": 1.0}, object())
        with pytest.raises(ValueError, match="monitors"):
            EarlyStopping(monitor="val_accuracy")

    def test_early_stopping_ends_fit(self):
        X, Y = toy_regression(n=8)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        es = EarlyStopping(monitor="loss", min_delta=1e9, patience=1)
        h = m.fit(X, Y, epochs=10, batch_size=4, callbacks=[es])
        assert h.epochs == [1, 2]
        assert es.stopped_epoch == 2

    def test_checkpoint_writes_each_epoch(self, tmp_path):
        X, Y = toy_regression(n=8)
        m = mlp()
        m.compile((3,), "mse", "sgd")
        cp = Checkpoint(str(tmp_path / "ck-{epoch:02d}.gbk"), monitor="loss")
        m.fit(X, Y, epochs=3, batch_size=4, callbacks=[cp])
        assert [p.split("-")[-1] for p in cp.saved_paths] == [
            "01.gbk", "02.gbk", "03.gbk"
        ]
        reloaded = load_model(cp.saved_paths[-1])
        npt.assert_array_equal(reloaded.predict(X), m.predict(X))

    def test_checkpoint_save_best_only(self, tmp_path):
        saves = []

        class Dummy:
            def save(self, path):
                saves.append(path)

        cp = Checkpoint(str(tmp_path / "best.gbk"), monitor="val_loss",
                        save_best_only=True)
        dummy = Dummy()
        for epoch, v in enumerate([1.0, 0.8, 0.9, 0.7], start=1):
            cp.on_epoch_end(epoch, {"val_loss": v}, dummy)
        assert len(saves) == 3  # epochs 1, 2, 4

    def test_checkpoint_pattern_uses_logs(self, tmp_path):
        saves = []

        class Dummy:
            def save(self, path):
                saves.append(path)

        cp = Checkpoint(str(tmp_path / "m-{epoch}-{loss:.2f}.gbk"))
        cp.on_epoch_end(3, {"loss": 0.125, "val_loss": 1.0}, Dummy())
        assert saves[0].endswith("m-3-0.12.gbk")


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

    def test_load_weights_into_matching_model(self, tmp_path):
        X, Y = toy_regression()
        a = mlp(seed=1)
        a.compile((3,), "mse", "sgd")
        a.fit(X, Y, epochs=1, batch_size=8)
        path = str(tmp_path / "w.gbk")
        a.save(path)
        b = mlp(seed=99)
        b.compile((3,), "mse", "sgd")
        assert not np.array_equal(a.layers[0].params["W"], b.layers[0].params["W"])
        b.load_weights(path)
        npt.assert_array_equal(b.predict(X), a.predict(X))

    def test_layer_count_mismatch(self, tmp_path):
        a = mlp()
        a.compile((3,), "mse", "sgd")
        path = str(tmp_path / "w.gbk")
        a.save(path)
        b = SequentialModel([Dense(8, activation="tanh"), Dense(8, activation="tanh"),
                             Dense(1)])
        b.compile((3,), "mse", "sgd")
        with pytest.raises(ModelFileError, match="2 layers, this model has 3"):
            b.load_weights(path)

    def test_kind_mismatch_names_layer(self, tmp_path):
        a = SequentialModel([Dense(4), Dense(1)])
        a.compile((3,), "mse", "sgd")
        path = str(tmp_path / "w.gbk")
        a.save(path)
        b = SequentialModel([Dense(4), Dropout(0.5)])
        b.compile((3,), "mse", "sgd")
        with pytest.raises(ModelFileError, match="layer 1"):
            b.load_weights(path)

    def test_hyper_mismatch_names_layer(self, tmp_path):
        a = SequentialModel([Dense(4), Dense(1)])
        a.compile((3,), "mse", "sgd")
        path = str(tmp_path / "w.gbk")
        a.save(path)
        b = SequentialModel([Dense(5), Dense(1)])
        b.compile((3,), "mse", "sgd")
        with pytest.raises(ModelFileError, match="layer 0"):
            b.load_weights(path)

    def test_input_shape_mismatch(self, tmp_path):
        a = SequentialModel([Dense(1)])
        a.compile((3,), "mse", "sgd")
        path = str(tmp_path / "w.gbk")
        a.save(path)
        b = SequentialModel([Dense(1)])
        b.compile((4,), "mse", "sgd")
        with pytest.raises(ModelFileError, match="input shape"):
            b.load_weights(path)

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
    def with_manifest(tmp_path, edit):
        """A saved Dense(1) model whose manifest ``edit`` rewrote, with the
        checksum recomputed so that only the manifest is wrong. Returns
        the path and a model of the original architecture."""
        path = tmp_path / "m.gbk"
        m = SequentialModel([Dense(1)])
        m.compile((3,), "mse", "sgd")
        m.save(str(path))
        raw = path.read_bytes()[:-4]
        (mlen,) = struct.unpack("<I", raw[6:10])
        manifest = json.loads(raw[10 : 10 + mlen])
        edit(manifest)
        mbytes = json.dumps(manifest).encode("utf-8")
        raw = raw[:6] + struct.pack("<I", len(mbytes)) + mbytes + raw[10 + mlen :]
        path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
        return str(path), m

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
        path, m = self.with_manifest(tmp_path, edit)
        with pytest.raises(ModelFileError, match="malformed"):
            load_model(path)
        with pytest.raises(ModelFileError, match="malformed"):
            m.load_weights(path)

    def test_unknown_loss_in_valid_file_rejected(self, tmp_path):
        path, _ = self.with_manifest(tmp_path, lambda m: m.update(loss="hinge"))
        with pytest.raises(ModelFileError, match="hinge"):
            load_model(path)

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

    def test_kfold_covers_everything_once(self):
        folds = kfold_indices(10, 3, Rng(0))
        assert len(folds) == 3
        all_test = np.concatenate([t for _, t in folds])
        assert sorted(all_test.tolist()) == list(range(10))
        sizes = sorted(len(t) for _, t in folds)
        assert sizes == [3, 3, 4]
        for train, test in folds:
            assert set(train.tolist()).isdisjoint(test.tolist())
            assert len(train) + len(test) == 10

    def test_kfold_bad_k(self):
        with pytest.raises(ValueError):
            kfold_indices(5, 1, Rng(0))
        with pytest.raises(ValueError):
            kfold_indices(5, 6, Rng(0))
