"""Release gates, one test per numbered gate, slowest paths included.

Each test drives a shipped behavior end to end and asserts its runtime
budget where one is promised. Gates that depend on optional local
datasets fall back to the seeded synthetic stand-ins from conftest.
"""

import hashlib
import os
import time

import numpy as np
import numpy.testing as npt
import pytest

import conftest
from minidl import cli
from minidl.conv import Conv2D, Pool2D
from minidl.data import (
    MinMaxScaler,
    build_char_dataset,
    load_csv,
    load_idx,
    normalize_pixels,
    one_hot,
)
from minidl.gan import GanTrainer, default_image_gan
from minidl.layers import BatchNorm, Dense, Dropout, Flatten
from minidl.losses import (
    BinaryCrossEntropy,
    SoftmaxCrossEntropy,
    MeanAbsoluteError,
    MeanSquaredError,
)
from minidl.model import SequentialModel, load_model, train_val_test_split
from minidl.optim import SGD, Adagrad, Adam, Momentum, gd_scalar
from minidl.perceptron import GATES, Perceptron
from minidl.recurrent import LSTM, Embedding, SimpleRNN, TimeDistributedDense
from minidl.tensor import Rng


def quad(x):
    return x * x - 2.0 * x - 3.0


def dquad(x):
    return 2.0 * x - 2.0


def test_criterion_01_scalar_gradient_descent_scenarios():
    t0 = time.perf_counter()
    for alpha in (0.1, 0.9):
        trace = gd_scalar(quad, dquad, -4.0, alpha)
        assert trace.converged
        assert abs(trace.xs[-1] - 1.0) <= 1e-3
        assert abs(trace.ys[-1] + 4.0) <= 1e-3
    trace = gd_scalar(quad, dquad, -4.0, 1e-4)
    assert not trace.converged and not trace.diverged
    assert trace.iterations == 1000
    trace = gd_scalar(quad, dquad, -4.0, 1.01)
    assert not trace.converged
    tail = [abs(x) for x in trace.xs[-9:]]
    assert all(b > a for a, b in zip(tail, tail[1:]))
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_perceptron_gates_across_seeds():
    t0 = time.perf_counter()
    for gate in ("or", "and"):
        X, Y = GATES[gate]
        for seed in range(100):
            p = Perceptron(2, alpha=0.1, rng=Rng(seed))
            p.fit(X, Y, epochs=20)
            assert p.accuracy(X, Y) == 1.0, (gate, seed)
    X, Y = GATES["xor"]
    for seed in range(100):
        p = Perceptron(2, alpha=0.1, rng=Rng(seed))
        p.fit(X, Y, epochs=20)
        assert p.accuracy(X, Y) <= 0.75, seed
    assert time.perf_counter() - t0 < 5.0


def _fd_layer(layer, x, up, rtol, train=False, check_input=True, eps=1e-6):
    """Central finite differences of sum(forward(x) * up) against the
    layer's analytic parameter and input gradients."""
    layer.forward(x, train=train)
    dx = layer.backward(up)
    analytic = {k: v.copy() for k, v in layer.grads.items()}

    def objective():
        return float(np.sum(layer.forward(x, train=train) * up))

    for name, arr in layer.params.items():
        # perturbed through ``arr`` itself, element by element in C order:
        # a parameter may be a strided view (the LSTM gates are columns of
        # one block), whose reshape(-1) is a copy
        fd = np.zeros(arr.size)
        for i, at in enumerate(np.ndindex(arr.shape)):
            keep = arr[at]
            arr[at] = keep + eps
            hi = objective()
            arr[at] = keep - eps
            lo = objective()
            arr[at] = keep
            fd[i] = (hi - lo) / (2 * eps)
        npt.assert_allclose(
            analytic[name].reshape(-1), fd, rtol=rtol, atol=1e-8, err_msg=name
        )
    if check_input:
        flat = x.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = objective()
            flat[i] = keep - eps
            lo = objective()
            flat[i] = keep
            fd[i] = (hi - lo) / (2 * eps)
        npt.assert_allclose(dx.reshape(-1), fd, rtol=rtol, atol=1e-8)


def test_criterion_03_finite_difference_master_suite():
    t0 = time.perf_counter()
    rng = Rng(2024)

    for act in ("tanh", "sigmoid", "leaky_relu"):
        layer = Dense(4, activation=act)
        layer.build((3,), rng.child(1))
        x = rng.normal((5, 3))
        _fd_layer(layer, x, rng.normal((5, 4)), rtol=1e-5)

    # dropout with the mask off: gradient passes through untouched
    drop = Dropout(0.4)
    drop.build((6,), rng.child(2))
    x = rng.normal((3, 6))
    up = rng.normal((3, 6))
    npt.assert_array_equal(drop.forward(x, train=False), x)
    npt.assert_array_equal(drop.backward(up), up)

    bn = BatchNorm()
    bn.build((3,), rng.child(3))
    _fd_layer(bn, rng.normal((5, 3)), rng.normal((5, 3)), rtol=1e-5, train=True)

    for k, s, p, d in (
        (1, 1, "valid", 1),
        (2, 1, "same", 1),
        (3, 2, "same", 1),
        (2, 2, "valid", 2),
        (3, 1, 1, 1),
    ):
        conv = Conv2D(3, k, stride=s, padding=p, dilation=d, activation="tanh")
        conv.build((6, 5, 2), rng.child(4))
        x = rng.normal((2, 6, 5, 2))
        out = conv.forward(x)
        _fd_layer(conv, x, rng.normal(out.shape), rtol=1e-5)

    for mode in ("max", "avg"):
        pool = Pool2D(2, stride=2, mode=mode)
        pool.build((6, 6, 2), rng.child(5))
        # permutation values keep every pooling window free of ties
        x = Rng(5).permutation(2 * 6 * 6 * 2).astype(np.float64).reshape(2, 6, 6, 2)
        out = pool.forward(x)
        _fd_layer(pool, x, rng.normal(out.shape), rtol=1e-5)

    rnn = SimpleRNN(5, return_sequences=True)
    rnn.build((4, 3), rng.child(6))
    x = rng.normal((2, 4, 3))
    _fd_layer(rnn, x, rng.normal((2, 4, 5)), rtol=1e-5)

    lstm = LSTM(5, return_sequences=True)
    lstm.build((4, 3), rng.child(7))
    x = rng.normal((2, 4, 3))
    _fd_layer(lstm, x, rng.normal((2, 4, 5)), rtol=1e-4, eps=1e-5)

    emb = Embedding(7, 4)
    emb.build((5,), rng.child(8))
    ids = Rng(3).integers(7, 10).reshape(2, 5).astype(np.float64)
    _fd_layer(emb, ids, rng.normal((2, 5, 4)), rtol=1e-5, check_input=False)

    tdd = TimeDistributedDense(3, activation="tanh")
    tdd.build((3, 4), rng.child(9))
    x = rng.normal((2, 3, 4))
    _fd_layer(tdd, x, rng.normal((2, 3, 3)), rtol=1e-5)

    # losses; the fused pair differentiates with respect to the logits
    eps = 1e-6

    def fd_loss(value_of, z):
        flat = z.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = value_of()
            flat[i] = keep - eps
            lo = value_of()
            flat[i] = keep
            fd[i] = (hi - lo) / (2 * eps)
        return fd

    pred = rng.normal((4, 3))
    target = pred + np.where(rng.uniform((4, 3)) > 0.5, 0.5, -0.5)
    mse = MeanSquaredError()
    fd = fd_loss(lambda: mse.value(pred, target), pred)
    npt.assert_allclose(mse.grad(pred, target).reshape(-1), fd, rtol=1e-5, atol=1e-8)
    mae = MeanAbsoluteError()
    fd = fd_loss(lambda: mae.value(pred, target), pred)
    npt.assert_allclose(mae.grad(pred, target).reshape(-1), fd, rtol=1e-5, atol=1e-8)

    z = rng.normal((4, 6))
    labels = one_hot(Rng(9).integers(6, 4), 6)
    cce = SoftmaxCrossEntropy()
    fd = fd_loss(lambda: cce.value(z, labels), z)
    npt.assert_allclose(cce.grad(z, labels).reshape(-1), fd, rtol=1e-5, atol=1e-8)

    z = rng.normal((5, 1))
    ybin = (Rng(4).uniform((5, 1)) > 0.5).astype(np.float64)
    bce = BinaryCrossEntropy()
    fd = fd_loss(lambda: bce.value(1.0 / (1.0 + np.exp(-z)), ybin), z)
    npt.assert_allclose(
        bce.grad(1.0 / (1.0 + np.exp(-z)), ybin).reshape(-1), fd, rtol=1e-5, atol=1e-8
    )

    # adversarial stack: generator gradient through a frozen discriminator
    gen = SequentialModel(
        [Dense(3, activation="tanh"), Dense(2, activation="tanh")], seed=5
    )
    gen.compile((2,), "mse", "sgd")
    disc = SequentialModel(
        [Dense(4, activation="leaky_relu"), Dense(1, activation="sigmoid")], seed=6
    )
    disc.compile((2,), "binary_crossentropy", "sgd")
    zlat = Rng(7).normal((3, 2))
    ones = np.ones((3, 1))
    d_out = disc.forward(gen.forward(zlat, train=True), train=True)
    dx = disc.backward(bce.grad(d_out, ones), preact=True)
    gen.backward(dx, preact=False)
    analytic = {k: v.copy() for k, v in gen.named_grads().items()}

    def g_objective():
        return bce.value(disc.forward(gen.forward(zlat, train=True), train=True), ones)

    for name, arr in gen.named_params().items():
        flat = arr.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = g_objective()
            flat[i] = keep - eps
            lo = g_objective()
            flat[i] = keep
            fd[i] = (hi - lo) / (2 * eps)
        npt.assert_allclose(analytic[name].reshape(-1), fd, rtol=1e-4, atol=1e-8)

    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_parameter_count_oracles():
    cnn = SequentialModel(
        [
            Conv2D(32, 3, padding="same", activation="relu"),
            Conv2D(32, 3, padding="same", activation="relu"),
            Pool2D(2, mode="max"),
            Pool2D(2, mode="max"),
            Dropout(0.25),
            Flatten(),
            Dense(512, activation="relu"),
            Dropout(0.5),
            Dense(10, activation="softmax"),
        ],
        seed=0,
    )
    cnn.compile((32, 32, 3), "categorical_crossentropy", "adam")
    assert cnn.param_counts() == [896, 9248, 0, 0, 0, 0, 1049088, 0, 5130]
    assert cnn.total_params() == 1064362

    char_rnn = SequentialModel(
        [
            SimpleRNN(800, activation="relu", return_sequences=True),
            Dropout(0.3),
            SimpleRNN(800, activation="relu", return_sequences=True),
            Dropout(0.3),
            TimeDistributedDense(57, activation="softmax"),
        ],
        seed=0,
    )
    char_rnn.compile((100, 57), "categorical_crossentropy", "rmsprop")
    counts = [c for c in char_rnn.param_counts() if c]
    assert counts == [686400, 1280800, 45657]
    assert char_rnn.total_params() == 2012857

    char_lstm = SequentialModel(
        [
            LSTM(800, return_sequences=True),
            Dropout(0.4),
            LSTM(800, return_sequences=True),
            Dropout(0.4),
            TimeDistributedDense(57, activation="softmax"),
        ],
        seed=0,
    )
    char_lstm.compile((100, 57), "categorical_crossentropy", "rmsprop")
    counts = [c for c in char_lstm.param_counts() if c]
    assert counts == [2745600, 5123200, 45657]
    assert char_lstm.total_params() == 7914457

    imdb = SequentialModel(
        [Embedding(5000, 32), LSTM(100), Dense(1, activation="sigmoid")], seed=0
    )
    imdb.compile((500,), "binary_crossentropy", "adam")
    assert imdb.param_counts() == [160000, 53200, 101]
    assert imdb.total_params() == 213301

    wide = Embedding(148243, 100)
    wide.build((30,), Rng(0))
    assert wide.param_count() == 14824300
    tall = LSTM(128)
    tall.build((30, 100), Rng(0))
    assert tall.param_count() == 117248


def test_criterion_05_data_pipeline_constants(housing_csv):
    corpus = conftest.warpeace_path()
    if corpus is not None:
        with open(corpus, "r", encoding="utf-8") as f:
            text = f.read()
        assert len(text) == 3196213
        X, _Y, vocab = build_char_dataset(text, 100)
        assert len(vocab) == 57
        assert X.shape == (31962, 100, 57)

    path, _real = housing_csv
    table, _cols = load_csv(path, has_header=True)
    X, Y = table[:, :-1], table[:, -1:]
    Xt, Yt, Xv, Yv, Xe, Ye = train_val_test_split(X, Y, 0.3, Rng(0))
    assert Xt.shape == (1022, 10)
    assert Xv.shape == (219, 10)
    assert Xe.shape == (219, 10)
    assert Yt.shape[0] + Yv.shape[0] + Ye.shape[0] == 1460

    npt.assert_array_equal(
        one_hot(np.array([9]), 10)[0],
        np.array([0.0, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    )


def test_criterion_06_tabular_mlp_accuracy(housing_csv):
    t0 = time.perf_counter()
    path, real = housing_csv
    table, _cols = load_csv(path, has_header=True)
    X, Y = table[:, :-1], table[:, -1:]
    Xtr, Ytr, Xva, Yva, Xte, Yte = train_val_test_split(X, Y, 0.3, Rng(0))
    scaler = MinMaxScaler().fit(Xtr)
    model = SequentialModel(
        [
            Dense(32, activation="sigmoid"),
            Dense(32, activation="sigmoid"),
            Dense(1, activation="sigmoid"),
        ],
        seed=0,
    )
    model.compile(
        (X.shape[1],), "binary_crossentropy", SGD(lr=0.1), metrics=("accuracy",)
    )
    model.fit(scaler.transform(Xtr), Ytr, epochs=100, batch_size=32)
    final = model.evaluate(scaler.transform(Xte), Yte)
    floor = 0.80 if real else 0.90
    assert final["accuracy"] >= floor, final
    assert time.perf_counter() - t0 < 60.0


def test_criterion_07_image_classifier_at_desk_scale(digit_idx_paths):
    t0 = time.perf_counter()
    imgs, labels = load_idx(digit_idx_paths[0], digit_idx_paths[1])
    if digit_idx_paths[2] == digit_idx_paths[0]:
        train = (imgs[:2000], labels[:2000])
        test = (imgs[2000:2500], labels[2000:2500])
    else:
        timgs, tlabels = load_idx(digit_idx_paths[2], digit_idx_paths[3])
        train = (imgs[:2000], labels[:2000])
        test = (timgs[:500], tlabels[:500])

    def prep(pair):
        return normalize_pixels(pair[0], "unit")[..., None], one_hot(pair[1], 10)

    Xtr, Ytr = prep(train)
    Xte, Yte = prep(test)
    model = SequentialModel(cli.image_classifier_layers(10), seed=0)
    model.compile(
        Xtr.shape[1:], "categorical_crossentropy", "adam", metrics=("accuracy",)
    )
    model.fit(Xtr, Ytr, epochs=5, batch_size=32)
    final = model.evaluate(Xte, Yte, batch_size=64)
    assert final["accuracy"] >= 0.90, final
    assert time.perf_counter() - t0 < 600.0


def test_criterion_08_recurrent_memory_properties():
    t0 = time.perf_counter()

    # saturated gates: forget pinned to 1 and input pinned to 0 after a
    # single write leave the cell state bitwise unchanged for 20 steps
    layer = LSTM(1, return_sequences=True)
    layer.build((21, 2), Rng(0))
    for k in layer.params:
        layer.params[k][:] = 0.0
    layer.params["bf"][:] = 500.0
    layer.params["Ui"][0, 0] = 1000.0
    layer.params["bi"][:] = -500.0
    layer.params["Ua"][0, 0] = 2.0
    layer.params["bo"][:] = 500.0
    X = np.zeros((1, 21, 2))
    X[0, 0, 0] = 1.0
    h = layer.forward(X)[0, :, 0]
    assert h[0] == pytest.approx(np.tanh(np.tanh(2.0)), rel=1e-12)
    assert all(v == h[0] for v in h[1:])

    # long-range recall: the label is planted at t=0 and followed by 39
    # distractor steps; under a matched budget the gated cell wins
    rng = Rng(123)
    n, T = 64, 40
    bits = (Rng(7).uniform((n,)) > 0.5).astype(np.float64)
    X = np.zeros((n, T, 2))
    X[:, 0, 0] = 2.0 * bits - 1.0
    X[:, 1:, 1] = rng.normal((n, T - 1), std=0.3)
    Y = bits.reshape(-1, 1)

    def final_loss(recurrent):
        model = SequentialModel(
            [recurrent, Dense(1, activation="sigmoid")], seed=1
        )
        model.compile((T, 2), "binary_crossentropy", Adam(lr=0.001))
        history = model.fit(X, Y, epochs=200, batch_size=16)
        return history.history["loss"][-1]

    lstm_loss = final_loss(LSTM(8))
    rnn_loss = final_loss(SimpleRNN(8))
    assert lstm_loss < rnn_loss, (lstm_loss, rnn_loss)
    assert time.perf_counter() - t0 < 300.0


def _param_digest(model):
    h = hashlib.sha256()
    for key in sorted(model.named_params()):
        h.update(model.named_params()[key].tobytes())
    return h.hexdigest()


def test_criterion_09_adversarial_invariants(digit_train):
    t0 = time.perf_counter()
    imgs, _labels = digit_train
    flat = normalize_pixels(imgs[:1000], "symmetric").reshape(1000, -1)
    trainer = default_image_gan(seed=11)
    for _step in range(203):
        idx = trainer.rng.integers(1000, trainer.batch_size)
        frozen = _param_digest(trainer.generator)
        d_loss = trainer.discriminator_step(flat[idx])
        assert _param_digest(trainer.generator) == frozen
        frozen = _param_digest(trainer.discriminator)
        g_loss = trainer.generator_step()
        assert _param_digest(trainer.discriminator) == frozen
        assert np.isfinite(d_loss) and np.isfinite(g_loss)
    samples = trainer.sample(100)
    assert samples.shape == (100, 28, 28)
    assert samples.min() >= -1.0 and samples.max() <= 1.0

    # one-dimensional toy: the generator's output distribution must move
    # its mean next to the data mean within 2000 alternating steps
    gen = SequentialModel(
        [Dense(8, activation="leaky_relu"), Dense(1, activation="linear")], seed=20
    )
    gen.compile((2,), "mse", "sgd")
    disc = SequentialModel(
        [Dense(8, activation="leaky_relu"), Dense(1, activation="sigmoid")], seed=21
    )
    disc.compile((1,), "binary_crossentropy", "sgd")
    toy = GanTrainer(
        gen, disc, 2, Adam(lr=0.001), Adam(lr=0.001), batch_size=32, seed=22
    )
    real = Rng(50).normal((4000, 1), mean=4.0, std=0.5)
    history = toy.train(real, epochs=16)
    assert len(history["g_loss"]) == 2000
    fakes = toy.sample(500, rng=Rng(99))
    assert abs(fakes.mean() - 4.0) <= 1.0, fakes.mean()
    preds = np.concatenate(
        [toy.discriminator.predict(real[:250]), toy.discriminator.predict(toy.sample(250, rng=Rng(98)))]
    )
    balanced = np.concatenate([np.ones((250, 1)), np.zeros((250, 1))])
    d_acc = float(((preds > 0.5) == balanced).mean())
    assert 0.3 <= d_acc <= 0.7, d_acc
    assert time.perf_counter() - t0 < 300.0


def test_criterion_10_optimizer_family_properties():
    t0 = time.perf_counter()

    sgd_p = {"w": np.array([0.7, -1.3])}
    mom_p = {"w": np.array([0.7, -1.3])}
    sgd, mom = SGD(lr=0.05), Momentum(lr=0.05, gamma=0.0)
    for k in range(10):
        g = {"w": np.array([np.sin(k + 1.0), np.cos(k + 1.0)])}
        sgd.step(sgd_p, g)
        mom.step(mom_p, {"w": g["w"].copy()})
    npt.assert_array_equal(sgd_p["w"], mom_p["w"])

    ada = Adagrad(lr=1.0, eps=0.0)
    p = {"w": np.array([5.0])}
    prev = p["w"].copy()
    for tstep in range(1, 8):
        ada.step(p, {"w": np.array([2.0])})
        magnitude = float(abs(p["w"] - prev)[0])
        assert magnitude == pytest.approx(1.0 / np.sqrt(tstep), rel=1e-12)
        prev = p["w"].copy()

    adam = Adam(lr=0.003)
    p = {"w": np.array([1.0, -2.0])}
    adam.step(p, {"w": np.array([0.7, -0.2])})
    npt.assert_allclose(
        p["w"], np.array([1.0 - 0.003, -2.0 + 0.003]), atol=1e-6
    )

    def steps_to_origin(opt):
        theta = {"t": np.array([1.0, 1.0])}
        for k in range(1, 20001):
            grads = {"t": np.array([2.0 * theta["t"][0], 200.0 * theta["t"][1]])}
            opt.step(theta, grads)
            if np.linalg.norm(theta["t"]) < 1e-3:
                return k
        return 20001

    sgd_steps = steps_to_origin(SGD(lr=0.004))
    momentum_steps = steps_to_origin(Momentum(lr=0.004, gamma=0.9))
    assert momentum_steps < sgd_steps, (momentum_steps, sgd_steps)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_11_serialization_round_trips(tmp_path):
    demos = []
    mlp = SequentialModel(
        [
            Dense(32, activation="sigmoid"),
            Dense(32, activation="sigmoid"),
            Dense(1, activation="sigmoid"),
        ],
        seed=0,
    )
    mlp.compile((10,), "binary_crossentropy", "sgd")
    demos.append(("mlp", mlp, Rng(1).uniform((4, 10))))

    cnn = SequentialModel(cli.image_classifier_layers(10), seed=1)
    cnn.compile((28, 28, 1), "categorical_crossentropy", "adam")
    demos.append(("cnn", cnn, Rng(2).uniform((2, 28, 28, 1))))

    rnn = SequentialModel(
        [
            SimpleRNN(16, activation="relu", return_sequences=True),
            Dropout(0.3),
            TimeDistributedDense(12, activation="softmax"),
        ],
        seed=2,
    )
    rnn.compile((8, 12), "categorical_crossentropy", "rmsprop")
    demos.append(("charrnn", rnn, Rng(3).uniform((3, 8, 12))))

    lstm = SequentialModel(
        [
            LSTM(12, return_sequences=True),
            Dropout(0.4),
            TimeDistributedDense(12, activation="softmax"),
        ],
        seed=3,
    )
    lstm.compile((8, 12), "categorical_crossentropy", "rmsprop")
    demos.append(("charlstm", lstm, Rng(4).uniform((3, 8, 12))))

    sentiment = SequentialModel(
        [Embedding(40, 8), LSTM(8), Dense(1, activation="sigmoid")], seed=4
    )
    sentiment.compile((6,), "binary_crossentropy", "adam")
    demos.append(("sentiment", sentiment, Rng(5).integers(40, 18).reshape(3, 6)))

    pair = default_image_gan(seed=6)
    demos.append(("gan-generator", pair.generator, Rng(6).normal((2, 10))))
    demos.append(("gan-discriminator", pair.discriminator, Rng(7).uniform((2, 784))))

    for name, model, x in demos:
        path = str(tmp_path / (name + ".gbk"))
        before = model.predict(x)
        model.save(path)
        npt.assert_array_equal(load_model(path).predict(x), before, err_msg=name)

    target = str(tmp_path / "mlp.gbk")
    with open(target, "rb") as f:
        raw = bytearray(f.read())
    bad_magic = bytearray(raw)
    bad_magic[0] ^= 0xFF
    magic_path = str(tmp_path / "bad-magic.gbk")
    with open(magic_path, "wb") as f:
        f.write(bytes(bad_magic))
    with pytest.raises(ValueError, match="bad magic"):
        load_model(magic_path)
    bad_crc = bytearray(raw)
    bad_crc[-12] ^= 0xFF
    crc_path = str(tmp_path / "bad-crc.gbk")
    with open(crc_path, "wb") as f:
        f.write(bytes(bad_crc))
    with pytest.raises(ValueError, match="checksum"):
        load_model(crc_path)


def test_criterion_12_seeded_cli_runs_are_byte_identical(
    tmp_path, capsys, housing_csv, digit_idx_paths
):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the quick brown fox jumps over the lazy dog. " * 12 + "end")
    housing_path, _real = housing_csv
    commands = {
        "trace.csv": ["gd", "--alpha", "0.3", "--seed", "1"],
        "mistakes.csv": ["perceptron", "--gate", "or", "--seed", "3"],
        "history.csv": [
            "train",
            "--task",
            "mlp-tabular",
            "--data",
            housing_path,
            "--epochs",
            "2",
            "--seed",
            "5",
        ],
        "char-history.csv": [
            "train",
            "--task",
            "charrnn",
            "--data",
            str(corpus),
            "--epochs",
            "2",
            "--seq-length",
            "20",
            "--units",
            "12",
            "--layers",
            "1",
            "--batch-size",
            "8",
            "--seed",
            "7",
        ],
        "losses.csv": [
            "gan",
            "--data",
            digit_idx_paths[0],
            digit_idx_paths[1],
            "--epochs",
            "1",
            "--limit",
            "128",
            "--batch-size",
            "64",
            "--seed",
            "9",
        ],
    }
    for csv_name, argv in commands.items():
        produced = csv_name if "-" not in csv_name else csv_name.split("-", 1)[1]
        blobs = []
        for run in ("a", "b"):
            out = str(tmp_path / (csv_name + run))
            assert cli.main(argv + ["--out", out]) == 0
            with open(os.path.join(out, produced), "rb") as f:
                blobs.append(f.read())
        assert blobs[0] == blobs[1], csv_name
    capsys.readouterr()
