"""The ``input_grad`` and ``param_grads`` flags of ``backward``: a False
flag skips work without changing anything that is computed, and a
skipped gradient is never read or written."""

import numpy as np
import numpy.testing as npt
import pytest

from minidl import cli
from minidl.conv import Conv2D, Pool2D
from minidl.gan import default_image_gan
from minidl.layers import BatchNorm, Dense, Dropout, Flatten
from minidl.model import LAYER_KINDS, SequentialModel
from minidl.recurrent import LSTM, Embedding, SimpleRNN, TimeDistributedDense
from minidl.tensor import Rng


def full_backward(model, grad, preact):
    """Backward as minidl ran it before the flags: every layer computes
    its parameter gradients and its input gradient."""
    last = len(model.layers) - 1
    g = grad
    for i in range(last, -1, -1):
        g = model.layers[i].backward(g, preact=preact and i == last)
    return g


def full_train_step(model, x, y, loss, optimizer):
    out = model.forward(x, train=True)
    loss_in = model._loss_input(out, loss)
    full_backward(model, loss.grad(loss_in, y), loss.fused is not None)
    model.apply_gradients(optimizer)


def full_gan_round(trainer, real):
    """One discriminator and one generator step, each through
    ``full_backward``, drawing from the trainer's streams in the order
    ``discriminator_step`` and ``generator_step`` do."""
    gen, disc, loss = trainer.generator, trainer.discriminator, trainer._loss
    b = real.shape[0]
    fakes = gen.predict(trainer.rng.normal((b, trainer.latent_dim)))
    y = np.zeros((2 * b, 1))
    y[:b] = trainer.smoothing
    full_train_step(disc, np.concatenate([real, fakes]), y, loss, trainer.d_optimizer)
    z = trainer.rng.normal((trainer.batch_size, trainer.latent_dim))
    d_out = disc.forward(gen.forward(z, train=True), train=True)
    dx = full_backward(disc, loss.grad(d_out, np.ones((trainer.batch_size, 1))), True)
    full_backward(gen, dx, False)
    gen.apply_gradients(trainer.g_optimizer)


def _batchnorm_mlp():
    layers = [Dense(16, activation="relu"), BatchNorm(), Dense(8, activation="tanh"),
              BatchNorm(), Dense(3, activation="softmax")]
    rng = Rng(1)
    x = rng.normal((10, 6))
    y = np.eye(3)[rng.integers(3, 10)]
    return layers, (6,), "categorical_crossentropy", x, y


def _image_classifier():
    rng = Rng(2)
    x = rng.uniform((4, 8, 8, 1))
    y = np.eye(10)[rng.integers(10, 4)]
    return cli.image_classifier_layers(10), (8, 8, 1), "categorical_crossentropy", x, y


def _embedding_lstm():
    rng = Rng(3)
    x = rng.integers(20, 5 * 7).reshape(5, 7).astype(np.float64)
    y = np.eye(3)[rng.integers(3, 5)]
    layers = [Embedding(20, 6), LSTM(8), Dense(3, activation="softmax")]
    return layers, (7,), "categorical_crossentropy", x, y


def _rnn_time_distributed():
    rng = Rng(4)
    x = rng.normal((5, 6, 4))
    y = np.eye(5)[rng.integers(5, 5 * 6)].reshape(5, 6, 5)
    layers = [SimpleRNN(8, return_sequences=True), TimeDistributedDense(5, activation="softmax")]
    return layers, (6, 4), "categorical_crossentropy", x, y


@pytest.mark.parametrize(
    "case", [_batchnorm_mlp, _image_classifier, _embedding_lstm, _rnn_time_distributed]
)
def test_train_on_batch_matches_full_backward(case):
    models = []
    for _ in range(2):
        layers, shape, loss, x, y = case()
        models.append(SequentialModel(layers, seed=7).compile(shape, loss, "adam"))
    fast, full = models
    for _ in range(3):
        fast.train_on_batch(x, y)
        full_train_step(full, x, y, full.loss, full.optimizer)
    npt.assert_array_equal(fast.flat_params, full.flat_params)


def test_gan_rounds_match_full_backward():
    fast, full = default_image_gan(seed=5, batch_size=16), default_image_gan(seed=5, batch_size=16)
    real = Rng(6).uniform((3, 16, 784), low=-1.0, high=1.0)
    for batch in real:
        fast.discriminator_step(batch)
        fast.generator_step()
        full_gan_round(full, batch)
    npt.assert_array_equal(fast.generator.flat_params, full.generator.flat_params)
    npt.assert_array_equal(fast.discriminator.flat_params, full.discriminator.flat_params)


def test_generator_step_never_reads_discriminator_grads():
    clean, poisoned = default_image_gan(seed=8, batch_size=16), default_image_gan(seed=8, batch_size=16)
    real = Rng(9).uniform((16, 784), low=-1.0, high=1.0)
    for trainer in (clean, poisoned):
        trainer.discriminator_step(real)
    poisoned.discriminator.flat_grads[...] = np.nan
    clean.generator_step()
    poisoned.generator_step()
    npt.assert_array_equal(poisoned.generator.flat_params, clean.generator.flat_params)
    # nor written: every discriminator gradient is still the poison
    assert np.isnan(poisoned.discriminator.flat_grads).all()


# one layer of each kind, with a batch of input for it
LAYERS = {
    "dense": (lambda: Dense(5, activation="leaky_relu"), lambda r: r.normal((4, 6))),
    "dropout": (lambda: Dropout(0.5), lambda r: r.normal((4, 6))),
    "batchnorm": (BatchNorm, lambda r: r.normal((6, 4))),
    "flatten": (Flatten, lambda r: r.normal((2, 3, 4, 2))),
    "conv2d": (lambda: Conv2D(3, 3, padding="same", activation="relu"),
               lambda r: r.normal((2, 5, 5, 2))),
    "pool2d": (lambda: Pool2D(2), lambda r: r.normal((2, 4, 4, 3))),
    "simple_rnn": (lambda: SimpleRNN(5, return_sequences=True), lambda r: r.normal((3, 4, 2))),
    "lstm": (lambda: LSTM(5, return_sequences=True), lambda r: r.normal((3, 4, 2))),
    "time_distributed_dense": (lambda: TimeDistributedDense(5, activation="tanh"),
                               lambda r: r.normal((3, 4, 2))),
    "embedding": (lambda: Embedding(9, 3), lambda r: r.integers(9, 12).reshape(3, 4)),
}
PARAM_KINDS = sorted(set(LAYERS) - {"dropout", "flatten", "pool2d"})
FLAGS = [(i, p) for i in (True, False) for p in (True, False)]


def built_layer(kind, rows=None, train=True):
    """A built layer of ``kind``, its input batch (or the batch's first
    ``rows`` rows), after one forward, and an upstream gradient."""
    make, draw = LAYERS[kind]
    rng = Rng(10)
    x = draw(rng)[:rows]
    layer = make()
    layer.build(x.shape[1:], rng)
    out = layer.forward(x, train=train)
    return layer, x, rng.normal(out.shape)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
def test_each_forward_serves_one_backward(kind, train):
    """Whatever the flags, a backward takes the forward's cache: a
    second one, like one with no forward at all, raises ValueError
    naming the kind."""
    needs_forward = "^%s backward needs a forward first" % kind
    for input_grad, param_grads in FLAGS:
        layer, x, up = built_layer(kind, train=train)
        layer.backward(up, input_grad=input_grad, param_grads=param_grads)
        with pytest.raises(ValueError, match=needs_forward):
            layer.backward(up)
    fresh = LAYERS[kind][0]()
    fresh.build(x.shape[1:], Rng(10))
    with pytest.raises(ValueError, match=needs_forward):
        fresh.backward(up)


@pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
def test_empty_batch_runs_forward_and_backward(kind):
    """A 0-row batch gives 0 rows out and back, and zero parameter
    gradients where they are asked for."""
    for train in (True, False):
        for input_grad, param_grads in FLAGS:
            layer, x, up = built_layer(kind, rows=0, train=train)
            assert up.shape == (0,) + layer.out_shape(x.shape[1:])
            for g in layer.grads.values():
                g[...] = np.nan
            dx = layer.backward(up, input_grad=input_grad, param_grads=param_grads)
            if input_grad and kind != "embedding":
                assert dx.shape == x.shape
            else:
                assert dx is None
            for g in layer.grads.values():
                assert (g == 0.0).all() if param_grads else np.isnan(g).all()


@pytest.mark.parametrize("kind", PARAM_KINDS)
def test_layer_without_param_grads_leaves_them_unread_and_unwritten(kind):
    layer, x, up = built_layer(kind)
    for g in layer.grads.values():
        g[...] = np.nan
    dx = layer.backward(up, param_grads=False)
    assert all(np.isnan(g).all() for g in layer.grads.values())
    layer.forward(x, train=True)
    want = layer.backward(up)
    if want is None:
        assert dx is None
    else:
        npt.assert_array_equal(dx, want)


@pytest.mark.parametrize("kind", PARAM_KINDS)
def test_layer_without_input_grad_returns_none_and_same_param_grads(kind):
    layer, x, up = built_layer(kind)
    assert layer.backward(up, input_grad=False) is None
    got = {k: g.copy() for k, g in layer.grads.items()}
    layer.forward(x, train=True)
    layer.backward(up)
    for k, g in layer.grads.items():
        npt.assert_array_equal(got[k], g)


@pytest.mark.parametrize(
    "layer", [Dropout(0.5), Flatten(), Pool2D(2)], ids=lambda layer: layer.kind
)
def test_layers_without_params_return_none_without_input_grad(layer):
    x = Rng(11).normal((2, 4, 4, 3))
    layer.build(x.shape[1:], Rng(12))
    out = layer.forward(x, train=True)
    assert layer.backward(np.ones_like(out), input_grad=False) is None


def test_model_backward_without_input_grad_returns_none():
    model = SequentialModel([Flatten(), Dense(4, activation="tanh"), Dense(2)], seed=13)
    model.compile((3, 2), "mse", "sgd")
    x = Rng(14).normal((5, 3, 2))
    up = np.ones((5, 2))
    model.forward(x, train=True)
    assert model.backward(up, input_grad=False) is None
    got = model.flat_grads.copy()
    model.forward(x, train=True)
    assert model.backward(up).shape == x.shape
    npt.assert_array_equal(model.flat_grads, got)
    # neither flag: nothing to compute, nothing written
    model.flat_grads[...] = np.nan
    assert model.backward(up, input_grad=False, param_grads=False) is None
    assert np.isnan(model.flat_grads).all()
