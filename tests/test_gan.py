import numpy as np
import numpy.testing as npt
import pytest

from minidl.gan import GanTrainer, default_image_gan
from minidl.layers import Dense, Dropout
from minidl.losses import BinaryCrossEntropy
from minidl.model import SequentialModel
from minidl.optim import SGD, Adam
from minidl.tensor import Rng


def tiny_generator(latent_dim=2, out_dim=1, seed=3):
    gen = SequentialModel([Dense(out_dim, activation="linear")], seed=seed)
    gen.compile((latent_dim,), "mse", "sgd")
    return gen


def tiny_discriminator(in_dim=1, seed=4, hidden=None, dropout=None):
    layers = []
    if hidden:
        layers.append(Dense(hidden, activation="leaky_relu"))
        if dropout:
            layers.append(Dropout(dropout))
    layers.append(Dense(1, activation="sigmoid"))
    disc = SequentialModel(layers, seed=seed)
    disc.compile((in_dim,), "binary_crossentropy", "sgd")
    return disc


def constant_output_discriminator(in_dim, logit):
    """Single sigmoid unit with zero weights, so every input maps to
    sigmoid(logit)."""
    disc = tiny_discriminator(in_dim=in_dim)
    disc.layers[-1].params["W"][:] = 0.0
    disc.layers[-1].params["b"][:] = logit
    return disc


class TestConstruction:
    def test_requires_compiled_models(self):
        gen = SequentialModel([Dense(1, activation="linear")], seed=0)
        disc = tiny_discriminator()
        with pytest.raises(ValueError, match="compiled"):
            GanTrainer(gen, disc, 2, SGD(0.1), SGD(0.1))

    def test_requires_sigmoid_tail(self):
        gen = tiny_generator()
        disc = SequentialModel([Dense(1, activation="tanh")], seed=4)
        disc.compile((1,), "mse", "sgd")
        with pytest.raises(ValueError, match="sigmoid"):
            GanTrainer(gen, disc, 2, SGD(0.1), SGD(0.1))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be at least 1, got %d" % batch_size):
            GanTrainer(tiny_generator(), tiny_discriminator(), 2, SGD(0.1), SGD(0.1),
                       batch_size=batch_size)


class TestDiscriminatorStep:
    def test_real_rows_stack_above_fakes_in_train_mode(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3, hidden=4)
        trainer = GanTrainer(gen, disc, 2, SGD(0.1), SGD(0.1), batch_size=5)
        seen = []
        orig = disc.forward

        def spy(x, train=False):
            seen.append((np.array(x, copy=True), train))
            return orig(x, train=train)

        disc.forward = spy
        real = Rng(6).uniform((5, 3))
        trainer.discriminator_step(real, rng=Rng(4))
        x_seen, train_flag = seen[0]
        assert train_flag is True
        assert x_seen.shape == (10, 3)
        npt.assert_array_equal(x_seen[:5], real)
        fakes = gen.predict(Rng(4).normal((5, 2)))
        npt.assert_array_equal(x_seen[5:], fakes)

    def test_loss_against_smoothed_labels(self):
        # Constant-output discriminator makes the loss a closed form in
        # the label values: half the rows are labeled 0.9, half 0.
        gen = tiny_generator(latent_dim=2, out_dim=1)
        disc = constant_output_discriminator(1, logit=1.0)
        trainer = GanTrainer(gen, disc, 2, SGD(0.0), SGD(0.0), batch_size=8)
        real = Rng(1).uniform((8, 1))
        value = trainer.discriminator_step(real)
        p = 1.0 / (1.0 + np.exp(-1.0))
        expected = -0.5 * 0.9 * np.log(p) - 0.5 * (2.0 - 0.9) * np.log(1.0 - p)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_smoothing_parameter_feeds_labels(self):
        gen = tiny_generator(latent_dim=2, out_dim=1)
        disc = constant_output_discriminator(1, logit=1.0)
        trainer = GanTrainer(
            gen, disc, 2, SGD(0.0), SGD(0.0), smoothing=1.0, batch_size=8
        )
        value = trainer.discriminator_step(Rng(1).uniform((8, 1)))
        p = 1.0 / (1.0 + np.exp(-1.0))
        expected = -0.5 * np.log(p) - 0.5 * np.log(1.0 - p)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_generator_params_bitwise_frozen(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3, hidden=4)
        trainer = GanTrainer(gen, disc, 2, SGD(0.5), SGD(0.5), batch_size=4)
        before = {k: v.copy() for k, v in gen.named_params().items()}
        trainer.discriminator_step(Rng(2).uniform((4, 3)))
        for k, v in gen.named_params().items():
            npt.assert_array_equal(v, before[k])

    def test_discriminator_actually_moves(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3, hidden=4)
        trainer = GanTrainer(gen, disc, 2, SGD(0.5), SGD(0.5), batch_size=4)
        before = {k: v.copy() for k, v in disc.named_params().items()}
        trainer.discriminator_step(Rng(2).uniform((4, 3)))
        moved = any(
            not np.array_equal(v, before[k])
            for k, v in disc.named_params().items()
        )
        assert moved

    def test_fakes_generated_in_inference_mode(self):
        # A dropout layer inside the generator must act as identity when
        # fakes are drawn, so two steps with the same noise and frozen
        # nets report the same loss.
        gen = SequentialModel(
            [Dense(3, activation="linear"), Dropout(0.5)], seed=3
        )
        gen.compile((2,), "mse", "sgd")
        disc = tiny_discriminator(in_dim=3, hidden=4)
        trainer = GanTrainer(gen, disc, 2, SGD(0.0), SGD(0.0), batch_size=6)
        real = Rng(8).uniform((6, 3))
        first = trainer.discriminator_step(real, rng=Rng(9))
        second = trainer.discriminator_step(real, rng=Rng(9))
        assert first == second


class TestGeneratorStep:
    def test_constant_half_discriminator_gives_log_two(self):
        # sigmoid(0) = 0.5 for every input, and -log(0.5) = log 2. The
        # zero weight matrix also kills the gradient flowing back, so the
        # generator must not move.
        gen = tiny_generator(latent_dim=2, out_dim=1)
        disc = constant_output_discriminator(1, logit=0.0)
        trainer = GanTrainer(gen, disc, 2, SGD(0.1), SGD(0.1), batch_size=16)
        before = {k: v.copy() for k, v in gen.named_params().items()}
        value = trainer.generator_step()
        assert value == pytest.approx(np.log(2.0), rel=1e-12)
        for k, v in gen.named_params().items():
            npt.assert_array_equal(v, before[k])

    def test_manual_single_update(self):
        # Manually calculated through a linear generator and a fixed
        # one-unit discriminator with W=2, b=-1.
        gen = tiny_generator(latent_dim=2, out_dim=1, seed=3)
        disc = tiny_discriminator(in_dim=1, seed=4)
        disc.layers[0].params["W"][:] = 2.0
        disc.layers[0].params["b"][:] = -1.0
        trainer = GanTrainer(gen, disc, 2, SGD(0.0), SGD(0.5), batch_size=4)
        W0 = gen.layers[0].params["W"].copy()
        b0 = gen.layers[0].params["b"].copy()
        trainer.generator_step(rng=Rng(11))

        z = Rng(11).normal((4, 2))
        g = z @ W0 + b0
        p = 1.0 / (1.0 + np.exp(-(2.0 * g - 1.0)))
        dlogit = (p - 1.0) / p.size
        dx = dlogit * 2.0
        dW = z.T @ dx
        db = dx.sum(axis=0)
        npt.assert_allclose(gen.layers[0].params["W"], W0 - 0.5 * dW, rtol=1e-12)
        npt.assert_allclose(gen.layers[0].params["b"], b0 - 0.5 * db, rtol=1e-12)

    def test_discriminator_params_bitwise_frozen(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3, hidden=4)
        trainer = GanTrainer(gen, disc, 2, SGD(0.5), SGD(0.5), batch_size=4)
        before = {k: v.copy() for k, v in disc.named_params().items()}
        trainer.generator_step()
        for k, v in disc.named_params().items():
            npt.assert_array_equal(v, before[k])

    def test_discriminator_dropout_active(self):
        # Frozen nets and identical noise still give different losses
        # when the discriminator carries dropout, because the pass runs
        # in training mode.
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3, hidden=32, dropout=0.5)
        trainer = GanTrainer(gen, disc, 2, SGD(0.0), SGD(0.0), batch_size=6)
        first = trainer.generator_step(rng=Rng(9))
        second = trainer.generator_step(rng=Rng(9))
        assert first != second

    def test_gradient_matches_finite_differences(self):
        gen = SequentialModel(
            [Dense(3, activation="tanh"), Dense(2, activation="tanh")], seed=5
        )
        gen.compile((2,), "mse", "sgd")
        disc = SequentialModel(
            [Dense(4, activation="leaky_relu"), Dense(1, activation="sigmoid")],
            seed=6,
        )
        disc.compile((2,), "binary_crossentropy", "sgd")
        loss = BinaryCrossEntropy()
        z = Rng(7).normal((3, 2))
        y = np.ones((3, 1))

        d_out = disc.forward(gen.forward(z, train=True), train=True)
        dx = disc.backward(loss.grad(d_out, y), preact=True)
        gen.backward(dx, preact=False)
        analytic = {k: v.copy() for k, v in gen.named_grads().items()}

        def objective():
            return loss.value(disc.forward(gen.forward(z, train=True), train=True), y)

        eps = 1e-6
        params = gen.named_params()
        for name, arr in params.items():
            fd = np.zeros_like(arr)
            flat = arr.reshape(-1)
            fd_flat = fd.reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = objective()
                flat[i] = keep - eps
                lo = objective()
                flat[i] = keep
                fd_flat[i] = (hi - lo) / (2 * eps)
            npt.assert_allclose(analytic[name], fd, rtol=1e-5, atol=1e-8)


class TestObjectiveAlgebra:
    def test_saturating_generator_loss_mirrors_fake_half(self):
        # On any fixed batch of discriminator outputs for fakes, the
        # saturating generator objective mean(log(1 - p)) is exactly the
        # negative of the fake half of the discriminator's loss. A
        # formula identity on fixtures, independent of training.
        p = np.array([[0.1], [0.42], [0.77], [0.9]])
        saturating = np.mean(np.log(1.0 - p))
        fake_half = -np.mean(np.log(1.0 - p))
        assert saturating == pytest.approx(-fake_half, rel=1e-15)
        loss = BinaryCrossEntropy()
        assert fake_half == pytest.approx(loss.value(p, np.zeros_like(p)), rel=1e-12)


class TestTrainLoop:
    def test_history_lengths_and_finiteness(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3, hidden=4)
        trainer = GanTrainer(gen, disc, 2, SGD(0.05), SGD(0.05), batch_size=4)
        data = Rng(1).uniform((10, 3))
        history = trainer.train(data, epochs=3)
        assert len(history["d_loss"]) == 6
        assert len(history["g_loss"]) == 6
        assert np.isfinite(history["d_loss"]).all()
        assert np.isfinite(history["g_loss"]).all()

    def test_needs_one_full_batch(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3)
        trainer = GanTrainer(gen, disc, 2, SGD(0.1), SGD(0.1), batch_size=64)
        with pytest.raises(ValueError, match="full batch"):
            trainer.train(Rng(1).uniform((10, 3)), epochs=1)

    def test_sample_hook_schedule(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3)
        trainer = GanTrainer(gen, disc, 2, SGD(0.01), SGD(0.01), batch_size=4)
        calls = []
        trainer.train(
            Rng(1).uniform((8, 3)),
            epochs=5,
            sample_hook=lambda epoch, samples: calls.append((epoch, samples.shape)),
            sample_hook_every=2,
        )
        assert [c[0] for c in calls] == [1, 2, 4]
        assert all(c[1] == (100, 3) for c in calls)

    @pytest.mark.parametrize("every", [0, -2])
    def test_sample_hook_every_below_one_rejected(self, every):
        trainer = GanTrainer(tiny_generator(), tiny_discriminator(), 2, SGD(0.1), SGD(0.1),
                             batch_size=4)
        with pytest.raises(ValueError, match="sample_hook_every must be at least 1, got %d"
                           % every):
            trainer.train(Rng(1).uniform((8, 1)), epochs=2, sample_hook_every=every)


class TestSample:
    def test_plain_output_keeps_shape(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3)
        trainer = GanTrainer(gen, disc, 2, SGD(0.1), SGD(0.1))
        assert trainer.sample(7).shape == (7, 3)

    def test_784_wide_output_reshapes_to_images(self):
        trainer = default_image_gan()
        out = trainer.sample(2)
        assert out.shape == (2, 28, 28)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_explicit_rng_reproduces(self):
        gen = tiny_generator(latent_dim=2, out_dim=3)
        disc = tiny_discriminator(in_dim=3)
        trainer = GanTrainer(gen, disc, 2, SGD(0.1), SGD(0.1))
        npt.assert_array_equal(trainer.sample(4, rng=Rng(3)), trainer.sample(4, rng=Rng(3)))


class TestDefaultImageGan:
    def test_generator_stack(self):
        trainer = default_image_gan()
        gen = trainer.generator
        assert [l.units for l in gen.layers] == [256, 512, 1024, 784]
        assert [l.activation.name for l in gen.layers] == [
            "leaky_relu",
            "leaky_relu",
            "leaky_relu",
            "tanh",
        ]
        assert gen.param_counts() == [2816, 131584, 525312, 803600]

    def test_discriminator_stack(self):
        trainer = default_image_gan()
        disc = trainer.discriminator
        kinds = [l.kind for l in disc.layers]
        assert kinds == [
            "dense",
            "dropout",
            "dense",
            "dropout",
            "dense",
            "dropout",
            "dense",
        ]
        dense = [l for l in disc.layers if l.kind == "dense"]
        assert [l.units for l in dense] == [1024, 512, 256, 1]
        assert dense[-1].activation.name == "sigmoid"
        assert all(l.rate == 0.3 for l in disc.layers if l.kind == "dropout")
        assert disc.total_params() == 803840 + 524800 + 131328 + 257

    def test_first_discriminator_layer_init_spread(self):
        trainer = default_image_gan()
        W = trainer.discriminator.layers[0].params["W"]
        assert W.shape == (784, 1024)
        assert W.std() == pytest.approx(0.02, rel=0.05)

    def test_optimizers_and_knobs(self):
        trainer = default_image_gan(latent_dim=6, lr=0.001, beta1=0.7, batch_size=32)
        assert isinstance(trainer.d_optimizer, Adam)
        assert isinstance(trainer.g_optimizer, Adam)
        assert trainer.d_optimizer.lr == 0.001
        assert trainer.d_optimizer.beta1 == 0.7
        assert trainer.latent_dim == 6
        assert trainer.batch_size == 32
        assert trainer.smoothing == 0.9
