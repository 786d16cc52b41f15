"""Adversarial training of a generator / discriminator pair.

The two networks are ordinary sequential models; this module owns the
alternating update schedule and keeps the freezing honest. One round
is:

  discriminator step: draw latent noise, generate fakes in inference
  mode, stack them under a real batch (real rows first), and fit the
  discriminator one step toward smoothed real labels and zero fake
  labels. The generator is never differentiated here.

  generator step: draw fresh noise, push it through the generator and
  discriminator in training mode, take binary cross entropy against
  all-ones labels, and backpropagate through the discriminator for its
  input gradient only: its weight gradients are not computed (its
  ``flat_grads`` are neither read nor written) and its parameters are
  not stepped. That input gradient then fills the generator's weight
  gradients, with no gradient taken for the noise, and only the
  generator is stepped.

Each step is one call of the training step ``SequentialModel.fit``
runs (``_train_step``): on the discriminator for the first, and on the
generator ``through`` the frozen discriminator for the second.

Both models must be compiled (their attached optimizers are ignored;
the trainer steps its own two optimizers over each network's
parameters). The discriminator must end in a sigmoid since the loss
gradient is taken with respect to its logits.
"""

from __future__ import annotations

import numpy as np

from .layers import Dense, Dropout
from .losses import BinaryCrossEntropy
from .model import SequentialModel, _check_batch_size
from .optim import Adam
from .tensor import Rng


class GanTrainer:
    def __init__(
        self,
        generator,
        discriminator,
        latent_dim,
        d_optimizer,
        g_optimizer,
        smoothing=0.9,
        batch_size=128,
        seed=0,
    ):
        if not generator.compiled or not discriminator.compiled:
            raise ValueError("generator and discriminator must be compiled")
        act = getattr(discriminator.layers[-1], "activation", None)
        if act is None or act.name != "sigmoid":
            raise ValueError("discriminator must end with a sigmoid output")
        self.generator = generator
        self.discriminator = discriminator
        self.latent_dim = int(latent_dim)
        self.d_optimizer = d_optimizer
        self.g_optimizer = g_optimizer
        self.smoothing = float(smoothing)
        self.batch_size = int(batch_size)
        _check_batch_size(self.batch_size)
        self.rng = Rng(seed)
        self._loss = BinaryCrossEntropy()

    # -- single steps ------------------------------------------------------

    def discriminator_step(self, real_batch, rng=None):
        """One discriminator update on a stack of real rows (labeled
        with the smoothing value) over generated rows (labeled 0)."""
        rng = rng or self.rng
        real_batch = np.asarray(real_batch, dtype=np.float64)
        b = real_batch.shape[0]
        z = rng.normal((b, self.latent_dim))
        fakes = self.generator.predict(z)
        x = np.concatenate([real_batch, fakes], axis=0)
        y = np.zeros((2 * b, 1))
        y[:b] = self.smoothing
        value, _ = self.discriminator._train_step(x, y, self._loss, self.d_optimizer)
        return value

    def generator_step(self, rng=None):
        """One generator update through the frozen discriminator, toward
        the discriminator calling the fakes real."""
        rng = rng or self.rng
        b = self.batch_size
        z = rng.normal((b, self.latent_dim))
        value, _ = self.generator._train_step(
            z, np.ones((b, 1)), self._loss, self.g_optimizer, through=self.discriminator
        )
        return value

    # -- the loop ----------------------------------------------------------

    def train(self, real_data, epochs, sample_hook=None, sample_hook_every=20):
        """Alternate one discriminator and one generator step,
        int(rows / batch_size) rounds per epoch, sampling real batches
        with replacement. Returns {"d_loss": [...], "g_loss": [...]}
        with one entry per round. The sample hook fires after epoch 1
        and every ``sample_hook_every`` epochs with (epoch, samples).
        """
        if sample_hook_every < 1:
            raise ValueError("sample_hook_every must be at least 1, got %d" % sample_hook_every)
        real_data = np.asarray(real_data, dtype=np.float64)
        n = real_data.shape[0]
        batch_count = n // self.batch_size
        if batch_count == 0:
            raise ValueError(
                "need at least one full batch: %d rows < batch size %d"
                % (n, self.batch_size)
            )
        history = {"d_loss": [], "g_loss": []}
        for epoch in range(1, epochs + 1):
            for _ in range(batch_count):
                idx = self.rng.integers(n, self.batch_size)
                history["d_loss"].append(self.discriminator_step(real_data[idx]))
                history["g_loss"].append(self.generator_step())
            if sample_hook is not None and (
                epoch == 1 or epoch % sample_hook_every == 0
            ):
                sample_hook(epoch, self.sample(100))
        return history

    def sample(self, n, rng=None):
        """Generate n outputs in inference mode. Flat 784-wide outputs
        come back reshaped to [n, 28, 28]."""
        rng = rng or self.rng
        z = rng.normal((n, self.latent_dim))
        out = self.generator.predict(z)
        if out.ndim == 2 and out.shape[1] == 784:
            return out.reshape(n, 28, 28)
        return out


def default_image_gan(latent_dim=10, seed=0, lr=0.0002, beta1=0.5, batch_size=128):
    """The stock 28x28 image pair: a 256/512/1024 leaky-relu generator
    ending in tanh over 784 outputs, and a 1024/512/256 leaky-relu
    discriminator with 0.3 dropout after each hidden layer and a
    sigmoid head, its first layer initialized from a 0.02-std normal.
    Both optimizers are Adam(lr, beta1)."""
    gen = SequentialModel(
        [
            Dense(256, activation="leaky_relu"),
            Dense(512, activation="leaky_relu"),
            Dense(1024, activation="leaky_relu"),
            Dense(784, activation="tanh"),
        ],
        seed=seed,
    )
    gen.compile((latent_dim,), "mse", "sgd")
    disc = SequentialModel(
        [
            Dense(1024, activation="leaky_relu", init=("normal", 0.02)),
            Dropout(0.3),
            Dense(512, activation="leaky_relu"),
            Dropout(0.3),
            Dense(256, activation="leaky_relu"),
            Dropout(0.3),
            Dense(1, activation="sigmoid"),
        ],
        seed=seed + 1,
    )
    disc.compile((784,), "binary_crossentropy", "sgd")
    return GanTrainer(
        gen,
        disc,
        latent_dim=latent_dim,
        d_optimizer=Adam(lr=lr, beta1=beta1),
        g_optimizer=Adam(lr=lr, beta1=beta1),
        smoothing=0.9,
        batch_size=batch_size,
        seed=seed + 2,
    )
