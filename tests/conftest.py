"""Shared fixtures: procedurally drawn digit images and a synthetic
feature table, both seeded, used whenever the real datasets are not on
disk. Environment variables can point at real files:

  MINIDL_MNIST_IMAGES / MINIDL_MNIST_LABELS   IDX pair
  MINIDL_HOUSING                              numeric CSV, label last
  MINIDL_WARPEACE                             plain text corpus
"""

import os

import numpy as np
import pytest

from minidl import Rng, save_idx

# 5x7 bitmap font for the ten digits
_FONT = {
    0: ("01110", "10001", "10011", "10101", "11001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11111", "00010", "00100", "00010", "00001", "10001", "01110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}

_GLYPHS = {
    d: np.array([[int(c) for c in row] for row in rows], dtype=np.float64)
    for d, rows in _FONT.items()
}


def draw_digits(n, seed):
    """n jittered, noisy 28x28 grayscale digits (values 0..255) with
    their labels. Deterministic in the seed."""
    rng = Rng(seed)
    images = np.zeros((n, 28, 28))
    labels = np.zeros(n, dtype=np.int64)
    for k in range(n):
        d = rng.randint(10)
        glyph = np.kron(_GLYPHS[d], np.ones((3, 3)))  # 21 x 15
        top = 3 + rng.randint(4) - 2  # 1..4
        left = 6 + rng.randint(9) - 4  # 2..10
        strength = 255.0 * (0.7 + 0.3 * rng.uniform())
        canvas = rng.normal((28, 28), mean=0.0, std=8.0)
        canvas[top : top + 21, left : left + 15] += glyph * strength
        images[k] = np.clip(canvas, 0.0, 255.0)
        labels[k] = d
    return images, labels


@pytest.fixture(scope="session")
def digit_train():
    return draw_digits(2000, seed=101)


@pytest.fixture(scope="session")
def digit_test():
    return draw_digits(500, seed=202)


@pytest.fixture(scope="session")
def digit_idx_paths(tmp_path_factory, digit_train, digit_test):
    """IDX files on disk: (train_images, train_labels, test_images,
    test_labels). Real files win when the environment points at them."""
    env_imgs = os.environ.get("MINIDL_MNIST_IMAGES")
    env_labels = os.environ.get("MINIDL_MNIST_LABELS")
    if env_imgs and env_labels and os.path.exists(env_imgs) and os.path.exists(env_labels):
        return (env_imgs, env_labels, env_imgs, env_labels)
    d = tmp_path_factory.mktemp("idx")
    paths = (
        str(d / "train-images.idx"),
        str(d / "train-labels.idx"),
        str(d / "test-images.idx"),
        str(d / "test-labels.idx"),
    )
    save_idx(*digit_train, paths[0], paths[1])
    save_idx(*digit_test, paths[2], paths[3])
    return paths


def separable_table(n, n_features, seed):
    """Linearly separable rows with a margin: features in [0, 1], label
    from a fixed hyperplane, points near the boundary nudged away."""
    rng = Rng(seed)
    X = rng.uniform((n, n_features))
    w = rng.normal((n_features,))
    score = (X - 0.5) @ w
    y = (score > 0.0).astype(np.float64)
    # push within-margin points outward so the classes do not touch
    margin = 0.25
    tight = np.abs(score) < margin
    X[tight] += np.outer(
        (margin - np.abs(score[tight])) * np.sign(score[tight]) / np.dot(w, w), w
    )
    return X, y.reshape(-1, 1)


@pytest.fixture(scope="session")
def housing_csv(tmp_path_factory):
    """Path to a 1460-row, 10-feature + label CSV: the real table if the
    environment names one, otherwise a seeded synthetic stand-in."""
    env = os.environ.get("MINIDL_HOUSING")
    if env and os.path.exists(env):
        return env, True
    X, y = separable_table(1460, 10, seed=77)
    path = tmp_path_factory.mktemp("tab") / "table.csv"
    header = ["f%d" % i for i in range(10)] + ["label"]
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row, label in zip(X, y[:, 0]):
            f.write(",".join(repr(float(v)) for v in row) + "," + repr(float(label)) + "\n")
    return str(path), False


def fd_grads(loss, eps, **arrays):
    """Central differences of ``loss()`` with respect to each keyword
    array, by the same names. Each array is perturbed through itself,
    element by element: the reshape(-1) of a strided array (an LSTM gate
    view, a transposed input) is a copy, which the perturbation would
    not reach."""
    grads = {}
    for name, arr in arrays.items():
        num = np.zeros(arr.shape)
        for at in np.ndindex(arr.shape):
            orig = arr[at]
            arr[at] = orig + eps
            hi = loss()
            arr[at] = orig - eps
            lo = loss()
            arr[at] = orig
            num[at] = (hi - lo) / (2 * eps)
        grads[name] = num
    return grads


def warpeace_path():
    env = os.environ.get("MINIDL_WARPEACE")
    if env and os.path.exists(env):
        return env
    for cand in ("data/war_and_peace.txt", "data/warpeace.txt"):
        if os.path.exists(cand):
            return cand
    return None
