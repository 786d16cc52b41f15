"""Activation functions and their derivatives.

Each activation is exposed as a pair: ``fn(x)`` applied to the
preactivation and ``deriv(x, y)`` giving the elementwise derivative,
where ``y`` is the already-computed output (reused when the derivative
is cheaper in terms of the output, as for sigmoid and tanh).
"""

from __future__ import annotations

import numpy as np


def sigmoid(x, out=None):
    # For x >= 0 this is 1 / (1 + exp(-x)), for x < 0 it is
    # exp(x) / (1 + exp(x)): the forms whose exp is at most 1, so
    # nothing overflows. Written without masks or a select it gives the
    # same bits as splitting the array on sign, several times faster.
    # ``out`` may be ``x`` itself: the denominator is taken first.
    x = np.asarray(x, dtype=np.float64)
    den = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(den, out=den), out=den)
    den += 1.0
    return np.divide(np.exp(np.minimum(x, 0.0, out=out), out=out), den, out=out)


def dsigmoid(x, y=None):
    if y is None:
        y = sigmoid(x)
    return y * (1.0 - y)


def tanh(x):
    return np.tanh(np.asarray(x, dtype=np.float64))


def dtanh(x, y=None):
    if y is None:
        y = tanh(x)
    return 1.0 - y * y


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def drelu(x, y=None):
    # Subgradient 0 at the kink: strictly positive inputs pass gradient.
    return (np.asarray(x, dtype=np.float64) > 0.0).astype(np.float64)


def _check_slope(slope):
    # the max form below needs 0 < slope <= 1: at 0 it turns +inf into
    # NaN (0 * inf), above 1 it picks the wrong branch
    if not 0.0 < slope <= 1.0:  # also rejects NaN
        raise ValueError("leaky_relu slope must be in (0, 1], got %r" % (slope,))


def leaky_relu(x, slope=0.2):
    # max(x, slope * x) is x for x > 0 and slope * x otherwise: the bits
    # of np.where(x > 0, x, slope * x), written into one buffer
    _check_slope(slope)
    x = np.asarray(x, dtype=np.float64)
    out = np.multiply(x, slope, out=np.empty_like(x))
    return np.maximum(x, out, out=out)


def dleaky_relu(x, slope=0.2, y=None):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0.0, 1.0, slope)


def linear(x):
    return np.asarray(x, dtype=np.float64)


def dlinear(x, y=None):
    return np.ones_like(np.asarray(x, dtype=np.float64))


def softmax(x):
    """Row-wise softmax over the last axis, shifted by the row max so
    the exponentials stay bounded. The shift cancels exactly."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def dsoftmax(x, y=None):
    raise NotImplementedError(
        "softmax has no standalone elementwise backward; pair it with the "
        "fused softmax cross-entropy loss, which takes logits and emits the "
        "combined gradient"
    )


class Activation:
    """Named activation with forward and derivative callables."""

    def __init__(self, name, fn, deriv):
        self.name = name
        self.fn = fn
        self.deriv = deriv

    def __repr__(self):
        return "Activation(%r)" % (self.name,)


def _make_leaky(slope):
    return Activation(
        "leaky_relu",
        lambda x: leaky_relu(x, slope),
        lambda x, y=None: dleaky_relu(x, slope, y),
    )


_REGISTRY = {
    "sigmoid": Activation("sigmoid", sigmoid, dsigmoid),
    "tanh": Activation("tanh", tanh, dtanh),
    "relu": Activation("relu", relu, drelu),
    "linear": Activation("linear", linear, dlinear),
    "softmax": Activation("softmax", softmax, dsoftmax),
}


def get(name, slope=0.2):
    """Look up an activation by name. ``leaky_relu`` takes its negative
    slope here because the value is architecture configuration, not
    call-site state."""
    if isinstance(name, Activation):
        return name
    if name == "leaky_relu":
        _check_slope(slope)
        return _make_leaky(slope)
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown activation %r (choices: %s, leaky_relu)"
            % (name, ", ".join(sorted(_REGISTRY)))
        ) from None
