"""Feed-forward layers with explicit forward and backward passes.

Each layer caches what its own backward pass needs during forward, so
training code is just forward, loss gradient, backward, optimizer step.
``build`` gives each trainable parameter a gradient array of its shape
in ``self.grads``, keyed like ``self.params``. A parameter is changed by
writing into it, never by rebinding its entry: once a model is
compiled, both dicts hold views into the model's flat parameter and
gradient vectors.

The backward contract, shared by every layer in the library::

    backward(upstream, preact=False, input_grad=True, param_grads=True)

takes the gradient with respect to the layer's output. With
``param_grads`` it writes the gradient of every trainable parameter
into that parameter's ``self.grads`` array (``out=`` or ``[...] =``,
never replacing the array); without it those arrays are left exactly as
they were, neither read nor written. With ``input_grad`` it returns the
gradient with respect to the layer input; without it it returns None.
A False flag skips the GEMMs and sums that only it would need, and
nothing else changes: what is computed comes out bit for bit as with
both flags on. A layer whose input has no gradient (``Embedding``)
returns None either way.

The ``preact`` flag exists for losses fused with the output activation:
when True the layer treats the incoming gradient as already being with
respect to its preactivation and skips the activation derivative. Only
the final layer of a model should ever see preact=True.
"""

from __future__ import annotations

import math

import numpy as np

from . import activations


# ---------------------------------------------------------------------------
# weight initializers
# ---------------------------------------------------------------------------

def variance_scaling(mode="fan_in"):
    """Normal draws with std 1/sqrt(fan), fan chosen by mode
    (fan_in, fan_out, or their average)."""
    if mode not in ("fan_in", "fan_out", "fan_avg"):
        raise ValueError("unknown variance scaling mode %r" % (mode,))

    def init(shape, rng, fan_in, fan_out):
        fan = {
            "fan_in": fan_in,
            "fan_out": fan_out,
            "fan_avg": 0.5 * (fan_in + fan_out),
        }[mode]
        return rng.normal(shape, std=1.0 / math.sqrt(fan))

    return init


def glorot_normal():
    """Normal draws with std sqrt(2 / (fan_in + fan_out))."""

    def init(shape, rng, fan_in, fan_out):
        return rng.normal(shape, std=math.sqrt(2.0 / (fan_in + fan_out)))

    return init


def random_normal(std=0.02):
    def init(shape, rng, fan_in, fan_out):
        return rng.normal(shape, std=std)

    return init


def positive_int(name, value):
    """``int(value)``, or ValueError naming the argument when it is
    below one."""
    n = int(value)
    if n < 1:
        raise ValueError("%s must be at least 1, got %r" % (name, value))
    return n


def get_initializer(spec):
    """Resolve an initializer: a callable passes through, a string names
    a family, and ("normal", std) fixes the spread explicitly."""
    if callable(spec):
        return spec
    if isinstance(spec, str):
        if spec == "glorot":
            return glorot_normal()
        if spec in ("fan_in", "fan_out", "fan_avg"):
            return variance_scaling(spec)
        if spec == "normal":
            return random_normal()
        raise ValueError("unknown initializer %r" % (spec,))
    if isinstance(spec, (tuple, list)) and len(spec) == 2 and spec[0] == "normal":
        return random_normal(float(spec[1]))
    raise ValueError("unknown initializer %r" % (spec,))


# ---------------------------------------------------------------------------
# base layer
# ---------------------------------------------------------------------------

class Layer:
    kind = "layer"
    _cache = None

    def __init__(self):
        self.params = {}
        self.grads = {}
        self.state = {}  # saved but not optimized (running stats)
        self.trainable = True

    def build(self, input_shape, rng):
        """Record the per-sample input shape and give each trainable
        parameter a gradient array of its shape. Subclasses create
        ``self.params`` first, then call this."""
        self.input_shape = tuple(input_shape)
        self.grads = (
            {k: np.zeros_like(p) for k, p in self.params.items()} if self.trainable else {}
        )

    def out_shape(self, input_shape):
        return tuple(input_shape)

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        raise NotImplementedError

    def _take_cache(self):
        """Hand the last forward's cache to backward, which may overwrite
        or free it: each forward's cache serves one backward."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise ValueError(
                "%s backward needs a forward first: each forward's cache "
                "serves one backward" % (self.kind,)
            )
        return cache

    def param_count(self):
        return int(sum(p.size for p in self.params.values()))

    def hyper(self):
        """Constructor arguments needed to rebuild the layer."""
        return {}

    def _check_input(self, x):
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                "%s expected per-sample shape %s, got %s"
                % (self.kind, self.input_shape, x.shape[1:])
            )


class Dense(Layer):
    """Fully connected layer: out = act(x @ W + b)."""

    kind = "dense"

    def __init__(self, units, activation="linear", init="glorot", leaky_slope=0.2):
        super().__init__()
        self.units = positive_int("units", units)
        self.activation = activations.get(activation, slope=leaky_slope)
        self._init_spec = init
        self._leaky_slope = leaky_slope

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(
                "dense expects flat per-sample input, got shape %s" % (input_shape,)
            )
        n_in = input_shape[0]
        init = get_initializer(self._init_spec)
        self.params = {
            "W": init((n_in, self.units), rng, n_in, self.units),
            "b": np.zeros(self.units),
        }
        super().build(input_shape, rng)

    def out_shape(self, input_shape):
        return (self.units,)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        self._x = x
        pre = self._pre = x @ self.params["W"]
        pre += self.params["b"]
        self._out = self.activation.fn(self._pre)
        return self._out

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        if preact:
            delta = upstream
        else:
            delta = upstream * self.activation.deriv(self._pre, self._out)
        if param_grads:
            np.matmul(self._x.T, delta, out=self.grads["W"])
            np.sum(delta, axis=0, out=self.grads["b"])
        return delta @ self.params["W"].T if input_grad else None

    @property
    def preactivation(self):
        """Last forward pass's x @ W + b, before the activation."""
        return self._pre

    def hyper(self):
        h = {"units": self.units, "activation": self.activation.name}
        if self.activation.name == "leaky_relu":
            h["leaky_slope"] = self._leaky_slope
        return h


class Dropout(Layer):
    """Inverted dropout. ``rate`` is the probability an activation is
    dropped; surviving values are scaled by 1/(1-rate) during training
    so inference is a plain identity."""

    kind = "dropout"

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1), got %r" % (rate,))
        self.rate = float(rate)

    def build(self, input_shape, rng):
        self._rng = rng
        super().build(input_shape, rng)

    def forward(self, x, train=False):
        # shape-agnostic; the mask is drawn fresh for whatever arrives
        x = np.asarray(x, dtype=np.float64)
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.uniform(x.shape) >= self.rate).astype(np.float64) / keep
        return x * self._mask

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        if not input_grad:
            return None
        if self._mask is None:
            return upstream
        return upstream * self._mask

    def hyper(self):
        return {"rate": self.rate}


class BatchNorm(Layer):
    """Batch normalization over the feature axis of 2-D input.

    Training uses batch mean and (biased) variance and folds them into
    running statistics with the given momentum; inference uses the
    running statistics. A training batch of one row has no variance to
    speak of: it is normalized with the running statistics, which it
    leaves unchanged, and backpropagated as in inference.
    """

    kind = "batchnorm"

    def __init__(self, momentum=0.99, eps=1e-3):
        super().__init__()
        self.momentum = float(momentum)
        self.eps = float(eps)

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(
                "batchnorm expects flat per-sample input, got shape %s" % (input_shape,)
            )
        n = input_shape[0]
        self.params = {"gamma": np.ones(n), "beta": np.zeros(n)}
        self.state = {"running_mean": np.zeros(n), "running_var": np.ones(n)}
        super().build(input_shape, rng)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        # a one-row batch has no variance: normalize it as in inference
        train = train and x.shape[0] > 1
        if train:
            mu = np.mean(x, axis=0)
            var = np.var(x, axis=0)
            m = self.momentum
            self.state["running_mean"][:] = m * self.state["running_mean"] + (1 - m) * mu
            self.state["running_var"][:] = m * self.state["running_var"] + (1 - m) * var
        else:
            mu = self.state["running_mean"]
            var = self.state["running_var"]
        self._inv_std = 1.0 / np.sqrt(var + self.eps)
        self._xhat = (x - mu) * self._inv_std
        self._train_batch = x.shape[0] if train else None
        return self.params["gamma"] * self._xhat + self.params["beta"]

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        xhat = self._xhat
        if param_grads:
            np.sum(upstream * xhat, axis=0, out=self.grads["gamma"])
            np.sum(upstream, axis=0, out=self.grads["beta"])
        if not input_grad:
            return None
        dxhat = upstream * self.params["gamma"]
        if self._train_batch is None:
            # inference-mode backward (frozen statistics) is a plain
            # elementwise scale
            return dxhat * self._inv_std
        n = self._train_batch
        return (
            self._inv_std
            / n
            * (n * dxhat - np.sum(dxhat, axis=0) - xhat * np.sum(dxhat * xhat, axis=0))
        )

    def hyper(self):
        return {"momentum": self.momentum, "eps": self.eps}


class Flatten(Layer):
    kind = "flatten"

    def build(self, input_shape, rng):
        self._n = int(np.prod(input_shape, dtype=np.int64))
        super().build(input_shape, rng)

    def out_shape(self, input_shape):
        return (int(np.prod(input_shape, dtype=np.int64)),)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        self._shape = x.shape
        return np.ascontiguousarray(x).reshape(x.shape[0], self._n)

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        return upstream.reshape(self._shape) if input_grad else None
