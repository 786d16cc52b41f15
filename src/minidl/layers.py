"""Feed-forward layers with explicit forward and backward passes.

Each forward keeps all that its backward reads in one ``self._cache``,
and each backward starts with ``_take_cache``, even when a flag makes it
return None: a backward with no forward, or a second one, raises
ValueError naming the kind. A forward that checks its input
(``_check_input``) drops the last cache, taken or not, before it
allocates. ``_activate`` caches the preactivation and output first;
``preactivation`` reads them until backward.
Each layer kind declares its constructor arguments once, in ``_args``
(name, checker, default: ``_Arg``), and in ``_shapes(input_shape)`` the
shapes of its parameters and state. The constructor, ``hyper()`` (so the
model file) and ``load_model``'s check of a file's block table before it
builds anything all read them. A refused argument raises ValueError naming
it. ``Layer.build`` checks the per-sample input rank against ``_rank`` and
``_form`` ("<kind> expects <form> input, got shape ..."), lays the declared
parameters out as consecutive views of one zero vector and their gradients
(``self.grads``, keyed like ``self.params``) as views of a second
(``_carve``), and lets ``_init_params(rng)`` write initial values with all
the layer's ``rng`` draws. In a compiled model those vectors are the
layer's slices of the model's ``flat_params`` and ``flat_grads``, so its
parameters are born there. A parameter is changed by writing into it,
never by rebinding its entry, which would cut it off from the vector.

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

import inspect
import math
import numbers
import sys
from collections import namedtuple

import numpy as np

from . import activations
from .activations import Activation


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


# A layer kind's constructor argument: its name; check(name, value), which
# returns what the layer keeps or raises ValueError naming the argument; its
# default (empty: none); and whether hyper() records it: True, False, or saved(layer).
_Arg = namedtuple("_Arg", "name check default saved", defaults=(inspect.Parameter.empty, True))


def _real(value):
    """Whether ``value`` is a real number and not a bool. A range check
    after it refuses NaN, which fails every comparison."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(name, value, least=1, what="a whole number"):
    """``value`` as an int: a whole number (an integer, or a finite float
    with a whole value; not a bool) of at least ``least``."""
    if not (_real(value) and (isinstance(value, numbers.Integral)
                              or math.isfinite(value) and float(value).is_integer())):
        raise ValueError("%s must be %s, got %r" % (name, what, value))
    if value < least:
        raise ValueError("%s must be at least %d, got %r" % (name, least, value))
    return int(value)


def _size(shapes):
    """The number of values in arrays of ``shapes`` (name to shape)."""
    return sum(math.prod(shape) for shape in shapes.values())


def _pair(name, value):
    """A count (``_count``) or a pair of them, as a pair."""
    pair = tuple(value) if isinstance(value, (tuple, list)) else (value, value)
    if len(pair) != 2:
        raise ValueError("%s must be a whole number or a pair, got %r" % (name, value))
    return _count(name, pair[0]), _count(name, pair[1])


def _padding(name, value):
    """"valid", "same", or a whole number of at least 0 as an int."""
    if isinstance(value, str) and value in ("valid", "same"):
        return value
    return _count(name, value, 0, '"valid", "same" or a whole number')


def _checker(what, test, keep=None):
    """A check that refuses each value ``test`` does not accept as not
    ``what``, and keeps ``keep(value)``, or the value as given."""
    def check(name, value):
        if not test(value):
            raise ValueError("%s must be %s, got %r" % (name, what, value))
        return value if keep is None else keep(value)

    return check


def _initializer(name, value):
    """The initializer ``get_initializer`` resolves ``value`` to."""
    try:
        return get_initializer(value)
    except (TypeError, ValueError) as e:
        raise ValueError("%s: %s" % (name, e)) from None


_flag = _checker("True or False", lambda v: isinstance(v, (bool, np.bool_)), bool)
_activation = _checker("an activation name", lambda v: isinstance(v, (str, Activation)))


# ---------------------------------------------------------------------------
# base layer
# ---------------------------------------------------------------------------

class Layer:
    kind = "layer"
    _cache = None
    # the per-sample input rank ``build`` accepts, and its description
    # in the message for any other rank; None accepts every rank
    _rank = _form = None
    # the constructor's arguments, in order, and the parameters ``_init_params`` draws
    _args = _drawn = ()

    def __init_subclass__(cls):
        cls.__signature__ = inspect.Signature([
            inspect.Parameter(a.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default=a.default)
            for a in cls._args
        ])

    def __init__(self, *args, **kwargs):
        """Bind the arguments to ``_args`` (TypeError as for any call) and
        keep each, checked, as the attribute of its name. An ``activation``
        becomes an ``Activation``, a leaky_relu with the ``leaky_slope``."""
        self.params = {}
        self.grads = {}
        self.state = {}  # saved but not optimized (running stats)
        self.trainable = True
        given = self.__signature__.bind(*args, **kwargs)
        given.apply_defaults()
        for arg in self._args:
            setattr(self, arg.name, arg.check(arg.name, given.arguments[arg.name]))
        if "activation" in given.arguments:
            self.activation = activations.get(
                self.activation, slope=getattr(self, "leaky_slope", 0.2)
            )

    def hyper(self):
        """The recorded constructor arguments (``_Arg.saved``) that rebuild
        the layer, the activation by its name (a manifest writes pairs as lists)."""
        hyper = {}
        for arg in self._args:
            if arg.saved(self) if callable(arg.saved) else arg.saved:
                value = getattr(self, arg.name)
                hyper[arg.name] = value.name if isinstance(value, Activation) else value
        return hyper

    def _declared(self, input_shape):
        """Check the input rank, then ``_shapes(input_shape)``."""
        if self._rank is not None and len(input_shape) != self._rank:
            raise ValueError(
                "%s expects %s input, got shape %s" % (self.kind, self._form, tuple(input_shape))
            )
        return self._shapes(input_shape)

    def _shapes(self, input_shape):
        """The shapes of the parameters and of the state the layer holds
        for ``input_shape``: two dicts, name to shape; none by default."""
        return {}, {}

    def build(self, input_shape, rng, into=None):
        """Check the input rank and record the shape, lay the parameters
        ``_shapes`` declares out in ``into``, a compiled model's slices of
        its two flat vectors, or else in a zero pair of the layer's own
        (``_carve``), allocate the state, and let ``_init_params`` draw.
        A frozen layer (not ``trainable``) has no gradients."""
        shapes, state = self._declared(input_shape)
        self.input_shape = tuple(input_shape)
        if into is None:
            into = np.zeros(_size(shapes)), np.zeros(_size(shapes))
        self.params, self.grads = self._carve(shapes, *into)
        if not self.trainable:
            self.grads = {}
        self.state = {k: np.zeros(shape) for k, shape in state.items()}
        self._init_params(rng)

    def _carve(self, shapes, flat, flat_grads):
        """Consecutive views of ``flat`` shaped as ``shapes`` (name to
        shape), in order, and the same views of ``flat_grads``: the
        ``params`` and ``grads`` dicts."""
        params, grads, lo = {}, {}, 0
        for k, shape in shapes.items():
            hi = lo + math.prod(shape)
            params[k] = flat[lo:hi].reshape(shape)
            grads[k] = flat_grads[lo:hi].reshape(shape)
            lo = hi
        return params, grads

    def _init_params(self, rng):
        """Write the initial values over the zeros ``build`` laid out, with
        all of the layer's ``rng`` draws: by default each ``_drawn`` parameter
        in turn from ``self.init``, fans from its shape [..., fan_in, fan_out]."""
        for k in self._drawn:
            p = self.params[k]
            p[...] = self.init(p.shape, rng, math.prod(p.shape[:-1]),
                               math.prod(p.shape[:-2]) * p.shape[-1])

    def out_shape(self, input_shape):
        return tuple(input_shape)

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        raise NotImplementedError

    def _take_cache(self):
        """Hand the last forward's cache to backward, which may overwrite
        it: each forward's cache serves one backward. ``_spent`` holds it on
        until the next forward: caches freed at backward let the heap shrink
        after each step, and the next step paid page faults to regrow it."""
        cache, self._cache = self._cache, None
        if cache is None:
            raise ValueError(
                "%s backward needs a forward first: each forward's cache "
                "serves one backward" % (self.kind,)
            )
        self._spent = cache
        return cache

    def param_count(self):
        return int(sum(p.size for p in self.params.values()))

    def _check_input(self, x):
        self._cache = self._spent = None
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                "%s expected per-sample shape %s, got %s"
                % (self.kind, self.input_shape, x.shape[1:])
            )

    def _activate(self, pre, *keep):
        """Cache ``pre``, its activation, then ``keep``; return the activation."""
        out = self.activation.fn(pre)
        self._cache = (pre, out) + keep
        return out

    @property
    def preactivation(self):
        """The last forward's preactivation, until backward takes the cache."""
        if self._cache is None:
            raise ValueError("%s has no preactivation: no forward since backward" % self.kind)
        return self._cache[0]


class Dense(Layer):
    """Fully connected layer: out = act(x @ W + b). Forward and backward
    read every leading axis as rows, one GEMM over [rows, n_in]; the
    input check admits only [batch, n_in] here."""

    kind = "dense"
    _rank, _form = 1, "flat per-sample"
    _args = (
        _Arg("units", _count),
        _Arg("activation", _activation, "linear"),
        _Arg("init", _initializer, "glorot", saved=False),
        # recorded as given, and only where it acts
        _Arg("leaky_slope", _checker("in (0, 1]", lambda v: _real(v) and 0 < v <= 1), 0.2,
             saved=lambda layer: layer.activation.name == "leaky_relu"),
    )

    _drawn = ("W",)

    def _shapes(self, input_shape):
        return {"W": (input_shape[-1], self.units), "b": (self.units,)}, {}

    def out_shape(self, input_shape):
        return tuple(input_shape[:-1]) + (self.units,)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        x_rows = x.reshape(-1, x.shape[-1])
        pre = x_rows @ self.params["W"]
        pre += self.params["b"]
        return self._activate(pre.reshape(x.shape[:-1] + (self.units,)), x_rows)

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        pre, out, x_rows = self._take_cache()
        # with ``preact`` a fused loss already differentiated through the activation
        delta = upstream if preact else upstream * self.activation.deriv(pre, out)
        rows = delta.reshape(-1, self.units)
        if param_grads:
            np.matmul(x_rows.T, rows, out=self.grads["W"])
            np.sum(rows, axis=0, out=self.grads["b"])
        if not input_grad:
            return None
        return (rows @ self.params["W"].T).reshape(delta.shape[:-1] + x_rows.shape[1:])


class Dropout(Layer):
    """Inverted dropout. ``rate`` is the probability an activation is
    dropped; surviving values are scaled by 1/(1-rate) during training
    so inference is a plain identity."""

    kind = "dropout"
    _args = (_Arg("rate", _checker("in [0, 1)", lambda v: _real(v) and 0 <= v < 1, float)),)

    def _init_params(self, rng):
        self._rng = rng

    def forward(self, x, train=False):
        # shape-agnostic; the mask is drawn fresh for whatever arrives
        x = np.asarray(x, dtype=np.float64)
        if not train or self.rate == 0.0:
            self._cache = (None,)  # an identity, not a missing forward
            return x
        # the mask (u >= rate) / keep, built in the draw's own buffer
        u = self._rng.uniform(x.shape)
        mask = np.divide(u >= self.rate, 1.0 - self.rate, out=u)
        self._cache = (mask,)
        return x * mask

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        (mask,) = self._take_cache()
        if not input_grad:
            return None
        return upstream if mask is None else upstream * mask


class BatchNorm(Layer):
    """Batch normalization over the feature axis of 2-D input.

    Training uses batch mean and (biased) variance and folds them into
    running statistics with the given momentum; inference uses the
    running statistics. A training batch of one row has no variance to
    speak of: it is normalized with the running statistics, which it
    leaves unchanged, and backpropagated as in inference.
    """

    kind = "batchnorm"
    _rank, _form = 1, "flat per-sample"
    _args = (
        _Arg("momentum", _checker("in [0, 1]", lambda v: _real(v) and 0 <= v <= 1, float), 0.99),
        # a constant feature has variance 0, so eps alone keeps it finite
        _Arg("eps", _checker("finite and above 0",
                             lambda v: _real(v) and 0 < v <= sys.float_info.max, float), 1e-3),
    )

    def _shapes(self, shape):
        return {"gamma": shape, "beta": shape}, {"running_mean": shape, "running_var": shape}

    def _init_params(self, rng):
        self.params["gamma"][...] = 1.0
        self.state["running_var"][...] = 1.0

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
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv_std
        self._cache = (xhat, inv_std, x.shape[0] if train else None)
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        xhat, inv_std, n = self._take_cache()
        if param_grads:
            np.sum(upstream * xhat, axis=0, out=self.grads["gamma"])
            np.sum(upstream, axis=0, out=self.grads["beta"])
        if not input_grad:
            return None
        dxhat = upstream * self.params["gamma"]
        if n is None:
            # inference-mode backward (frozen statistics) is a plain
            # elementwise scale
            return dxhat * inv_std
        return (
            inv_std
            / n
            * (n * dxhat - np.sum(dxhat, axis=0) - xhat * np.sum(dxhat * xhat, axis=0))
        )


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, input_shape):
        return (math.prod(input_shape),)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        self._cache = x.shape
        return np.ascontiguousarray(x).reshape((len(x),) + self.out_shape(self.input_shape))

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        shape = self._take_cache()
        return upstream.reshape(shape) if input_grad else None
