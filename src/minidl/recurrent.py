"""Recurrent layers, embeddings, and greedy sequence generation.

Sequence input is [batch, time, features]. Hidden state starts at zero
for every sequence, unless inference carries it from one forward to the
next (``_SequenceLayer._carry``; ``generate_greedy`` does so while its
window fills). ``SimpleRNN`` and ``LSTM`` keep only the recurrence in
their time loops (Appleyard, Kocisky and Blunsom 2016, "Optimizing
Performance of Recurrent Neural Networks on GPUs"): the input projection
``x @ U`` for all steps is one GEMM before the forward loop, and
backpropagation through time leaves ``dW``, ``dU``, ``db`` and ``dx`` to
one GEMM or sum each after the backward loop. Backward overwrites the
per-step tensors that ``forward`` cached, so each forward serves one
backward; a second backward, or one after a carried forward, raises
``ValueError``.
"""

from __future__ import annotations

import numpy as np

from . import activations
from .layers import Dense, Dropout, Layer, get_initializer, positive_int


def _previous(seq):
    """seq[:, t - 1] at every step t of a [batch, time, n] array, with
    zeros before the first step."""
    prev = np.empty_like(seq)
    prev[:, 0] = 0.0
    prev[:, 1:] = seq[:, :-1]
    return prev


class _SequenceLayer(Layer):
    """Base for layers reading [batch, time, features] input and emitting
    ``units`` features at every step, or at the last step only when
    ``return_sequences`` is False."""

    # None, or the state a forward starts from instead of zeros, (h,) or
    # (h, c), which that forward replaces with its state after the last
    # step. Inference only: such a forward leaves no backward cache.
    _carry = None
    _n_states = 1

    def _zero_state(self, b):
        return tuple(np.zeros((b, self.units)) for _ in range(self._n_states))

    def _keep(self, x, cache, state):
        """Store what backward needs, or, when carrying, the final state.
        The input ``_x`` is kept apart from the cache and outlives
        backward (perfbench's tracer reads the step count from it)."""
        self._x = x
        if self._carry is None:
            self._cache = cache
        else:
            self._cache, self._carry = None, state

    def out_shape(self, input_shape):
        t = input_shape[0]
        return (t, self.units) if self.return_sequences else (self.units,)

    def _check_input(self, x):
        # time length may vary between calls; only features are fixed
        if x.ndim != 3 or x.shape[2] != self.input_shape[1]:
            raise ValueError(
                "%s expected [batch, time, %d] input, got shape %s"
                % (self.kind, self.input_shape[1], x.shape)
            )

    def _upstream_sequence(self, upstream, T):
        """The upstream gradient at every step; a layer that returns only
        its last step gets zeros before it."""
        if self.return_sequences:
            return upstream
        up = np.zeros((upstream.shape[0], T, self.units))
        up[:, -1] = upstream
        return up


class Embedding(Layer):
    """Lookup table mapping integer token ids to dense rows.

    Index 0 is reserved for padding by convention. When ``trainable``
    is False (pretrained vectors) backward skips the gradient entirely.
    Input ids may arrive as floats; they are cast to integers.
    """

    kind = "embedding"

    def __init__(self, vocab_size, dim, weights=None, trainable=True):
        super().__init__()
        self.vocab_size = positive_int("vocab_size", vocab_size)
        self.dim = positive_int("dim", dim)
        self.trainable = bool(trainable)
        self._preset = None if weights is None else np.asarray(weights, dtype=np.float64)

    def build(self, input_shape, rng):
        if len(input_shape) != 1:
            raise ValueError(
                "embedding expects [time] integer input, got shape %s" % (input_shape,)
            )
        if self._preset is not None:
            if self._preset.shape != (self.vocab_size, self.dim):
                raise ValueError(
                    "embedding weights shape %s does not match (%d, %d)"
                    % (self._preset.shape, self.vocab_size, self.dim)
                )
            W = self._preset.copy()
        else:
            W = rng.uniform((self.vocab_size, self.dim), low=-0.05, high=0.05)
        self.params = {"W": W}
        super().build(input_shape, rng)

    def out_shape(self, input_shape):
        return (input_shape[0], self.dim)

    def forward(self, x, train=False):
        ids = np.asarray(x)
        if ids.ndim != 2:
            raise ValueError("embedding expects [batch, time] ids, got %s" % (ids.shape,))
        ids = ids.astype(np.int64)
        if ids.min() < 0 or ids.max() >= self.vocab_size:
            raise ValueError(
                "token id out of range [0, %d): found %d"
                % (self.vocab_size, ids.min() if ids.min() < 0 else ids.max())
            )
        self._ids = ids
        return self.params["W"][ids]

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        if self.trainable and param_grads:
            dW = self.grads["W"]
            dW[...] = 0.0
            np.add.at(dW, self._ids.reshape(-1), upstream.reshape(-1, self.dim))
        return None  # ids have no gradient

    def hyper(self):
        return {
            "vocab_size": self.vocab_size,
            "dim": self.dim,
            "trainable": self.trainable,
        }


class SimpleRNN(_SequenceLayer):
    """Vanilla recurrence h_t = f(h_{t-1} @ W + x_t @ U + b)."""

    kind = "simple_rnn"

    def __init__(self, units, activation="tanh", return_sequences=False, init="glorot"):
        super().__init__()
        self.units = positive_int("units", units)
        self.activation = activations.get(activation)
        self.return_sequences = bool(return_sequences)
        self._init_spec = init

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                "rnn expects [time, features] input, got shape %s" % (input_shape,)
            )
        n_in = input_shape[1]
        init = get_initializer(self._init_spec)
        self.params = {
            "W": init((self.units, self.units), rng, self.units, self.units),
            "U": init((n_in, self.units), rng, n_in, self.units),
            "b": np.zeros(self.units),
        }
        super().build(input_shape, rng)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, n_in = x.shape
        W, U, bias = self.params["W"], self.params["U"], self.params["b"]
        pres = (x.reshape(b * T, n_in) @ U).reshape(b, T, self.units)
        hs = np.empty((b, T, self.units))
        (h,) = self._carry or self._zero_state(b)
        for t in range(T):
            pre = pres[:, t]
            pre += h @ W
            pre += bias
            h = hs[:, t] = self.activation.fn(pre)
        self._keep(x, (pres, hs), (h,))
        return hs if self.return_sequences else h

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        pres, hs = self._take_cache()
        x = self._x
        b, T, n_in = x.shape
        W, U = self.params["W"], self.params["U"]
        up = self._upstream_sequence(upstream, T)
        # a fused loss has already differentiated through the step
        # activation; only meaningful when this is the last layer
        fused = preact and self.return_sequences
        # each step's delta overwrites that step's activation derivative
        # (or, when fused, its preactivation)
        deltas = pres if fused else self.activation.deriv(pres, hs)
        carry = np.zeros((b, self.units))
        for t in range(T - 1, -1, -1):
            delta = up[:, t] + carry
            if not fused:
                delta *= deltas[:, t]
            deltas[:, t] = delta
            if t:
                carry = delta @ W.T
        d2 = deltas.reshape(b * T, self.units)
        if param_grads:
            np.matmul(_previous(hs).reshape(b * T, self.units).T, d2, out=self.grads["W"])
            np.matmul(x.reshape(b * T, n_in).T, d2, out=self.grads["U"])
            np.sum(d2, axis=0, out=self.grads["b"])
        return (d2 @ U.T).reshape(b, T, n_in) if input_grad else None

    def hyper(self):
        return {
            "units": self.units,
            "activation": self.activation.name,
            "return_sequences": self.return_sequences,
        }


class LSTM(_SequenceLayer):
    """Long short-term memory layer.

    Gates (f forget, i input, o output) use the sigmoid; the candidate
    a uses tanh. Each of the four has its own recurrent matrix W, input
    matrix U, and bias b, stored as the 12 parameters ``Wf, Uf, bf, Wi,
    ..., bo`` in gate order f, i, a, o:

        f_t = sigmoid(h_{t-1} @ Wf + x_t @ Uf + bf)
        i_t = sigmoid(h_{t-1} @ Wi + x_t @ Ui + bi)
        a_t = tanh   (h_{t-1} @ Wa + x_t @ Ua + ba)
        o_t = sigmoid(h_{t-1} @ Wo + x_t @ Uo + bo)
        c_t = f_t * c_{t-1} + i_t * a_t
        h_t = o_t * tanh(c_t)

    Each call joins the 12 arrays into W [units, 4*units], U [features,
    4*units] and b [4*units] in the fused order f, i, o, a, which puts
    the three sigmoid gates side by side. Nothing aliases the parameters,
    so a write such as ``params["bf"][:] = 500`` acts on the next call.
    Forward fills a [batch, time, 4*units] gate buffer with ``x @ U``;
    each step adds ``h @ W`` and b to its slice and overwrites it with
    the gate values. Backward overwrites each step's gate values with
    the gate deltas and does one recurrent GEMM per step.
    """

    kind = "lstm"
    _n_states = 2
    GATES = ("f", "i", "a", "o")
    _FUSED = ("f", "i", "o", "a")

    def __init__(self, units, return_sequences=False, init="glorot"):
        super().__init__()
        self.units = positive_int("units", units)
        self.return_sequences = bool(return_sequences)
        self._init_spec = init

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                "lstm expects [time, features] input, got shape %s" % (input_shape,)
            )
        n_in = input_shape[1]
        init = get_initializer(self._init_spec)
        self.params = {}
        for g in self.GATES:
            self.params["W" + g] = init((self.units, self.units), rng, self.units, self.units)
            self.params["U" + g] = init((n_in, self.units), rng, n_in, self.units)
            self.params["b" + g] = np.zeros(self.units)
        super().build(input_shape, rng)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, n_in = x.shape
        u = self.units
        p = self.params
        W, U, bias = (np.concatenate([p[k + g] for g in self._FUSED], axis=-1) for k in "WUb")
        gates = (x.reshape(b * T, n_in) @ U).reshape(b, T, 4 * u)
        gv = gates.reshape(b, T, 4, u)
        cs = np.empty((b, T, u))
        tcs = np.empty((b, T, u))
        hs = np.empty((b, T, u))
        h, c = self._carry or self._zero_state(b)
        for t in range(T):
            g = gates[:, t]
            g += h @ W
            g += bias
            g[:, : 3 * u] = activations.sigmoid(g[:, : 3 * u])
            np.tanh(g[:, 3 * u :], out=g[:, 3 * u :])
            f, i, o, a = gv[:, t, 0], gv[:, t, 1], gv[:, t, 2], gv[:, t, 3]
            c = np.add(f * c, i * a, out=cs[:, t])
            h = np.multiply(o, np.tanh(c, out=tcs[:, t]), out=hs[:, t])
        self._keep(x, (W, U, gates, cs, tcs, hs), (h, c))
        return hs if self.return_sequences else h

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        W, U, gates, cs, tcs, hs = self._take_cache()
        x = self._x
        b, T, n_in = x.shape
        u = self.units
        up = self._upstream_sequence(upstream, T)
        gv = gates.reshape(b, T, 4, u)
        zeros = np.zeros((b, u))
        carry_h = carry_c = zeros
        for t in range(T - 1, -1, -1):
            f, i, o, a = gv[:, t, 0], gv[:, t, 1], gv[:, t, 2], gv[:, t, 3]
            tc = tcs[:, t]
            c_prev = cs[:, t - 1] if t else zeros
            dh = up[:, t] + carry_h
            dc = dh * o * (1.0 - tc * tc) + carry_c
            carry_c = dc * f
            # the deltas overwrite the gate values they are made from
            d_i = dc * a * i * (1.0 - i)
            d_a = dc * i * (1.0 - a * a)
            o *= dh * tc * (1.0 - o)
            f *= dc * c_prev * (1.0 - f)
            i[...] = d_i
            a[...] = d_a
            if t:
                carry_h = gates[:, t] @ W.T
        d2 = gates.reshape(b * T, 4 * u)
        if param_grads:
            fused = {
                "W": _previous(hs).reshape(b * T, u).T @ d2,
                "U": x.reshape(b * T, n_in).T @ d2,
                "b": d2.sum(axis=0),
            }
            cols = {g: slice(k * u, (k + 1) * u) for k, g in enumerate(self._FUSED)}
            for key, grad in self.grads.items():
                grad[...] = fused[key[0]][..., cols[key[1]]]
        return (d2 @ U.T).reshape(b, T, n_in) if input_grad else None

    def hyper(self):
        return {"units": self.units, "return_sequences": self.return_sequences}


class TimeDistributedDense(_SequenceLayer):
    """Apply one dense layer independently at every timestep.

    Equivalent to reshaping [batch, time, n] to [batch*time, n], running
    the dense layer, and reshaping back.
    """

    kind = "time_distributed_dense"
    return_sequences = True

    def __init__(self, units, activation="linear", init="glorot"):
        super().__init__()
        self.units = positive_int("units", units)
        self._dense = Dense(units, activation=activation, init=init)

    @property
    def activation(self):
        return self._dense.activation

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                "time distributed dense expects [time, features] input, got %s"
                % (input_shape,)
            )
        self._dense.build((input_shape[1],), rng)
        super().build(input_shape, rng)
        # one set of arrays, the inner layer's, which its backward fills
        self.params, self.grads = self._dense.params, self._dense.grads

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, n = x.shape
        self._bt = (b, T)
        out = self._dense.forward(x.reshape(b * T, n), train=train)
        return out.reshape(b, T, self.units)

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        b, T, _ = upstream.shape
        dx = self._dense.backward(
            upstream.reshape(b * T, self.units), preact=preact,
            input_grad=input_grad, param_grads=param_grads,
        )
        return None if dx is None else dx.reshape(b, T, -1)

    @property
    def preactivation(self):
        b, T = self._bt
        return self._dense.preactivation.reshape(b, T, self.units)

    def hyper(self):
        return {"units": self.units, "activation": self._dense.activation.name}


def _carriers(model):
    """The recurrent layers of ``model`` when every layer can run one
    step at a time on a carried state (a sequence-returning SimpleRNN or
    LSTM, Dropout, TimeDistributedDense); otherwise an empty list."""
    recurrent = []
    for layer in getattr(model, "layers", ()):
        if isinstance(layer, (SimpleRNN, LSTM)) and layer.return_sequences:
            recurrent.append(layer)
        elif not isinstance(layer, (Dropout, TimeDistributedDense)):
            return []
    return recurrent


def generate_greedy(model, seed_id, length, n_vocab, window=100):
    """Greedy closed-loop sampling from a next-token model.

    Starts from one token id, feeds the one-hot history (clipped to the
    trailing ``window`` steps) through the model, and appends the argmax
    of the final timestep's distribution each round. Ties resolve to
    the lowest id. Returns the list of length+1 ids including the seed.

    While the history is shorter than the window, a model whose every
    layer can carry recurrent state is fed only the newest step, from
    the state the previous call left (Graves 2013, arXiv:1308.0850):
    the recurrence a rerun from zero would compute, up to the rounding
    of the input projections. Once the window is full, each step reruns
    the trailing ``window`` steps from a zero state. Either way
    ``model.predict`` sees one row per character.
    """
    if window < 1:
        raise ValueError("window must be at least 1, got %d" % window)
    if length < 0:
        raise ValueError("length must be at least 0, got %d" % length)
    ids = [int(seed_id)]
    history = np.zeros((1, length + 1, n_vocab))
    carriers = _carriers(model)
    for layer in carriers:
        layer._carry = layer._zero_state(1)
    try:
        for i in range(length):
            history[0, i, ids[-1]] = 1.0
            if i == window:
                for layer in carriers:
                    layer._carry = None
            lo = i if carriers and i < window else max(0, i - (window - 1))
            probs = model.predict(history[:, lo : i + 1, :])[0]
            ids.append(int(np.argmax(probs[-1])))
    finally:
        for layer in carriers:
            layer._carry = None
    return ids
