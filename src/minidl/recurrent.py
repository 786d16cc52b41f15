"""Recurrent layers, embeddings, and greedy sequence generation.

Sequence input is [batch, time, features]. Hidden state starts at zero
for every sequence. Backward passes run full backpropagation through
time over the cached per-step tensors.
"""

from __future__ import annotations

import numpy as np

from . import activations
from .layers import Dense, Layer, get_initializer


class _SequenceLayer(Layer):
    """Base for layers reading [batch, time, features] input."""

    def _check_input(self, x):
        # time length may vary between calls; only features are fixed
        if x.ndim != 3 or x.shape[2] != self.input_shape[1]:
            raise ValueError(
                "%s expected [batch, time, %d] input, got shape %s"
                % (self.kind, self.input_shape[1], x.shape)
            )


class Embedding(Layer):
    """Lookup table mapping integer token ids to dense rows.

    Index 0 is reserved for padding by convention. When ``trainable``
    is False (pretrained vectors) backward skips the gradient entirely.
    Input ids may arrive as floats; they are cast to integers.
    """

    kind = "embedding"

    def __init__(self, vocab_size, dim, weights=None, trainable=True):
        super().__init__()
        self.vocab_size = int(vocab_size)
        self.dim = int(dim)
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

    def backward(self, upstream, preact=False):
        if self.trainable:
            dW = np.zeros_like(self.params["W"])
            np.add.at(dW, self._ids.reshape(-1), upstream.reshape(-1, self.dim))
            self.grads = {"W": dW}
        else:
            self.grads = {}
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
        self.units = int(units)
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

    def out_shape(self, input_shape):
        t = input_shape[0]
        return (t, self.units) if self.return_sequences else (self.units,)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, _ = x.shape
        W, U, bias = self.params["W"], self.params["U"], self.params["b"]
        h = np.zeros((b, self.units))
        hs = np.empty((b, T, self.units))
        pres = np.empty((b, T, self.units))
        for t in range(T):
            pre = h @ W + x[:, t, :] @ U + bias
            h = self.activation.fn(pre)
            pres[:, t] = pre
            hs[:, t] = h
        self._x, self._hs, self._pres = x, hs, pres
        return hs if self.return_sequences else hs[:, -1, :]

    def backward(self, upstream, preact=False):
        x, hs, pres = self._x, self._hs, self._pres
        b, T, n_in = x.shape
        W, U = self.params["W"], self.params["U"]
        dW = np.zeros_like(W)
        dU = np.zeros_like(U)
        db = np.zeros_like(self.params["b"])
        dx = np.empty_like(x)
        carry = np.zeros((b, self.units))
        if not self.return_sequences:
            up_seq = np.zeros((b, T, self.units))
            up_seq[:, -1, :] = upstream
        else:
            up_seq = upstream
        for t in range(T - 1, -1, -1):
            dh = up_seq[:, t, :] + carry
            if preact and self.return_sequences:
                # fused loss already differentiated through the step
                # activation; only meaningful when this is the last layer
                delta = dh
            else:
                delta = dh * self.activation.deriv(pres[:, t], hs[:, t])
            h_prev = hs[:, t - 1, :] if t > 0 else np.zeros((b, self.units))
            dW += h_prev.T @ delta
            dU += x[:, t, :].T @ delta
            db += np.sum(delta, axis=0)
            dx[:, t, :] = delta @ U.T
            carry = delta @ W.T
        self.grads = {"W": dW, "U": dU, "b": db}
        return dx

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
    matrix U, and bias b:

        f_t = sigmoid(h_{t-1} @ Wf + x_t @ Uf + bf)
        i_t = sigmoid(h_{t-1} @ Wi + x_t @ Ui + bi)
        a_t = tanh   (h_{t-1} @ Wa + x_t @ Ua + ba)
        o_t = sigmoid(h_{t-1} @ Wo + x_t @ Uo + bo)
        c_t = f_t * c_{t-1} + i_t * a_t
        h_t = o_t * tanh(c_t)
    """

    kind = "lstm"
    GATES = ("f", "i", "a", "o")

    def __init__(self, units, return_sequences=False, init="glorot"):
        super().__init__()
        self.units = int(units)
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

    def out_shape(self, input_shape):
        t = input_shape[0]
        return (t, self.units) if self.return_sequences else (self.units,)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, _ = x.shape
        p = self.params
        h = np.zeros((b, self.units))
        c = np.zeros((b, self.units))
        cache = {k: np.empty((b, T, self.units)) for k in ("f", "i", "a", "o", "c", "tc", "h")}
        for t in range(T):
            xt = x[:, t, :]
            f = activations.sigmoid(h @ p["Wf"] + xt @ p["Uf"] + p["bf"])
            i = activations.sigmoid(h @ p["Wi"] + xt @ p["Ui"] + p["bi"])
            a = activations.tanh(h @ p["Wa"] + xt @ p["Ua"] + p["ba"])
            o = activations.sigmoid(h @ p["Wo"] + xt @ p["Uo"] + p["bo"])
            c = f * c + i * a
            tc = np.tanh(c)
            h = o * tc
            for k, v in (("f", f), ("i", i), ("a", a), ("o", o), ("c", c), ("tc", tc), ("h", h)):
                cache[k][:, t] = v
        self._x, self._cache = x, cache
        return cache["h"] if self.return_sequences else h

    def backward(self, upstream, preact=False):
        x, cache = self._x, self._cache
        b, T, n_in = x.shape
        p = self.params
        dparams = {k: np.zeros_like(v) for k, v in p.items()}
        dx = np.empty_like(x)
        carry_h = np.zeros((b, self.units))
        carry_c = np.zeros((b, self.units))
        if not self.return_sequences:
            up_seq = np.zeros((b, T, self.units))
            up_seq[:, -1, :] = upstream
        else:
            up_seq = upstream
        for t in range(T - 1, -1, -1):
            f = cache["f"][:, t]
            i = cache["i"][:, t]
            a = cache["a"][:, t]
            o = cache["o"][:, t]
            tc = cache["tc"][:, t]
            c_prev = cache["c"][:, t - 1] if t > 0 else np.zeros((b, self.units))
            h_prev = cache["h"][:, t - 1] if t > 0 else np.zeros((b, self.units))
            dh = up_seq[:, t, :] + carry_h
            dc = dh * o * (1.0 - tc * tc) + carry_c
            deltas = {
                "o": dh * tc * o * (1.0 - o),
                "f": dc * c_prev * f * (1.0 - f),
                "i": dc * a * i * (1.0 - i),
                "a": dc * i * (1.0 - a * a),
            }
            carry_c = dc * f
            carry_h = np.zeros((b, self.units))
            dxt = np.zeros((b, n_in))
            for g in self.GATES:
                d = deltas[g]
                dparams["W" + g] += h_prev.T @ d
                dparams["U" + g] += x[:, t, :].T @ d
                dparams["b" + g] += np.sum(d, axis=0)
                carry_h += d @ p["W" + g].T
                dxt += d @ p["U" + g].T
            dx[:, t, :] = dxt
        self.grads = dparams
        return dx

    def hyper(self):
        return {"units": self.units, "return_sequences": self.return_sequences}


class TimeDistributedDense(_SequenceLayer):
    """Apply one dense layer independently at every timestep.

    Equivalent to reshaping [batch, time, n] to [batch*time, n], running
    the dense layer, and reshaping back.
    """

    kind = "time_distributed_dense"

    def __init__(self, units, activation="linear", init="glorot"):
        super().__init__()
        self.units = int(units)
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
        self.params = self._dense.params
        super().build(input_shape, rng)

    def out_shape(self, input_shape):
        return (input_shape[0], self.units)

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, n = x.shape
        self._bt = (b, T)
        out = self._dense.forward(x.reshape(b * T, n), train=train)
        return out.reshape(b, T, self.units)

    def backward(self, upstream, preact=False):
        b, T, _ = upstream.shape
        dx = self._dense.backward(upstream.reshape(b * T, self.units), preact=preact)
        self.grads = self._dense.grads
        return dx.reshape(b, T, -1)

    @property
    def preactivation(self):
        b, T = self._bt
        return self._dense.preactivation.reshape(b, T, self.units)

    def hyper(self):
        return {"units": self.units, "activation": self._dense.activation.name}


def generate_greedy(model, seed_id, length, n_vocab, window=100):
    """Greedy closed-loop sampling from a next-token model.

    Starts from one token id, feeds the one-hot history (clipped to the
    trailing ``window`` steps) through the model, and appends the argmax
    of the final timestep's distribution each round. Ties resolve to
    the lowest id. Returns the list of length+1 ids including the seed.
    """
    ids = [int(seed_id)]
    history = np.zeros((1, length + 1, n_vocab))
    for i in range(length):
        history[0, i, ids[-1]] = 1.0
        lo = max(0, i - (window - 1))
        probs = model.predict(history[:, lo : i + 1, :])[0]
        ids.append(int(np.argmax(probs[-1])))
    return ids
