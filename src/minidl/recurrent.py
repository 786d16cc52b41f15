"""Recurrent layers, embeddings, and greedy sequence generation.

Sequence input is [batch, time, features]. Hidden state starts at zero
for every sequence, unless inference carries it from one forward to the
next (``_SequenceLayer._carry``). ``generate_greedy`` runs every model
on one path: a ring of runs, one state row each in every recurrent
layer, all fed the newest character as one input row. ``SimpleRNN``
and ``LSTM`` keep only the recurrence in their time loops (Appleyard,
Kocisky and Blunsom 2016, "Optimizing Performance of Recurrent Neural
Networks on GPUs"): the input projection ``x @ U`` for all steps is one
GEMM before the forward loop, and backpropagation through time leaves
``dW``, ``dU``, ``db`` and ``dx`` to one GEMM or sum each after the
backward loop. ``LSTM`` runs each step's elementwise work on small
contiguous gate-major buffers and keeps its states time-major. Backward
overwrites the per-step tensors that ``forward`` cached; a carried
forward caches nothing.
"""

from __future__ import annotations

import numpy as np

from . import activations
from .layers import Dense, Layer, _activation, _Arg, _count, _flag, _initializer


def _previous(seq):
    """seq[:, t - 1] at every step t of a [batch, time, n] array, with
    zeros before the first step, in C order."""
    prev = np.empty(seq.shape)
    prev[:, 0] = 0.0
    prev[:, 1:] = seq[:, :-1]
    return prev


def _gate_major(gates):
    """The [b, T, 4u] gate buffer as one gate-major [4, b, u] view of
    each step, [T, 4, b, u]."""
    b, T, n = gates.shape
    return gates.reshape(b, T, 4, n // 4).transpose(1, 2, 0, 3)


class _SequenceLayer(Layer):
    """Base for layers reading [batch, time, features] input and emitting
    ``units`` features at every step, or at the last step only when
    ``return_sequences`` is False."""

    # None, or the state a forward starts from instead of zeros, (h,) or
    # (h, c), which that forward replaces with its state after the last
    # step. Inference only: such a forward leaves no backward cache. The
    # carry may hold more rows than the input, which then has one row,
    # fed to every carried row (``_start``).
    _carry = None
    _n_states = 1
    _rank, _form = 2, "[time, features]"

    def _zero_state(self, b):
        return tuple(np.zeros((b, self.units)) for _ in range(self._n_states))

    def _start(self, proj):
        """The input projection ``proj`` [batch, time, n] and the state a
        forward starts from: zeros, or the carry, with a one-row
        projection repeated over the carry's rows."""
        if self._carry is None:
            return proj, self._zero_state(len(proj))
        k = len(self._carry[0])
        if len(proj) != k:
            proj = np.broadcast_to(proj, (k,) + proj.shape[1:]).copy()
        return proj, self._carry

    def _keep(self, x, cache, state):
        """Cache ``cache`` and then the input ``x``, or, when carrying, keep
        the final state. ``_x`` outlives backward for perfbench's tracer."""
        self._x = x
        if self._carry is None:
            self._cache = cache + (x,)
        else:
            self._cache, self._carry = None, state

    def out_shape(self, input_shape):
        t = input_shape[0]
        return (t, self.units) if self.return_sequences else (self.units,)

    def _check_input(self, x):
        self._cache = self._spent = None
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
    _rank, _form = 1, "[time] integer"
    _args = (
        _Arg("vocab_size", _count),
        _Arg("dim", _count),
        _Arg("weights", lambda name, value: value, None, saved=False),
        _Arg("trainable", _flag, True),
    )

    def _shapes(self, input_shape):
        return {"W": (self.vocab_size, self.dim)}, {}

    def _init_params(self, rng):
        W = self.params["W"]
        if self.weights is not None and np.shape(self.weights) != W.shape:
            raise ValueError(
                "embedding weights shape %s does not match %s" % (np.shape(self.weights), W.shape)
            )
        W[...] = (rng.uniform(W.shape, low=-0.05, high=0.05) if self.weights is None
                  else self.weights)

    def out_shape(self, input_shape):
        return (input_shape[0], self.dim)

    def forward(self, x, train=False):
        ids = np.asarray(x)
        if ids.ndim != 2:
            raise ValueError("embedding expects [batch, time] ids, got %s" % (ids.shape,))
        ids = ids.astype(np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ValueError(
                "token id out of range [0, %d): found %d"
                % (self.vocab_size, ids.min() if ids.min() < 0 else ids.max())
            )
        self._cache = ids
        return self.params["W"][ids]

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        ids = self._take_cache()
        if self.trainable and param_grads:
            dW = self.grads["W"]
            dW[...] = 0.0
            np.add.at(dW, ids.reshape(-1), upstream.reshape(-1, self.dim))
        return None  # ids have no gradient


class SimpleRNN(_SequenceLayer):
    """Vanilla recurrence h_t = f(h_{t-1} @ W + x_t @ U + b)."""

    kind = "simple_rnn"
    _args = (
        _Arg("units", _count),
        _Arg("activation", _activation, "tanh"),
        _Arg("return_sequences", _flag, False),
        _Arg("init", _initializer, "glorot", saved=False),
    )

    _drawn = ("W", "U")

    def _shapes(self, input_shape):
        u = self.units
        return {"W": (u, u), "U": (input_shape[1], u), "b": (u,)}, {}

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, n_in = x.shape
        W, U, bias = self.params["W"], self.params["U"], self.params["b"]
        pres, (h,) = self._start((x.reshape(b * T, n_in) @ U).reshape(b, T, self.units))
        hs = np.empty(pres.shape)
        for t in range(T):
            pre = pres[:, t]
            pre += h @ W
            pre += bias
            h = hs[:, t] = self.activation.fn(pre)
        self._keep(x, (pres, hs), (h,))
        return hs if self.return_sequences else h

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        pres, hs, x = self._take_cache()
        b, T, n_in = x.shape
        W, U = self.params["W"], self.params["U"]
        up = self._upstream_sequence(upstream, T)
        # each step's delta overwrites that step's activation derivative
        deltas = self.activation.deriv(pres, hs)
        carry = np.zeros((b, self.units))
        for t in range(T - 1, -1, -1):
            if preact:
                # a fused loss differentiated its own gradient through
                # the step activation, but not the later steps' carry
                delta = up[:, t] + carry * deltas[:, t]
            else:
                delta = up[:, t] + carry
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


class LSTM(_SequenceLayer):
    """Long short-term memory layer.

    Gates (f forget, i input, o output) use the sigmoid; the candidate
    a uses tanh. Each of the four has its own recurrent matrix W, input
    matrix U, and bias b, named as the 12 parameters ``Wf, Uf, bf, Wi,
    ..., bo`` in gate order f, i, a, o:

        f_t = sigmoid(h_{t-1} @ Wf + x_t @ Uf + bf)
        i_t = sigmoid(h_{t-1} @ Wi + x_t @ Ui + bi)
        a_t = tanh   (h_{t-1} @ Wa + x_t @ Ua + ba)
        o_t = sigmoid(h_{t-1} @ Wo + x_t @ Uo + bo)
        c_t = f_t * c_{t-1} + i_t * a_t
        h_t = o_t * tanh(c_t)

    The four gates are stored fused (Appleyard, Kocisky and Blunsom
    2016): three blocks W [units, 4*units], U [features, 4*units] and b
    [4*units] in the gate order f, i, o, a, which puts the three sigmoid
    gates side by side, and gradient blocks of the same shapes, laid out
    in the layer's vectors (``_carve``). The 12 named parameters and
    gradients are column views of those blocks, so a write such as
    ``params["bf"][:] = 500`` acts on the next call. Forward fills a
    [batch, time, 4*units] gate buffer with ``x @ U``. Each step puts
    ``h @ W`` in one [batch, 4*units] buffer, adds it to the step's
    slice into a contiguous gate-major
    [4, batch, units] buffer, adds b, applies the gates there and writes
    the gate values back over the slice. The states c, tanh(c) and h are
    stored time-major, [time, batch, units], so a sequence output is a
    transposed view. Backward gathers each step's gate values into a
    [4, batch, units] buffer, computes the deltas into another, writes
    them over the slice, and does one recurrent GEMM per step on its
    batch-major rows. Every sum keeps its order, so the layout changes no
    result bit.
    It reads the live W and U, as ``Dense`` and ``Conv2D`` do, not a copy
    taken at forward time.
    """

    kind = "lstm"
    _n_states = 2
    GATES = ("f", "i", "a", "o")
    _FUSED = ("f", "i", "o", "a")
    _drawn = tuple(k + g for g in GATES for k in "WU")

    _args = (
        _Arg("units", _count),
        _Arg("return_sequences", _flag, False),
        _Arg("init", _initializer, "glorot", saved=False),
    )

    def _shapes(self, input_shape):
        u, n_in = self.units, input_shape[1]
        return {k + g: s for g in self.GATES for k, s in zip("WUb", [(u, u), (n_in, u), (u,)])}, {}

    def _carve(self, shapes, flat, flat_grads):
        """The fused blocks, kept as ``_blocks`` and ``_grad_blocks``, and
        the 12 gates' column views of them, keyed as ``shapes``."""
        u, n_in = self.units, self.input_shape[1]
        self._blocks, self._grad_blocks = super()._carve(
            {"W": (u, 4 * u), "U": (n_in, 4 * u), "b": (4 * u,)}, flat, flat_grads)
        cols = {g: slice(k * u, (k + 1) * u) for k, g in enumerate(self._FUSED)}
        return tuple({k: blocks[k[0]][..., cols[k[1]]] for k in shapes}
                     for blocks in (self._blocks, self._grad_blocks))

    def forward(self, x, train=False):
        x = np.asarray(x, dtype=np.float64)
        self._check_input(x)
        b, T, n_in = x.shape
        u = self.units
        W, U = self._blocks["W"], self._blocks["U"]
        bias = self._blocks["b"].reshape(4, 1, u)
        gates, (h, c) = self._start((x.reshape(b * T, n_in) @ U).reshape(b, T, 4 * u))
        b = len(gates)
        gv = _gate_major(gates)
        cs, tcs, hs = (np.empty((T, b, u)) for _ in range(3))
        hw = np.empty((b, 4 * u))
        hw_g = hw.reshape(b, 4, u).transpose(1, 0, 2)
        g = np.empty((4, b, u))
        f, i, o, a = g
        fc = np.empty((b, u))
        keep = self._carry is None  # a carried forward leaves no cache
        for t in range(T):
            np.matmul(h, W, out=hw)
            np.add(gv[t], hw_g, out=g)
            g += bias
            activations.sigmoid(g[:3], out=g[:3])
            np.tanh(a, out=a)
            if keep:
                gv[t] = g
            np.multiply(f, c, out=fc)
            c = np.multiply(i, a, out=cs[t])
            c += fc
            h = np.multiply(o, np.tanh(c, out=tcs[t]), out=hs[t])
        self._keep(x, (gates, cs, tcs, hs), (h, c))
        return hs.transpose(1, 0, 2) if self.return_sequences else h

    def backward(self, upstream, preact=False, input_grad=True, param_grads=True):
        gates, cs, tcs, hs, x = self._take_cache()
        b, T, n_in = x.shape
        u = self.units
        W, U = self._blocks["W"], self._blocks["U"]
        up = self._upstream_sequence(upstream, T)
        gv = _gate_major(gates)
        g = np.empty((4, b, u))
        f, i, o, a = g
        d = np.empty((4, b, u))
        df, di, do, da = d
        zeros = np.zeros((b, u))
        dh, dc, r = (np.empty((b, u)) for _ in range(3))
        carry_h, carry_c = np.zeros((b, u)), np.zeros((b, u))
        for t in range(T - 1, -1, -1):
            np.copyto(g, gv[t])
            tc = tcs[t]
            c_prev = cs[t - 1] if t else zeros
            np.add(up[:, t], carry_h, out=dh)
            # dc = dh * o * (1 - tc * tc) + carry_c
            np.multiply(dh, o, out=dc)
            dc *= np.subtract(1.0, np.multiply(tc, tc, out=r), out=r)
            dc += carry_c
            np.multiply(dc, f, out=carry_c)
            # di = dc * a * i * (1 - i)
            np.multiply(np.multiply(dc, a, out=di), i, out=di)
            di *= np.subtract(1.0, i, out=r)
            # da = dc * i * (1 - a * a)
            np.multiply(dc, i, out=da)
            da *= np.subtract(1.0, np.multiply(a, a, out=r), out=r)
            # do = o * (dh * tc * (1 - o))
            np.multiply(dh, tc, out=do)
            do *= np.subtract(1.0, o, out=r)
            do *= o
            # df = f * (dc * c_prev * (1 - f))
            np.multiply(dc, c_prev, out=df)
            df *= np.subtract(1.0, f, out=r)
            df *= f
            # the deltas overwrite the gate values they are made from
            gv[t] = d
            if t:
                np.matmul(gates[:, t], W.T, out=carry_h)
        d2 = gates.reshape(b * T, 4 * u)
        if param_grads:
            dW, dU, db = (self._grad_blocks[k] for k in "WUb")
            np.matmul(_previous(hs.transpose(1, 0, 2)).reshape(b * T, u).T, d2, out=dW)
            np.matmul(x.reshape(b * T, n_in).T, d2, out=dU)
            np.sum(d2, axis=0, out=db)
        return (d2 @ U.T).reshape(b, T, n_in) if input_grad else None


class TimeDistributedDense(Dense):
    """One dense layer applied independently at every timestep: its GEMM
    reads [batch, time, n] input as [batch*time, n] rows (``Dense``)."""

    kind = "time_distributed_dense"
    _rank, _form = 2, "[time, features]"

    # the time length may vary between calls; the feature count is fixed
    _check_input = _SequenceLayer._check_input


def generate_greedy(model, seed_id, length, n_vocab, window=100):
    """Greedy closed-loop sampling from a next-token model.

    Starts from one token id and appends, each round, the argmax of the
    model's distribution after the one-hot history clipped to the
    trailing ``window`` steps, as if rerun from a zero state. Ties
    resolve to the lowest id. Returns the list of length+1 ids including
    the seed.

    The model runs as a ring of runs, one carried state row in every
    SimpleRNN and LSTM of ``model.layers``, oldest first. A run starts
    at each position p whose output will be read: p = 0, or p + window -
    1 < length. Every live run takes in the newest character, fed to
    ``model.predict`` as one [1, 1, n_vocab] row, so each character
    costs one recurrent step over at most ``window`` rows. The oldest
    run has read exactly the clipped history: its output (row 0, at the
    last step when the model returns sequences) is the prediction, and
    after ``window`` steps it retires. This is the recurrence a rerun
    from zero computes, up to the rounding of the GEMMs. The layers that
    take such input in inference (Dropout, TimeDistributedDense, and
    after a last-step layer Dense and BatchNorm) work per step or per
    row, so a model without a recurrent layer predicts from the newest
    character alone.
    """
    if window < 1:
        raise ValueError("window must be at least 1, got %d" % window)
    if length < 0:
        raise ValueError("length must be at least 0, got %d" % length)
    ids = [int(seed_id)]
    if not 0 <= ids[0] < n_vocab:
        raise ValueError("seed_id must be in [0, %d), got %d" % (n_vocab, ids[0]))
    carriers = [layer for layer in model.layers if isinstance(layer, (SimpleRNN, LSTM))]
    try:
        for layer in carriers:
            layer._carry = layer._zero_state(0)
        for i in range(length):
            if i == 0 or i + window <= length:
                # a run whose output will be read starts here
                for layer in carriers:
                    layer._carry = tuple(
                        np.concatenate((s, z)) for s, z in zip(layer._carry, layer._zero_state(1))
                    )
            x = np.zeros((1, 1, n_vocab))
            x[0, 0, ids[-1]] = 1.0
            ids.append(int(np.argmax(np.atleast_2d(model.predict(x)[0])[-1])))
            if i >= window - 1:
                # the oldest run has read its window
                for layer in carriers:
                    layer._carry = tuple(s[1:] for s in layer._carry)
    finally:
        for layer in carriers:
            layer._carry = None
    return ids
