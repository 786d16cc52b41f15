"""Sequential model container: compile, fit, evaluate, save and load.

Training is plain minibatch gradient descent: forward in train mode,
loss gradient, backward, one optimizer step over every trainable
parameter. ``compile`` keeps those parameters in one flat vector and
their gradients in a second, so the step is one pass over each. Losses
fused with the output activation (softmax or sigmoid cross entropy)
start backpropagation at the final preactivation; the model handles
the bookkeeping so layers stay oblivious.

The on-disk model format is a single little-endian binary file:
magic ``GBK1``, a u16 format version, a u32-length JSON manifest
(architecture, loss and optimizer names, input shape), then one block
per saved array (u16 name length and name, u8 rank, u32 extents, raw
float64 data), and a trailing CRC32 of everything before it.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from itertools import zip_longest

import numpy as np

from . import losses as losses_mod
from . import metrics as metrics_mod
from . import optim as optim_mod
from .conv import Conv2D, Pool2D
from .layers import BatchNorm, Dense, Dropout, Flatten, Layer, _count, _size
from .recurrent import LSTM, Embedding, SimpleRNN, TimeDistributedDense
from .tensor import Rng

MAGIC = b"GBK1"
FORMAT_VERSION = 1

LAYER_KINDS = {
    "dense": Dense,
    "dropout": Dropout,
    "batchnorm": BatchNorm,
    "flatten": Flatten,
    "conv2d": Conv2D,
    "pool2d": Pool2D,
    "embedding": Embedding,
    "simple_rnn": SimpleRNN,
    "lstm": LSTM,
    "time_distributed_dense": TimeDistributedDense,
}


class ModelFileError(ValueError):
    """Raised for unreadable or mismatched model files."""


class NanLossError(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, epoch, batch):
        self.epoch = epoch
        self.batch = batch
        super().__init__(
            "training loss became non-finite at epoch %d, batch %d" % (epoch, batch)
        )


class History:
    """Per-epoch training log. Column order is fixed: epoch, loss, the
    training metrics, then val_loss and validation metrics when present."""

    def __init__(self, metric_names, has_validation):
        self.metric_names = list(metric_names)
        self.epochs = []
        cols = ["loss"] + self.metric_names
        if has_validation:
            cols += ["val_loss"] + ["val_" + m for m in self.metric_names]
        self.history = {c: [] for c in cols}

    def append(self, epoch, logs):
        self.epochs.append(epoch)
        for c in self.history:
            self.history[c].append(logs[c])

    def last(self, key):
        return self.history[key][-1]

    def save_csv(self, path):
        import csv

        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch"] + list(self.history))
            for i, e in enumerate(self.epochs):
                w.writerow([e] + [repr(col[i]) for col in self.history.values()])


class SequentialModel:
    """A stack of layers applied in order."""

    def __init__(self, layers=None, seed=0):
        self.layers = list(layers) if layers is not None else []
        self.seed = int(seed)
        self.rng = Rng(seed)
        self.loss = None
        self.optimizer = None
        self.input_shape = None
        self.output_shape = None
        self.compiled = False
        self._metrics = []

    def add(self, layer):
        if not isinstance(layer, Layer):
            raise TypeError("add expects a Layer, got %r" % (layer,))
        self.layers.append(layer)

    # -- compile ---------------------------------------------------------

    def compile(self, input_shape, loss, optimizer, metrics=()):
        """Build every layer for the given per-sample input shape and
        attach loss, optimizer, and metric functions. The trainable
        parameters are born in one flat vector, ``flat_params``, and
        their gradients in a second, ``flat_grads``: each trainable layer
        lays its parameters out (``Layer.build``) in its slice of each, in
        layer order, so every ``params`` and ``grads`` entry is a view of
        the vector the optimizer steps."""
        if not self.layers:
            raise ValueError("model has no layers")
        self.input_shape = tuple(
            _count("input_shape[%d]" % i, d) for i, d in enumerate(input_shape))
        sizes = [_size(params) if layer.trainable else 0
                 for layer, (params, _) in zip(self.layers, self._declared(self.input_shape))]
        ends = np.cumsum([0] + sizes)
        self.flat_params, self.flat_grads = np.zeros(ends[-1]), np.zeros(ends[-1])

        def build(i, layer, shape):
            into = self.flat_params[ends[i]:ends[i + 1]], self.flat_grads[ends[i]:ends[i + 1]]
            layer.build(shape, self.rng, into if layer.trainable else None)

        self.output_shape = self._through(self.input_shape, build)
        self.loss = losses_mod.get(loss)
        self.optimizer = optim_mod.get(optimizer) if isinstance(optimizer, str) else optimizer
        if self.loss.fused is not None:
            last = self.layers[-1]
            act = getattr(last, "activation", None)
            if act is None or act.name != self.loss.fused:
                raise ValueError(
                    "loss %s needs the final layer to apply %s, found %s"
                    % (
                        self.loss.name,
                        self.loss.fused,
                        act.name if act is not None else "no activation",
                    )
                )
            if act.name == "softmax" and isinstance(last, SimpleRNN):
                # its backward needs the step activation's elementwise
                # derivative for the carry, and softmax has none
                raise ValueError(
                    "layer %d (%s): loss %s cannot train through a recurrent softmax"
                    % (len(self.layers) - 1, last.kind, self.loss.name)
                )
        self._metrics = [(m, self._resolve_metric(m)) for m in metrics]
        self.compiled = True
        return self

    def _through(self, shape, visit):
        """Call ``visit(i, layer, its input shape)`` on each layer, from the
        model input ``shape`` on; return the output shape. Errors name the layer."""
        for i, layer in enumerate(self.layers):
            try:
                visit(i, layer, shape)
                out = layer.out_shape(shape)
            except ValueError as e:
                raise ValueError("layer %d (%s): %s" % (i, layer.kind, e)) from None
            shape = tuple(int(d) for d in out)
        return shape

    def _declared(self, input_shape):
        """The shapes each layer declares for ``input_shape``
        (``Layer._declared``): a list of (parameter, state) dicts."""
        declared = []
        self._through(input_shape, lambda i, layer, shape: declared.append(
            layer._declared(shape)))
        return declared

    def _resolve_metric(self, name):
        if name in ("accuracy", "acc"):
            if self.loss.fused == "softmax":
                return metrics_mod.categorical_accuracy
            return metrics_mod.binary_accuracy
        if name == "categorical_accuracy":
            return metrics_mod.categorical_accuracy
        if name == "binary_accuracy":
            return metrics_mod.binary_accuracy
        raise ValueError("unknown metric %r" % (name,))

    # -- forward / backward ----------------------------------------------

    def forward(self, x, train=False):
        self._require_compiled()
        out = x
        for layer in self.layers:
            out = layer.forward(out, train=train)
        return out

    def backward(self, grad, preact=False, input_grad=True, param_grads=True):
        """Run the backward pass from an output gradient. ``preact``
        marks the gradient as being with respect to the final layer's
        preactivation (fused losses). The two flags mean what they mean
        for one layer (see ``layers``): ``param_grads`` fills every
        layer's gradient arrays, and ``input_grad`` returns the gradient
        with respect to the model input. Without ``input_grad`` the pass
        stops at the lowest layer with gradients to fill and returns
        None."""
        layers = self.layers
        last = len(layers) - 1
        # the lowest layer whose results the caller reads
        if input_grad:
            stop = 0
        elif param_grads:
            stop = next((i for i, layer in enumerate(layers) if layer.grads), last + 1)
        else:
            stop = last + 1
        g = grad
        for i in range(last, stop - 1, -1):
            g = layers[i].backward(
                g, preact=preact and i == last,
                input_grad=input_grad or i > stop, param_grads=param_grads,
            )
            if g is None and i > stop:
                raise RuntimeError(
                    "layer %d (%s) ended the gradient chain with layers below it"
                    % (i, layers[i].kind)
                )
        return g if input_grad else None

    def _named(self, attr):
        """Every trainable layer's ``params`` or ``grads`` entries, keyed
        ``layer<i>/<name>``."""
        return {
            "layer%d/%s" % (i, k): v
            for i, layer in enumerate(self.layers) if layer.trainable
            for k, v in getattr(layer, attr).items()
        }

    def named_params(self):
        return self._named("params")

    def named_grads(self):
        return self._named("grads")

    def _loss_input(self, out, loss):
        if loss.fused == "softmax":
            return self.layers[-1].preactivation
        return out

    def train_on_batch(self, x, y):
        """One optimizer step on one batch. Returns (loss value, batch
        output) so callers can fold in metrics without a second pass."""
        self._require_compiled()
        return self._train_step(x, y, self.loss, self.optimizer)

    def _train_step(self, x, y, loss, optimizer, through=None):
        """Forward in train mode, ``loss`` and its gradient, backward,
        and one ``optimizer`` step; returns (loss value, batch output).
        With ``through``, a frozen model, the batch output runs on through
        it, and the loss and the returned output are its; its backward
        only passes the gradient on, leaving its ``flat_grads`` alone, and
        only this model steps."""
        out = self.forward(x, train=True)
        head = self
        if through is not None:
            head, out = through, through.forward(out, train=True)
        loss_in = head._loss_input(out, loss)
        value = loss.value(loss_in, y)
        grad = loss.grad(loss_in, y)
        preact = loss.fused is not None
        if through is not None:
            grad, preact = through.backward(grad, preact=preact, param_grads=False), False
        self.backward(grad, preact=preact, input_grad=False)
        self.apply_gradients(optimizer)
        return value, out

    def apply_gradients(self, optimizer):
        """Step ``optimizer`` once over all trainable parameters, using
        the gradients the last ``backward`` left in each layer: the two
        model vectors go in as one-entry dicts."""
        optimizer.step({"model": self.flat_params}, {"model": self.flat_grads})

    # -- training loop -----------------------------------------------------

    def fit(
        self,
        X,
        Y,
        epochs,
        batch_size=32,
        validation_split=0.0,
        validation_data=None,
        verbose=False,
    ):
        """Train for ``epochs`` passes and return the ``History``.

        When ``validation_split`` is given the last fraction of the rows
        (in the order supplied, before any shuffling) is held out once
        and reused every epoch. Training rows are reshuffled each epoch
        from the model's seeded generator. Epoch numbers in the history
        are 1-based.
        """
        self._require_compiled()
        batch_size = _count("batch_size", batch_size)
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.shape[0] != Y.shape[0]:
            raise ValueError(
                "X and Y row counts differ: %d vs %d" % (X.shape[0], Y.shape[0])
            )
        if not 0.0 <= validation_split <= 1.0:  # also rejects NaN
            raise ValueError(
                "validation_split must be in [0, 1], got %r" % (validation_split,)
            )
        if validation_data is not None:
            Xv = np.asarray(validation_data[0], dtype=np.float64)
            Yv = np.asarray(validation_data[1], dtype=np.float64)
            Xt, Yt = X, Y
        elif validation_split > 0.0:
            n_train = X.shape[0] - int(X.shape[0] * validation_split)
            Xt, Yt = X[:n_train], Y[:n_train]
            Xv, Yv = X[n_train:], Y[n_train:]
        else:
            Xt, Yt = X, Y
            Xv = Yv = None
        if Xt.shape[0] == 0:
            raise ValueError(
                "training split is empty: %d rows with validation_split=%r"
                % (X.shape[0], validation_split)
            )
        if Xv is not None and Xv.shape[0] == 0:
            raise ValueError("validation split is empty")
        history = History([m for m, _ in self._metrics], has_validation=Xv is not None)

        def step(bi, x, y):
            value, out = self.train_on_batch(x, y)
            if not np.isfinite(value):
                raise NanLossError(epoch, bi)
            return value, out

        for epoch in range(1, epochs + 1):
            order = self.rng.permutation(Xt.shape[0])
            logs = self._run_batches(Xt, Yt, order, batch_size, step)
            if Xv is not None:
                ev = self.evaluate(Xv, Yv, batch_size=batch_size)
                logs.update(("val_" + k, v) for k, v in ev.items())
            history.append(epoch, logs)
            if verbose:
                print(
                    "epoch %d/%d  %s"
                    % (
                        epoch,
                        epochs,
                        "  ".join("%s=%.6f" % (k, logs[k]) for k in sorted(logs)),
                    )
                )
        return history

    def evaluate(self, X, Y, batch_size=32):
        """Loss and metrics in inference mode, averaged over rows."""
        self._require_compiled()
        batch_size = _count("batch_size", batch_size)
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if X.shape[0] == 0:
            raise ValueError("evaluation set is empty: no rows to average over")

        def step(bi, x, y):
            out = self.forward(x, train=False)
            return self.loss.value(self._loss_input(out, self.loss), y), out

        return self._run_batches(X, Y, None, batch_size, step)

    def _run_batches(self, X, Y, order, batch_size, step):
        """Call ``step(batch index, x, y) -> (loss, output)`` on each batch
        of rows, taken in ``order`` (an index permutation) or, when it is
        None, in stored order. Returns the loss and every metric averaged
        over rows, each batch weighted by its row count."""
        n = X.shape[0]
        total = 0.0
        msums = [0.0] * len(self._metrics)
        for bi, lo in enumerate(range(0, n, batch_size)):
            rows = slice(lo, lo + batch_size)
            if order is not None:
                rows = order[rows]
            # only the targets outlive the step: holding the input batch
            # too raised charlstm's peak RSS by about 4 MB (heap layout)
            yb = Y[rows]
            value, out = step(bi, X[rows], yb)
            total += value * yb.shape[0]
            for j, (_, fn) in enumerate(self._metrics):
                msums[j] += fn(out, yb) * yb.shape[0]
        logs = {"loss": total / n}
        for j, (name, _) in enumerate(self._metrics):
            logs[name] = msums[j] / n
        return logs

    def predict(self, X, batch_size=256):
        self._require_compiled()
        batch_size = _count("batch_size", batch_size)
        X = np.asarray(X, dtype=np.float64)
        if X.shape[0] == 0:
            return np.zeros((0,) + self.output_shape)
        parts = []
        for lo in range(0, X.shape[0], batch_size):
            parts.append(self.forward(X[lo : lo + batch_size], train=False))
        return np.concatenate(parts, axis=0)

    # -- introspection -----------------------------------------------------

    def param_counts(self):
        return [layer.param_count() for layer in self.layers]

    def total_params(self):
        return sum(self.param_counts())

    def summary(self):
        self._require_compiled()
        lines = ["%-4s %-24s %-20s %12s" % ("#", "layer", "output shape", "params")]
        self._through(self.input_shape, lambda i, layer, shape: lines.append(
            "%-4d %-24s %-20s %12d"
            % (i, layer.kind, str(tuple(layer.out_shape(shape))), layer.param_count())))
        lines.append("total params: %d" % self.total_params())
        return "\n".join(lines)

    def _require_compiled(self):
        if not self.compiled:
            raise RuntimeError("model is not compiled; call compile() first")

    # -- persistence ---------------------------------------------------------

    def manifest(self):
        return {
            "format_version": FORMAT_VERSION,
            "input_shape": list(self.input_shape),
            "loss": self.loss.name if self.loss is not None else None,
            "optimizer": self.optimizer.name if self.optimizer is not None else None,
            "layers": [
                {"kind": layer.kind, "hyper": layer.hyper()} for layer in self.layers
            ],
        }

    def _blocks(self):
        for i, layer in enumerate(self.layers):
            yield from _named_blocks(i, layer.params, layer.state)

    def save(self, path):
        """Serialize architecture and weights; see the module docstring
        for the byte layout."""
        self._require_compiled()
        buf = io.BytesIO()
        buf.write(MAGIC)
        buf.write(struct.pack("<H", FORMAT_VERSION))
        mbytes = json.dumps(self.manifest(), sort_keys=True).encode("utf-8")
        buf.write(struct.pack("<I", len(mbytes)))
        buf.write(mbytes)
        for name, arr in self._blocks():
            nb = name.encode("utf-8")
            buf.write(struct.pack("<H", len(nb)))
            buf.write(nb)
            buf.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                buf.write(struct.pack("<I", d))
            buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        payload = buf.getvalue()
        with open(path, "wb") as f:
            f.write(payload)
            f.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _named_blocks(i, params, state):
    """(block name, entry) of layer ``i``'s parameters, then its state, in file order."""
    for k in sorted(params):
        yield "layer%d/%s" % (i, k), params[k]
    for k in sorted(state):
        yield "layer%d/state/%s" % (i, k), state[k]


def load_model(path, seed=0):
    """Rebuild a model from a saved file: layers from the manifest, then
    weights, once the file's block table is the one the manifest implies
    (checked before anything is allocated). The optimizer comes back as its
    kind with default settings, enough for inference and fresh fine-tuning."""
    manifest, blocks = _read_model_file(path)
    layers = []
    for i, entry in enumerate(manifest["layers"]):
        kind = entry["kind"]
        if kind not in LAYER_KINDS:
            raise ModelFileError("unknown layer kind %r in file" % (kind,))
        try:
            layers.append(LAYER_KINDS[kind](**entry["hyper"]))
        except (TypeError, ValueError) as e:
            raise ModelFileError(
                "cannot rebuild layer %d (%s) from the file: %s" % (i, kind, e)
            ) from None
    model = SequentialModel(layers, seed=seed)
    got = [(name, a.shape) for name, a in blocks]
    try:
        # the table save would write, from the shapes each layer declares
        want = [block for i, declared in enumerate(model._declared(tuple(manifest["input_shape"])))
                for block in _named_blocks(i, *declared)]
        if got == want:  # build only what the file holds
            model.compile(manifest["input_shape"], manifest["loss"] or "mse",
                          manifest["optimizer"] or "sgd")
    except ValueError as e:
        raise ModelFileError("cannot rebuild the model from the file: %s" % (e,)) from None
    if got != want:
        i, g, w = next((i, g, w) for i, (g, w) in enumerate(zip_longest(got, want)) if g != w)
        raise ModelFileError(
            "architecture mismatch at block %d: the file has %s, the manifest %s"
            % (i, g or "no block", w or "no block")
        )
    for (_, a), (_, b) in zip(blocks, model._blocks()):
        b[...] = a
    return model


def _check_manifest(manifest):
    """Raise ModelFileError unless ``manifest`` has the structure that
    ``SequentialModel.manifest`` writes, so readers may index it freely."""

    def malformed(what):
        raise ModelFileError("model manifest is malformed: %s" % (what,))

    if not isinstance(manifest, dict):
        malformed("expected an object, got %r" % (manifest,))
    shape = manifest.get("input_shape")
    if not isinstance(shape, list) or not all(
        type(d) is int and d > 0 for d in shape
    ):
        malformed("input_shape must be a list of positive integers, got %r" % (shape,))
    for key in ("loss", "optimizer"):
        if key not in manifest or not isinstance(manifest[key], (str, type(None))):
            malformed("%s must be a name or null" % (key,))
    layers = manifest.get("layers")
    if not isinstance(layers, list) or not layers:
        malformed("layers must be a non-empty list, got %r" % (layers,))
    for i, entry in enumerate(layers):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("kind"), str)
            and isinstance(entry.get("hyper"), dict)
        ):
            malformed("layer %d must be an object with a kind name and a hyper object" % (i,))


def _read_model_file(path):
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(MAGIC) + 2 + 4 + 4:
        raise ModelFileError("model file is truncated")
    if raw[: len(MAGIC)] != MAGIC:
        raise ModelFileError("not a model file (bad magic)")
    pos = len(MAGIC)

    def need(k):
        nonlocal pos
        if pos + k > len(raw) - 4:
            raise ModelFileError("model file is truncated")
        chunk = raw[pos : pos + k]
        pos += k
        return chunk

    (version,) = struct.unpack("<H", need(2))
    if version != FORMAT_VERSION:
        raise ModelFileError(
            "unsupported model format version %d (expected %d)"
            % (version, FORMAT_VERSION)
        )
    # everything after the header is parsed only once the checksum
    # vouches for it, so corruption cannot surface as a parse error
    (stored_crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ModelFileError("model file checksum mismatch")
    (mlen,) = struct.unpack("<I", need(4))
    try:
        manifest = json.loads(need(mlen).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ModelFileError("model manifest is unreadable: %s" % (e,)) from None
    _check_manifest(manifest)
    blocks = []
    while pos < len(raw) - 4:
        (nlen,) = struct.unpack("<H", need(2))
        try:
            name = need(nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ModelFileError("model block name is unreadable: %s" % (e,)) from None
        (rank,) = struct.unpack("<B", need(1))
        shape = tuple(struct.unpack("<I", need(4))[0] for _ in range(rank))
        count = 1
        for d in shape:
            count *= d
        data = need(8 * count)
        blocks.append((name, np.frombuffer(data, dtype="<f8").reshape(shape).copy()))
    return manifest, blocks


# ---------------------------------------------------------------------------
# dataset splitting
# ---------------------------------------------------------------------------

def train_val_test_split(X, Y, test_fraction, rng):
    """Shuffle rows with ``rng`` and carve off ``test_fraction`` of them,
    split evenly into validation and test halves. Returns
    (X_train, Y_train, X_val, Y_val, X_test, Y_test)."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    n = X.shape[0]
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y row counts differ: %d vs %d" % (X.shape[0], Y.shape[0]))
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1), got %r" % (test_fraction,))
    perm = rng.permutation(n)
    holdout = int(n * test_fraction)
    cut = n - holdout
    half = holdout // 2
    tr, va, te = perm[:cut], perm[cut : cut + half], perm[cut + half :]
    return X[tr], Y[tr], X[va], Y[va], X[te], Y[te]

