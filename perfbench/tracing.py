"""Spans recorded from outside minidl, and the metrics derived from them.

The benchmark does not change the library. It replaces chosen methods
and module functions with wrappers that record one span per call:
name, start, end, parent span, training step and an optional count
(rows, FLOPs, values drawn). Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children.

A training step is one ``SequentialModel.train_on_batch`` call, or one
GAN round (a discriminator step and the generator step after it).
Per-layer timings are summed over the instances of a class within a
step, and reported as the median over the steps of a run.
"""

from __future__ import annotations

import functools
import statistics
import time

NAME, START, END, PARENT, STEP, INFO = range(6)

# Values of state kept per parameter by each optimizer's update rule.
# A step must at least read p and g, write p, and read and write every
# slot: 8 * (3 + 2 * slots) bytes per float64 parameter.
OPTIMIZER_SLOTS = {
    "sgd": 0,
    "momentum": 1,
    "nesterov": 1,
    "adagrad": 1,
    "rmsprop": 1,
    "adadelta": 2,
    "adam": 2,
}

# Per-layer metrics with their units. Which end-to-end metric each one
# should move, and on which workload, is written down in README.md.
PER_LAYER_UNITS = {
    "conv.Conv2D.forward_ms": "ms",
    "conv.Conv2D.backward_ms": "ms",
    "conv.Conv2D.gflops": "GFLOP/s",
    "conv.Pool2D.forward_ms": "ms",
    "conv.Pool2D.backward_ms": "ms",
    "optim.step_ms": "ms",
    "optim.params": "count",
    "optim.min_bytes_per_step": "bytes",
    "optim.gbytes_per_s": "GB/s",
    "layers.Dense.forward_ms": "ms",
    "layers.Dense.backward_ms": "ms",
    "layers.Dense.gflops": "GFLOP/s",
    "layers.Dropout.forward_ms": "ms",
    "layers.Dropout.backward_ms": "ms",
    "recurrent.LSTM.forward_ms": "ms",
    "recurrent.LSTM.backward_ms": "ms",
    "recurrent.LSTM.us_per_timestep": "us",
    "recurrent.TimeDistributedDense.forward_ms": "ms",
    "recurrent.TimeDistributedDense.backward_ms": "ms",
    "recurrent.generate_greedy.ms_per_char": "ms",
    "gan.discriminator_step_ms": "ms",
    "gan.generator_step_ms": "ms",
    "tensor.Rng.draw_ms": "ms",
    "tensor.Rng.values_per_step": "count",
    "losses.value_ms": "ms",
    "losses.grad_ms": "ms",
    "model.step_ms": "ms",
    "model.step_self_ms": "ms",
    "model.save_ms": "ms",
    "model.load_ms": "ms",
    "data.load_idx_ms": "ms",
    "data.build_char_dataset_ms": "ms",
    "report.write_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Records spans around wrapped callables while ``enabled``."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._stack = []
        self._step = -1
        self._step_depth = 0

    def span(self, name, fn, args, kwargs, step=None, info=None, skip_under=()):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``step`` is "new" for a call that starts a training step and
        "same" for one that continues the current step. ``info(args,
        result)`` gives the span's count. A call made directly under a
        span named in ``skip_under`` gets no span of its own, so its
        time counts toward that parent.
        """
        stack = self._stack
        if not self.enabled or (stack and self.spans[stack[-1]][NAME] in skip_under):
            return fn(*args, **kwargs)
        if step == "new":
            self._step += 1
        record = [name, 0.0, 0.0, stack[-1] if stack else None, None, None]
        if step or self._step_depth:
            record[STEP] = self._step
        stack.append(len(self.spans))
        self.spans.append(record)
        if step:
            self._step_depth += 1
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            if step:
                self._step_depth -= 1
        if info is not None:
            record[INFO] = info(args, result)
        return result

    def wrap(self, owner, attr, name, **options):
        """Replace ``owner.attr`` with a wrapper that records spans."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, **options)

        setattr(owner, attr, wrapper)


def _rows(args, result):
    return int(len(args[1]))


def _conv_forward_flops(args, result):
    kh, kw, cin, _ = args[0].params["W"].shape
    return 2 * result.size * kh * kw * cin


def _conv_backward_flops(args, result):
    # the weight gradient and the input gradient each cost one forward
    kh, kw, cin, _ = args[0].params["W"].shape
    return 4 * args[1].size * kh * kw * cin


def _dense_forward_flops(args, result):
    return 2 * result.size * args[0].params["W"].shape[0]


def _dense_backward_flops(args, result):
    return 4 * args[1].size * args[0].params["W"].shape[0]


def _timesteps(args, result):
    return int(args[0]._x.shape[1])


def _values(args, result):
    return int(getattr(result, "size", 1))


def _optimizer_bytes(args, result):
    opt, params = args[0], args[1]
    n = sum(int(p.size) for p in params.values())
    return [n, 8 * n * (3 + 2 * OPTIMIZER_SLOTS[opt.name])]


def instrument(tracer, full):
    """Wrap the boundaries the end-to-end metrics and the output checks
    need and, when ``full``, every boundary the per-layer metrics need.
    Returns the lists the checks read: the models saved, with their
    paths, and the (min, max) of every GAN sample batch."""
    from minidl import cli, conv, data, gan, layers, losses, model, optim, recurrent, report, tensor

    seen = {"saved": [], "samples": []}

    def saved(args, result):
        seen["saved"].append((args[0], args[1]))

    def sampled(args, result):
        seen["samples"].append((float(result.min()), float(result.max())))

    w = tracer.wrap
    sm, gt = model.SequentialModel, gan.GanTrainer
    w(sm, "fit", "model.fit")
    w(sm, "train_on_batch", "model.train_on_batch", step="new", info=_rows)
    w(sm, "predict", "model.predict", info=_rows)
    w(sm, "evaluate", "model.evaluate", info=_rows)
    w(gt, "train", "gan.train")
    w(gt, "discriminator_step", "gan.discriminator_step", step="new", info=_rows)
    w(gt, "generator_step", "gan.generator_step", step="same")
    w(gt, "sample", "gan.sample", info=sampled)
    w(sm, "save", "model.save", info=saved)
    if not full:
        return seen
    w(conv.Conv2D, "forward", "conv.Conv2D.forward", info=_conv_forward_flops)
    w(conv.Conv2D, "backward", "conv.Conv2D.backward", info=_conv_backward_flops)
    w(conv.Pool2D, "forward", "conv.Pool2D.forward")
    w(conv.Pool2D, "backward", "conv.Pool2D.backward")
    # the Dense inside TimeDistributedDense is part of that layer's time
    inner = ("recurrent.TimeDistributedDense.forward", "recurrent.TimeDistributedDense.backward")
    w(layers.Dense, "forward", "layers.Dense.forward", info=_dense_forward_flops, skip_under=inner)
    w(layers.Dense, "backward", "layers.Dense.backward", info=_dense_backward_flops, skip_under=inner)
    w(layers.Dropout, "forward", "layers.Dropout.forward")
    w(layers.Dropout, "backward", "layers.Dropout.backward")
    w(recurrent.LSTM, "forward", "recurrent.LSTM.forward", info=_timesteps)
    w(recurrent.LSTM, "backward", "recurrent.LSTM.backward", info=_timesteps)
    w(recurrent.TimeDistributedDense, "forward", inner[0])
    w(recurrent.TimeDistributedDense, "backward", inner[1])
    w(optim.Optimizer, "step", "optim.step", info=_optimizer_bytes)
    for method in ("uniform", "normal", "randint", "integers", "permutation"):
        w(tensor.Rng, method, "tensor.Rng." + method, info=_values)
    for cls in (losses.MeanSquaredError, losses.MeanAbsoluteError,
                losses.SoftmaxCrossEntropy, losses.BinaryCrossEntropy):
        w(cls, "value", "losses.%s.value" % cls.__name__)
        w(cls, "grad", "losses.%s.grad" % cls.__name__)
    # cli imported these two by name, so its references are the ones to wrap
    w(cli, "load_model", "model.load_model")
    w(cli, "generate_greedy", "recurrent.generate_greedy",
      info=lambda args, result: len(result) - 1)
    w(data, "load_idx", "data.load_idx")
    w(data, "build_char_dataset", "data.build_char_dataset")
    for fn in ("write_csv", "write_curve_svg", "write_pgm", "tile_images", "write_run_manifest"):
        w(report, fn, "report." + fn)
    return seen


def self_times(spans):
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def end_to_end(spans, spawned, finished):
    """Timings a user sees, from one repetition's spans. ``spawned`` is
    when the process was started and ``finished`` when the last command
    returned, both on the ``time.perf_counter`` clock."""
    steps = [s for s in spans if s[NAME] in ("model.train_on_batch", "gan.discriminator_step")]
    train_s = sum(s[END] - s[START] for s in spans if s[NAME] in ("model.fit", "gan.train"))
    infer = [s for s in spans if s[NAME] in ("model.predict", "model.evaluate")
             and (s[PARENT] is None or spans[s[PARENT]][NAME] not in ("model.predict", "model.evaluate"))]
    infer_s = sum(s[END] - s[START] for s in infer)
    return {
        "setup_s": steps[0][START] - spawned if steps else float("nan"),
        "run_s": finished - spawned,
        "train_samples_per_s": sum(s[INFO] for s in steps) / train_s if train_s else 0.0,
        "infer_rows_per_s": sum(s[INFO] for s in infer) / infer_s if infer_s else 0.0,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(spans):
    """Per-layer metrics of one traced repetition (all but the tracing
    overhead, which needs an untraced repetition to compare with)."""
    own = self_times(spans)
    steps = {}
    totals = {}
    for i, s in enumerate(spans):
        totals[s[NAME]] = totals.get(s[NAME], 0.0) + own[i]
        if s[STEP] is not None:
            steps.setdefault(s[STEP], []).append(i)
    n_steps = max(len(steps), 1)
    loop_self = (totals.get("model.fit", 0.0) + totals.get("gan.train", 0.0)) / n_steps

    def per_step(fn):
        values = [fn(idx) for idx in steps.values()]
        return _median([v for v in values if v is not None])

    def ms(idx, *names):
        return 1e3 * sum(own[i] for i in idx if spans[i][NAME] in names)

    def ms_prefix(idx, prefix, suffix=""):
        return 1e3 * sum(own[i] for i in idx
                         if spans[i][NAME].startswith(prefix) and spans[i][NAME].endswith(suffix))

    def inclusive_ms(idx, name):
        return 1e3 * sum(spans[i][END] - spans[i][START] for i in idx if spans[i][NAME] == name)

    def info(idx, name, k=None):
        vals = [spans[i][INFO] for i in idx if spans[i][NAME] == name]
        return sum(v if k is None else v[k] for v in vals)

    def gflops(idx, layer):
        secs = ms(idx, layer + ".forward", layer + ".backward") / 1e3
        flops = info(idx, layer + ".forward") + info(idx, layer + ".backward")
        return flops / secs / 1e9 if secs > 0 else None

    def rng_values(idx):
        # nested draws (integers calls uniform) count once, at the outermost
        return sum(spans[i][INFO] for i in idx if spans[i][NAME].startswith("tensor.Rng.")
                   and not spans[spans[i][PARENT]][NAME].startswith("tensor.Rng."))

    def lstm_us(idx):
        t = [spans[i][INFO] for i in idx if spans[i][NAME] == "recurrent.LSTM.forward"]
        if not t:
            return None
        return 1e3 * ms(idx, "recurrent.LSTM.forward", "recurrent.LSTM.backward") / t[0]

    def optim_rate(idx):
        secs = ms(idx, "optim.step") / 1e3
        return info(idx, "optim.step", 1) / secs / 1e9 if secs > 0 else None

    gen = [i for i, s in enumerate(spans) if s[NAME] == "recurrent.generate_greedy"]
    gen_chars = sum(spans[i][INFO] for i in gen)
    gen_ms = 1e3 * sum(spans[i][END] - spans[i][START] for i in gen)
    step_names = ("model.train_on_batch", "gan.discriminator_step", "gan.generator_step")
    out = {}
    for layer in ("conv.Conv2D", "conv.Pool2D", "layers.Dense", "layers.Dropout",
                  "recurrent.LSTM", "recurrent.TimeDistributedDense"):
        out[layer + ".forward_ms"] = per_step(lambda idx: ms(idx, layer + ".forward"))
        out[layer + ".backward_ms"] = per_step(lambda idx: ms(idx, layer + ".backward"))
    out["conv.Conv2D.gflops"] = per_step(lambda idx: gflops(idx, "conv.Conv2D"))
    out["layers.Dense.gflops"] = per_step(lambda idx: gflops(idx, "layers.Dense"))
    out["recurrent.LSTM.us_per_timestep"] = per_step(lstm_us)
    out["recurrent.generate_greedy.ms_per_char"] = gen_ms / gen_chars if gen_chars else 0.0
    out["optim.step_ms"] = per_step(lambda idx: ms(idx, "optim.step"))
    out["optim.params"] = per_step(lambda idx: info(idx, "optim.step", 0))
    out["optim.min_bytes_per_step"] = per_step(lambda idx: info(idx, "optim.step", 1))
    out["optim.gbytes_per_s"] = per_step(optim_rate)
    out["gan.discriminator_step_ms"] = per_step(lambda idx: inclusive_ms(idx, "gan.discriminator_step"))
    out["gan.generator_step_ms"] = per_step(lambda idx: inclusive_ms(idx, "gan.generator_step"))
    out["tensor.Rng.draw_ms"] = per_step(lambda idx: ms_prefix(idx, "tensor.Rng."))
    out["tensor.Rng.values_per_step"] = per_step(rng_values)
    out["losses.value_ms"] = per_step(lambda idx: ms_prefix(idx, "losses.", ".value"))
    out["losses.grad_ms"] = per_step(lambda idx: ms_prefix(idx, "losses.", ".grad"))
    out["model.step_ms"] = per_step(
        lambda idx: sum(inclusive_ms(idx, name) for name in step_names))
    out["model.step_self_ms"] = per_step(lambda idx: ms(idx, *step_names) + 1e3 * loop_self)
    out["model.save_ms"] = 1e3 * totals.get("model.save", 0.0)
    out["model.load_ms"] = 1e3 * totals.get("model.load_model", 0.0)
    out["data.load_idx_ms"] = 1e3 * totals.get("data.load_idx", 0.0)
    out["data.build_char_dataset_ms"] = 1e3 * totals.get("data.build_char_dataset", 0.0)
    out["report.write_ms"] = 1e3 * sum(v for k, v in totals.items() if k.startswith("report."))
    out["cli.self_ms"] = 1e3 * sum(v for k, v in totals.items() if k.startswith("cli."))
    return out
