"""Command line harness.

Five subcommands:

  gd          fixed-step gradient descent on the demo quadratic
  perceptron  single perceptron on the two-input logic gates
  train       small reference networks on user-supplied data
  generate    greedy text sampling from a saved character model
  gan         adversarial training on an IDX image set

Every run writes a run.json manifest with the resolved configuration
into the output directory, and all CSV/SVG/PGM outputs are pure
functions of the arguments, so repeating a command with the same seed
reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import data as data_mod
from . import optim as optim_mod
from . import report
from .gan import default_image_gan
from .layers import Dense, Dropout, Flatten
from .conv import Conv2D, Pool2D
from .model import SequentialModel, load_model, train_val_test_split
from .perceptron import GATES, Perceptron
from .recurrent import LSTM, Embedding, SimpleRNN, TimeDistributedDense, generate_greedy
from .tensor import Rng


def _ensure_out(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_manifest(args, extra=None):
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("fn",) and not k.startswith("_")
    }
    if extra:
        config.update(extra)
    report.write_run_manifest(
        os.path.join(args.out, "run.json"), args.command, config
    )


# ---------------------------------------------------------------------------
# gd
# ---------------------------------------------------------------------------

def _demo_f(x):
    return x * x - 2.0 * x - 3.0


def _demo_fprime(x):
    return 2.0 * x - 2.0


def cmd_gd(args):
    from .optim import gd_scalar

    _ensure_out(args)
    trace = gd_scalar(
        _demo_f, _demo_fprime, args.x0, args.alpha, tol=args.tol, max_iter=args.max_iter
    )
    if trace.converged:
        print(
            "Solution found: x = %.6f, f(x) = %.6f (%d iterations)"
            % (trace.xs[-1], trace.ys[-1], trace.iterations)
        )
    elif trace.diverged:
        print(
            "Gradient descent does not converge: values went non-finite "
            "after %d iterations" % trace.iterations
        )
    else:
        grew = len(trace.xs) > 8 and all(
            abs(trace.xs[i]) > abs(trace.xs[i - 1]) for i in range(-8, 0)
        )
        why = "iterates are growing" if grew else "iteration budget exhausted"
        print(
            "Gradient descent does not converge within %d iterations (%s; last x = %.6g)"
            % (trace.iterations, why, trace.xs[-1])
        )
    report.write_csv(
        os.path.join(args.out, "trace.csv"),
        ["iteration", "x", "f"],
        [(i, x, y) for i, (x, y) in enumerate(zip(trace.xs, trace.ys))],
    )
    report.write_curve_svg(
        os.path.join(args.out, "trace.svg"),
        {"f(x)": (list(range(len(trace.ys))), trace.ys)},
        title="gradient descent on x^2 - 2x - 3 (alpha=%g)" % args.alpha,
        xlabel="iteration",
        ylabel="f(x)",
    )
    _write_manifest(
        args,
        {
            "converged": trace.converged,
            "diverged": trace.diverged,
            "iterations": trace.iterations,
            "x_final": trace.xs[-1],
            "f_final": trace.ys[-1],
        },
    )
    return 0


# ---------------------------------------------------------------------------
# perceptron
# ---------------------------------------------------------------------------

def cmd_perceptron(args):
    _ensure_out(args)
    X, Y = GATES[args.gate]
    rng = Rng(args.seed)
    p = Perceptron(2, alpha=args.alpha, rng=rng)
    mistakes = p.fit(X, Y, epochs=args.epochs)
    print("[INFO] gate=%s, epochs run=%d" % (args.gate, len(mistakes)))
    correct = 0
    for x, t in zip(X, Y):
        pred = p.predict(x)
        correct += pred == int(t)
        print(
            "[INFO] data=%s, ground-truth=%d, pred=%d"
            % ([int(v) for v in x], int(t), pred)
        )
    acc = correct / len(Y)
    print("[INFO] accuracy=%d/%d" % (correct, len(Y)))
    if args.gate == "xor" and correct < len(Y):
        print("[INFO] xor is not linearly separable; a single unit cannot fit it")
    report.write_csv(
        os.path.join(args.out, "mistakes.csv"),
        ["epoch", "mistakes"],
        list(enumerate(mistakes, start=1)),
    )
    _write_manifest(args, {"accuracy": acc, "epochs_run": len(mistakes)})
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _tabular_task(args, val_split):
    """Feature table with the label in the last column: scale features
    to [0, 1], hold out 30% (split evenly into validation and test),
    and fit a 32/32 sigmoid network with binary cross entropy."""
    if len(args.data) != 1:
        raise SystemExit("mlp-tabular expects one CSV path")
    table, _ = data_mod.load_csv(args.data[0], has_header=not args.no_header)
    X, Y = table[:, :-1], table[:, -1:]
    rng = Rng(args.seed)
    Xtr, Ytr, Xva, Yva, Xte, Yte = train_val_test_split(X, Y, 0.3, rng)
    scaler = data_mod.MinMaxScaler().fit(Xtr)
    Xtr, Xva, Xte = scaler.transform(Xtr), scaler.transform(Xva), scaler.transform(Xte)
    layers = [
        Dense(32, activation="sigmoid"),
        Dense(32, activation="sigmoid"),
        Dense(1, activation="sigmoid"),
    ]
    return (
        layers, (X.shape[1],), "binary_crossentropy", Xtr, Ytr,
        {"validation_data": (Xva, Yva)}, (Xte, Yte), "test_",
    )


def _load_idx_pairs(paths, limit_train, limit_test):
    if len(paths) == 2:
        imgs, labels = data_mod.load_idx(paths[0], paths[1])
        n = imgs.shape[0]
        cut = int(n * 0.8)
        train = (imgs[:cut], labels[:cut])
        test = (imgs[cut:], labels[cut:])
    elif len(paths) == 4:
        train = data_mod.load_idx(paths[0], paths[1])
        test = data_mod.load_idx(paths[2], paths[3])
    else:
        raise SystemExit(
            "cnn-image expects 2 IDX paths (images labels) or 4 "
            "(train images, train labels, test images, test labels)"
        )
    if limit_train:
        train = (train[0][:limit_train], train[1][:limit_train])
    if limit_test:
        test = (test[0][:limit_test], test[1][:limit_test])
    return train, test


def image_classifier_layers(num_classes=10):
    """Stacked 3x3 conv pairs with pooling and dropout, then a 512-unit
    head: the stock small-image architecture used by cmd_train."""
    return [
        Conv2D(32, 3, padding="same", activation="relu"),
        Conv2D(32, 3, padding="same", activation="relu"),
        Pool2D(2, mode="max"),
        Dropout(0.25),
        Conv2D(64, 3, padding="same", activation="relu"),
        Conv2D(64, 3, padding="same", activation="relu"),
        Pool2D(2, mode="max"),
        Dropout(0.25),
        Flatten(),
        Dense(512, activation="relu"),
        Dropout(0.5),
        Dense(num_classes, activation="softmax"),
    ]


def _cnn_task(args, val_split):
    (train_imgs, train_labels), (test_imgs, test_labels) = _load_idx_pairs(
        args.data, args.limit_train, args.limit_test
    )
    def prep(imgs, labels):
        x = data_mod.normalize_pixels(imgs, "unit")[..., None]
        y = data_mod.one_hot(labels, 10)
        return x, y

    Xtr, Ytr = prep(train_imgs, train_labels)
    Xte, Yte = prep(test_imgs, test_labels)
    return (
        image_classifier_layers(10), Xtr.shape[1:], "categorical_crossentropy",
        Xtr, Ytr, {"validation_split": val_split}, (Xte, Yte), "test_",
    )


def _char_task(args, val_split):
    if len(args.data) != 1:
        raise SystemExit("%s expects one text file path" % args.task)
    with open(args.data[0], "r", encoding="utf-8") as f:
        text = f.read()
    seq_length = args.seq_length or (160 if args.task == "charlstm" else 100)
    X, Y, vocab = data_mod.build_char_dataset(text, seq_length)
    if len(text) % seq_length == 0 and X.shape[0]:
        # the final shifted window runs one character past the text, so
        # its target ends in an all-zero row the loss cannot accept
        X, Y = X[:-1], Y[:-1]
    n_vocab = len(vocab)
    print(
        "text: %d characters, vocabulary %d, %d sequences of length %d"
        % (len(text), n_vocab, X.shape[0], seq_length)
    )
    vocab.save_json(os.path.join(args.out, "vocab.json"))
    units = args.units
    drop = 0.4 if args.task == "charlstm" else 0.3
    layers = []
    for i in range(args.layers):
        if args.task == "charlstm":
            layers.append(LSTM(units, return_sequences=True))
        else:
            layers.append(SimpleRNN(units, activation="relu", return_sequences=True))
        layers.append(Dropout(drop))
    layers.append(TimeDistributedDense(n_vocab, activation="softmax"))
    return (
        layers, (seq_length, n_vocab), "categorical_crossentropy",
        X, Y, {"validation_split": val_split}, None, "",
    )


def _sentiment_task(args, val_split):
    """Tab-separated lines "<label>\\t<text>" with integer 0/1 labels."""
    if len(args.data) != 1:
        raise SystemExit("sentiment expects one TSV path")
    labels = []
    texts = []
    with open(args.data[0], "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                label, text = line.split("\t", 1)
                labels.append(int(label))
            except ValueError:
                raise SystemExit(
                    "%s line %d: expected '<label>\\t<text>'" % (args.data[0], lineno)
                )
            texts.append(data_mod.clean_text(text))
    tok = data_mod.Tokenizer(num_words=args.num_words).fit(texts)
    seqs = tok.texts_to_sequences(texts)
    X = data_mod.pad_sequences(seqs, maxlen=args.maxlen, padding="pre", truncating="pre")
    Y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    vocab_size = min(args.num_words, len(tok.word_index)) + 1
    layers = [
        Embedding(vocab_size, args.embed_dim),
        LSTM(args.units),
        Dense(1, activation="sigmoid"),
    ]
    return (
        layers, (X.shape[1],), "binary_crossentropy",
        X, Y, {"validation_split": val_split}, None, "",
    )


# Per task: default batch size, optimizer and validation fraction, and
# the function that loads and prepares the data. It returns what
# differs between tasks: (layers, per-sample input shape, loss, X, Y,
# fit keywords choosing the validation rows, test set or None, prefix
# of the final metric keys); cmd_train compiles, fits and evaluates.
# Without a test set the final metrics come from the rows fit held
# out, or from the training rows when it held none out.
_TASKS = {
    "mlp-tabular": (32, "sgd", 0.0, _tabular_task),
    "cnn-image": (32, "adam", 0.1, _cnn_task),
    "charrnn": (100, "rmsprop", 0.0, _char_task),
    "charlstm": (100, "rmsprop", 0.0, _char_task),
    "sentiment": (128, "adam", 0.2, _sentiment_task),
}


def _make_optimizer(name, lr):
    kwargs = {}
    if lr is not None:
        kwargs["lr"] = lr
    return optim_mod.get(name, **kwargs)


def cmd_train(args):
    _ensure_out(args)
    d_batch, d_opt, d_val, task = _TASKS[args.task]
    batch_size = args.batch_size if args.batch_size is not None else d_batch
    opt_name = args.optimizer if args.optimizer is not None else d_opt
    val_split = args.val_split if args.val_split is not None else d_val
    optimizer = _make_optimizer(opt_name, args.lr)

    layers, input_shape, loss, X, Y, fit_kwargs, eval_set, key_prefix = task(
        args, val_split
    )
    model = SequentialModel(layers, seed=args.seed)
    model.compile(input_shape, loss, optimizer, metrics=("accuracy",))
    print(model.summary())
    history = model.fit(
        X,
        Y,
        epochs=args.epochs,
        batch_size=batch_size,
        verbose=args.verbose,
        **fit_kwargs,
    )
    if eval_set is not None:
        final_rows = "test"
        scores = model.evaluate(*eval_set, batch_size=batch_size)
    elif val_split > 0.0:
        # fit scored the rows it held out after its last epoch, on the
        # model as it stands now
        final_rows = "held_out"
        scores = {k[4:]: history.last(k) for k in history.history if k.startswith("val_")}
    else:
        final_rows = "training"
        scores = model.evaluate(X, Y, batch_size=batch_size)
    final = {key_prefix + k: v for k, v in scores.items()}

    history.save_csv(os.path.join(args.out, "history.csv"))
    for metric in ("loss", "accuracy"):
        series = {"train " + metric: (history.epochs, history.history[metric])}
        if "val_" + metric in history.history:
            series["val " + metric] = (history.epochs, history.history["val_" + metric])
        report.write_curve_svg(
            os.path.join(args.out, metric + ".svg"),
            series,
            title="%s %s" % (args.task, metric),
            xlabel="epoch",
            ylabel=metric,
        )
    model.save(os.path.join(args.out, "model.gbk"))
    print("final: " + "  ".join("%s=%.6f" % (k, v) for k, v in sorted(final.items())))
    _write_manifest(
        args,
        {
            "batch_size": batch_size,
            "optimizer_resolved": optimizer.name,
            "optimizer_config": optimizer.config(),
            "val_split": val_split,
            "final": final,
            "final_rows": final_rows,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args):
    from .data import CharVocab

    _ensure_out(args)
    model = load_model(args.model)
    vocab_path = args.vocab or os.path.join(os.path.dirname(args.model), "vocab.json")
    if not os.path.exists(vocab_path):
        raise SystemExit(
            "no vocabulary file at %s (train with the charrnn/charlstm task "
            "or pass --vocab)" % vocab_path
        )
    vocab = CharVocab.load_json(vocab_path)
    if len(vocab) != model.input_shape[-1]:
        raise SystemExit(
            "vocabulary %s has %d characters but the model takes %d-wide one-hot input"
            % (vocab_path, len(vocab), model.input_shape[-1])
        )
    if args.seed_char is not None:
        if args.seed_char not in vocab.char_to_id:
            raise SystemExit("seed character %r is not in the vocabulary" % args.seed_char)
        seed_id = vocab.char_to_id[args.seed_char]
    else:
        seed_id = Rng(args.seed).randint(len(vocab))
    ids = generate_greedy(model, seed_id, args.length, len(vocab), window=args.window)
    text = vocab.decode(ids)
    print(text)
    with open(os.path.join(args.out, "generated.txt"), "w", encoding="utf-8") as f:
        f.write(text + "\n")
    _write_manifest(args, {"seed_id": seed_id})
    return 0


# ---------------------------------------------------------------------------
# gan
# ---------------------------------------------------------------------------

def cmd_gan(args):
    _ensure_out(args)
    imgs, _labels = data_mod.load_idx(args.data[0], args.data[1])
    if args.limit:
        imgs = imgs[: args.limit]
    flat = data_mod.normalize_pixels(imgs, "symmetric").reshape(imgs.shape[0], -1)
    trainer = default_image_gan(
        latent_dim=args.latent_dim,
        seed=args.seed,
        lr=args.lr,
        beta1=args.beta1,
        batch_size=args.batch_size,
    )

    def hook(epoch, samples):
        grid = report.tile_images(samples, 10, 10)
        path = os.path.join(args.out, "samples_epoch_%03d.pgm" % epoch)
        report.write_pgm(path, grid)
        print("wrote %s" % path)

    history = trainer.train(
        flat, epochs=args.epochs, sample_hook=hook, sample_hook_every=args.sample_every
    )
    steps = list(range(1, len(history["d_loss"]) + 1))
    report.write_csv(
        os.path.join(args.out, "losses.csv"),
        ["step", "d_loss", "g_loss"],
        list(zip(steps, history["d_loss"], history["g_loss"])),
    )
    report.write_curve_svg(
        os.path.join(args.out, "losses.svg"),
        {
            "discriminator": (steps, history["d_loss"]),
            "generator": (steps, history["g_loss"]),
        },
        title="adversarial training loss",
        xlabel="step",
        ylabel="loss",
    )
    trainer.generator.save(os.path.join(args.out, "generator.gbk"))
    print(
        "final losses: d=%.6f g=%.6f over %d steps"
        % (history["d_loss"][-1], history["g_loss"][-1], len(steps))
    )
    _write_manifest(args, {"steps": len(steps)})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _at_least(lo):
    """An argparse type: an integer no smaller than ``lo``."""

    def parse(text):
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (lo, n))
        return n

    parse.__name__ = "int"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minidl",
        description="training harness for the bundled deep learning library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gd", help="gradient descent on the demo quadratic")
    p.add_argument("--alpha", type=float, required=True, help="step size")
    p.add_argument("--x0", type=float, default=6.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--max-iter", type=_at_least(0), default=1000)
    p.add_argument("--out", default="runs/gd")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gd)

    p = sub.add_parser("perceptron", help="perceptron on a logic gate")
    p.add_argument("--gate", choices=sorted(GATES), required=True)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--epochs", type=_at_least(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/perceptron")
    p.set_defaults(fn=cmd_perceptron)

    p = sub.add_parser("train", help="train a reference network")
    p.add_argument(
        "--task",
        choices=sorted(_TASKS),
        required=True,
    )
    p.add_argument("--data", nargs="+", required=True, help="task data paths")
    p.add_argument("--epochs", type=_at_least(1), required=True)
    p.add_argument("--batch-size", type=_at_least(1), default=None)
    p.add_argument("--optimizer", default=None, help="sgd, momentum, adam, ...")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--val-split", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/train")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--no-header", action="store_true", help="CSV has no header row")
    p.add_argument("--limit-train", type=_at_least(0), default=0)
    p.add_argument("--limit-test", type=_at_least(0), default=0)
    p.add_argument("--seq-length", type=_at_least(1), default=None)
    p.add_argument("--units", type=_at_least(1), default=800)
    p.add_argument("--layers", type=_at_least(0), default=2)
    p.add_argument("--num-words", type=_at_least(1), default=5000)
    p.add_argument("--maxlen", type=_at_least(1), default=500)
    p.add_argument("--embed-dim", type=_at_least(1), default=32)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("generate", help="greedy sampling from a character model")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--length", type=_at_least(0), default=200)
    p.add_argument("--seed-char", default=None)
    p.add_argument(
        "--window", type=_at_least(1), default=100,
        help="history length each character is predicted from",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/generate")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("gan", help="adversarial training on IDX images")
    p.add_argument("--data", nargs=2, required=True, metavar=("IMAGES", "LABELS"))
    p.add_argument("--epochs", type=_at_least(1), required=True)
    p.add_argument("--latent-dim", type=_at_least(1), default=10)
    p.add_argument("--batch-size", type=_at_least(1), default=128)
    p.add_argument("--sample-every", type=_at_least(1), default=20)
    p.add_argument("--lr", type=float, default=0.0002)
    p.add_argument("--beta1", type=float, default=0.5)
    p.add_argument("--limit", type=_at_least(0), default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="runs/gan")
    p.set_defaults(fn=cmd_gan)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main())
