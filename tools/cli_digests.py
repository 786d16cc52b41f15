"""Run every minidl subcommand and every train task on small seeded
inputs, and print the sha256 of each file the commands write and of
each command's standard output.

    PYTHONPATH=src python3 tools/cli_digests.py OUT_DIR

OUT_DIR must not exist yet. The commands run inside it with relative
paths, so no output (run.json included) depends on where OUT_DIR is.
minidl is imported from PYTHONPATH, so the same script measures any
checkout: two listings that ``diff`` clean mean byte-identical CLI
outputs. The whole run takes a few seconds.

The first line names the numpy version, the BLAS library and the BLAS
thread count in effect: floating-point sums, and so the digests, can
differ between BLAS builds and thread counts, and a diff between two
machines then shows that cause first.
"""

import contextlib
import hashlib
import io
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from conftest import draw_digits, separable_table  # noqa: E402
from minidl import cli, save_idx  # noqa: E402

CORPUS = "the quick brown fox jumps over the lazy dog. " * 12
REVIEWS = [
    "1\tloved every minute of this film",
    "0\tterrible and boring waste of time",
    "1\ta delightful story with great acting",
    "0\tawful script and worse directing",
] * 8
CHAR = ["--data", "corpus.txt", "--epochs", "2", "--seq-length", "20", "--units", "12",
        "--layers", "1", "--batch-size", "8"]

# (name, argv without --out); each run writes to runs/<name>
COMMANDS = [
    ("gd", ["gd", "--alpha", "0.1"]),
    ("gd-diverge", ["gd", "--alpha", "1.01"]),
    ("perceptron", ["perceptron", "--gate", "xor", "--seed", "3"]),
    ("mlp-tabular", ["train", "--task", "mlp-tabular", "--data", "table.csv", "--epochs", "3"]),
    # with the tasks' own sgd, adam and rmsprop, every update rule runs
    *[("mlp-tabular-" + opt, ["train", "--task", "mlp-tabular", "--data", "table.csv",
                              "--epochs", "3", "--optimizer", opt])
      for opt in ("momentum", "nesterov", "adagrad", "adadelta")],
    ("cnn-image", ["train", "--task", "cnn-image", "--data", "train-images.idx",
                   "train-labels.idx", "test-images.idx", "test-labels.idx", "--epochs", "1",
                   "--limit-train", "48", "--limit-test", "16", "--batch-size", "16"]),
    ("charrnn", ["train", "--task", "charrnn", *CHAR]),
    ("charlstm", ["train", "--task", "charlstm", *CHAR]),
    ("charlstm-val", ["train", "--task", "charlstm", *CHAR, "--val-split", "0.5"]),
    # the later --layers wins
    ("charlstm-stacked", ["train", "--task", "charlstm", *CHAR, "--layers", "2"]),
    ("sentiment", ["train", "--task", "sentiment", "--data", "reviews.tsv", "--epochs", "2",
                   "--batch-size", "8", "--num-words", "50", "--maxlen", "8",
                   "--embed-dim", "8", "--units", "8"]),
    ("generate", ["generate", "--model", "runs/charrnn/model.gbk", "--length", "40",
                  "--window", "10"]),
    ("generate-seed-char", ["generate", "--model", "runs/charlstm/model.gbk", "--length", "20",
                            "--seed-char", "q"]),
    ("generate-stacked", ["generate", "--model", "runs/charlstm-stacked/model.gbk",
                          "--length", "40", "--window", "10"]),
    ("gan", ["gan", "--data", "train-images.idx", "train-labels.idx", "--epochs", "1",
             "--limit", "128", "--batch-size", "64", "--sample-every", "1", "--seed", "4"]),
]


def write_inputs():
    save_idx(*draw_digits(128, seed=1), "train-images.idx", "train-labels.idx")
    save_idx(*draw_digits(16, seed=2), "test-images.idx", "test-labels.idx")
    X, y = separable_table(120, 4, seed=3)
    with open("table.csv", "w") as f:
        f.write("f0,f1,f2,f3,label\n")
        for row, label in zip(X, y[:, 0]):
            f.write(",".join(repr(float(v)) for v in (*row, label)) + "\n")
    with open("corpus.txt", "w", encoding="utf-8") as f:
        f.write(CORPUS)
    with open("reviews.tsv", "w", encoding="utf-8") as f:
        f.write("\n".join(REVIEWS) + "\n")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def environment():
    """numpy version, BLAS name and version, and BLAS threads in effect:
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS when set, else the usable
    cores."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    threads = next((os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                    if os.environ.get(v)), len(os.sched_getaffinity(0)))
    return "# numpy %s, BLAS %s %s, BLAS threads %s" % (
        np.__version__, blas.get("name"), blas.get("version"), threads)


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: cli_digests.py OUT_DIR")
    print(environment())
    os.makedirs(argv[1])
    os.chdir(argv[1])
    write_inputs()
    for name, args in COMMANDS:
        out = os.path.join("runs", name)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(args + ["--out", out])
        if code != 0:
            raise SystemExit("%s exited with %r" % (name, code))
        print("%s  %s" % (sha256(stdout.getvalue().encode("utf-8")), os.path.join(out, "<stdout>")))
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as f:
                print("%s  %s" % (sha256(f.read()), os.path.join(out, fname)))


if __name__ == "__main__":
    main(sys.argv)
