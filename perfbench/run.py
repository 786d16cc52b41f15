"""The minidl benchmark: reference training runs timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload is a sequence of
``minidl`` commands, the ones a user would type, on inputs generated
from ``--seed`` before any timing starts. One repetition runs the whole
sequence in a fresh Python process (``worker.py``) and checks its
outputs. Repetitions are started until ``--seconds`` would be exceeded
(at least ``MIN_REPETITIONS``), after one process that only imports
minidl to warm the file caches. Every metric is the median over the
repetitions.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics. With ``--trace 1`` repetitions alternate between
untraced and traced ones, the spans of the traced ones are written out,
and the JSON object holds the per-layer metrics, including the tracing
overhead: traced against untraced ``run_s``.

Working files, the spans and the full result (with the environment and
the sha256 of every input) go to ``.bench_work/<workload>-seed<N>[-trace]/``
in the checkout. README.md next to this file explains the workloads and
the metrics.
"""

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
MIN_REPETITIONS = 3
# a run must end within 180 s whatever --seconds asks
LAST_START_S = 120
REPETITION_TIMEOUT_S = 50

# Sizes of the inputs and of the training runs. Every seed gives inputs
# of the same size and vocabulary, so the work per repetition is fixed.
SIZES = {
    "cnn-image": {"train_rows": 640, "test_rows": 240, "epochs": 1, "min_accuracy": 0.3},
    "gan": {"rows": 1024, "batch": 128, "epochs": 3},
    "charlstm": {"sequences": 96, "seq_length": 100, "units": 128, "batch": 32,
                 "epochs": 4, "length": 200},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_samples_per_s": "1/s",
    "infer_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_loss": "nats",
}

WORDS = (
    "the of and to in was he that it his her with had for as you not be at on "
    "but she by which from this all they were would have there when my one said "
    "what an no more so if out into could them then quick brown fox jumps over "
    "lazy dog prize vex wizard jinx"
).split()


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def corpus(seed, n_chars):
    """Sentences of words drawn with Zipf-like weights from a fixed list
    that covers the alphabet, so every seed gives the same vocabulary:
    26 letters, space, comma and period."""
    import numpy as np
    from minidl import Rng

    rng = Rng(seed)
    weights = 1.0 / np.arange(1, len(WORDS) + 1)
    cumulative = np.cumsum(weights) / weights.sum()
    parts = [" ".join(WORDS) + ", "]
    size = len(parts[0])
    while size < n_chars:
        length = 4 + rng.randint(8)
        picks = np.searchsorted(cumulative, rng.uniform((length,)), side="right")
        words = [WORDS[min(int(k), len(WORDS) - 1)] for k in picks]
        if rng.uniform() < 0.3:
            words[length // 2] += ","
        sentence = " ".join(words) + ". "
        parts.append(sentence)
        size += len(sentence)
    return "".join(parts)[:n_chars]


def make_inputs(workload, seed, sizes, work):
    """Write the workload's inputs into ``work`` and return the plan the
    worker follows, with the sha256 of each input."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from minidl import save_idx

    spec = importlib.util.spec_from_file_location("_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)

    def digits(n, digit_seed, stem):
        images, labels = conftest.draw_digits(n, seed=digit_seed)
        paths = [os.path.join(work, stem + "-images.idx"), os.path.join(work, stem + "-labels.idx")]
        save_idx(images, labels, *paths)
        return paths

    common = ["--seed", "{seed}", "--out", "{out}"]
    expect = {}
    if workload == "cnn-image":
        data = digits(sizes["train_rows"], 2 * seed + 1, "train") + digits(sizes["test_rows"], 2 * seed + 2, "test")
        commands = [["train", "--task", "cnn-image", "--data", *data, "--epochs", str(sizes["epochs"]),
                     "--batch-size", "32", "--optimizer", "adam", *common]]
        expect["min_accuracy"] = sizes["min_accuracy"]
    elif workload == "gan":
        data = digits(sizes["rows"], seed, "train")
        rounds = sizes["rows"] // sizes["batch"]
        commands = [["gan", "--data", *data, "--epochs", str(sizes["epochs"]), "--batch-size",
                     str(sizes["batch"]), "--latent-dim", "10", "--sample-every", "1", *common]]
        expect.update(steps=rounds * sizes["epochs"], rounds_per_epoch=rounds,
                      sample_batches=sizes["epochs"])
    else:
        text = corpus(seed, sizes["sequences"] * sizes["seq_length"] + 1)
        path = os.path.join(work, "corpus.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        data = [path]
        commands = [
            ["train", "--task", "charlstm", "--data", path, "--epochs", str(sizes["epochs"]),
             "--units", str(sizes["units"]), "--layers", "1", "--seq-length", str(sizes["seq_length"]),
             "--batch-size", str(sizes["batch"]), "--optimizer", "rmsprop", *common],
            ["generate", "--model", os.path.join("{out}", "model.gbk"), "--length",
             str(sizes["length"]), *common],
        ]
        expect.update(vocab=len(set(text)), length=sizes["length"])
    return {
        "workload": workload,
        "seed": seed,
        "work": work,
        "commands": commands,
        "expect": expect,
        "inputs": {os.path.basename(p): sha256(p) for p in data},
    }


def blas_threads():
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return max(1, min(int(os.environ[var]), cores))
    return cores


def environment():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = os.path.join(ROOT, "src", "minidl")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as f:
                lines += sum(1 for _ in f)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": commit,
        "src_minidl_lines": lines,
    }


def worker_env():
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_repetition(plan_path, work, rep, trace):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, str(rep)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd + [repr(spawned), "1" if trace else "0"], cwd=ROOT, env=worker_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=REPETITION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    # the outputs were checked by the worker; the model files alone would
    # fill a disk over a few hundred repetitions
    shutil.rmtree(os.path.join(work, "rep-%d" % rep), ignore_errors=True)
    path = os.path.join(work, "rep-%d.json" % rep)
    if proc.returncode != 0 or not os.path.exists(path):
        return {"rep": rep, "traced": trace, "metrics": None,
                "checks": [("worker", False, "exit %s: %s" % (proc.returncode, err[-500:]))]}
    with open(path) as f:
        return json.load(f)


def run(workload, seed, seconds, trace, sizes=None, quiet=False):
    """Run one benchmark run and return (result line, full result)."""
    for needed in (os.path.join("src", "minidl", "__init__.py"), os.path.join("tests", "conftest.py")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s not found: run from the root of a minidl checkout" % needed)
    work = os.path.join(ROOT, ".bench_work", "%s-seed%d%s" % (workload, seed, "-trace" if trace else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = make_inputs(workload, seed, sizes or SIZES[workload], work)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f, indent=1)

    subprocess.run([sys.executable, "-c", "import minidl.cli"], cwd=ROOT, env=worker_env(), check=True)
    reps = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if reps:
            typical = statistics.median(r["wall_s"] for r in reps)
            if elapsed + typical > (seconds if len(reps) >= MIN_REPETITIONS else LAST_START_S):
                break
        t = time.perf_counter()
        # a traced run alternates: untraced, traced, untraced, ...
        rep = run_repetition(plan_path, work, len(reps), trace and len(reps) % 2 == 1)
        rep["wall_s"] = time.perf_counter() - t
        reps.append(rep)
        if not quiet:
            print("repetition %d%s: %.2f s, %s" % (
                rep["rep"], " (traced)" if rep["traced"] else "", rep["wall_s"],
                "ok" if all(ok for _, ok, _ in rep["checks"]) else "FAILED"), flush=True)

    checks = [c for r in reps for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    good = [r for r in reps if r["metrics"] is not None]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (trace and not traced):
        for name, _, detail in failed[:5]:
            print("failed check %s: %s" % (name, detail), file=sys.stderr)
        fail("no repetition of %s completed its commands and checks" % workload)

    def median(rows, key):
        return statistics.median(r[key] for r in rows)

    e2e = {k: median([r["metrics"] for r in untraced], k) for k in END_TO_END_UNITS}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    full = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "inputs_sha256": plan["inputs"],
        "commands": plan["commands"],
        "repetitions": reps,
        "end_to_end": metrics,
        "error_rate": len(failed) / len(checks),
    }
    if trace:
        layer = {k: median([r["per_layer"] for r in traced], k) for k in tracing.PER_LAYER_UNITS if k != "trace.overhead_pct"}
        traced_run_s = median([r["metrics"] for r in traced], "run_s")
        layer["trace.overhead_pct"] = 100.0 * (traced_run_s / e2e["run_s"] - 1.0)
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in layer.items()}
        full["per_layer"] = metrics
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(full, f, indent=1)
    line = {"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}
    return line, full


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    line, full = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment: " + json.dumps(full["environment"], sort_keys=True))
    print("inputs sha256: " + json.dumps(full["inputs_sha256"], sort_keys=True))
    for name, m in sorted(full["end_to_end"].items()):
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-28s %14.6g %s" % ("error_rate", full["error_rate"], "ratio"))
    for name, m in sorted(full.get("per_layer", {}).items()):
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
