"""One repetition of a workload: the minidl commands of its plan, run
through ``minidl.cli.main`` in this fresh process, then the checks on
their outputs.

    python3 perfbench/worker.py PLAN REPETITION SPAWNED TRACE

PLAN is the JSON file run.py wrote, SPAWNED the ``time.perf_counter``
reading taken just before this process was started (the clock is
system-wide on Linux) and TRACE 1 to record every layer's spans. The
result goes to ``rep-<REPETITION>.json`` next to PLAN; the spans of a
traced repetition to ``spans-<REPETITION>.jsonl``.
"""

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

import tracing


def run_commands(plan, rep, tracer):
    from minidl import cli

    out = os.path.join(plan["work"], "rep-%d" % rep)
    seed = str(plan["seed"] * 1000 + rep)
    statuses = []
    for argv in plan["commands"]:
        argv = [a.format(out=out, seed=seed) for a in argv]
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                code = tracer.span("cli." + argv[0], cli.main, (argv,), {})
        except SystemExit as e:
            code = 0 if e.code is None else e.code
        except Exception:
            code = traceback.format_exc(limit=4)
        statuses.append((argv[0], code, stdout.getvalue()))
    return out, statuses


def loss_log(plan, out):
    """Header and rows of the loss log the command wrote: losses.csv for
    the GAN, history.csv for a train command."""
    name = "losses.csv" if plan["workload"] == "gan" else "history.csv"
    with open(os.path.join(out, name)) as f:
        header = f.readline().strip().split(",")
        return header, [[float(v) for v in line.split(",")] for line in f if line.strip()]


def check_outputs(plan, out, statuses, seen):
    """One (name, ok, detail) tuple per check; each counts as one
    attempted operation."""
    import numpy as np
    from minidl import Rng, load_model

    checks = [("exit:" + name, code == 0, str(code)[-300:]) for name, code, _ in statuses]
    if any(code != 0 for _, code, _ in statuses):
        return checks
    expect = plan["expect"]
    task = plan["workload"]

    header, rows = loss_log(plan, out)
    cols = [j for j, h in enumerate(header) if h.endswith("loss")]
    checks.append(("losses_finite", all(math.isfinite(r[j]) for r in rows for j in cols),
                   "%d rows" % len(rows)))
    # the train command's "final: name=value ..." line
    final = {}
    for name, _, printed in statuses:
        for line in printed.splitlines():
            if name == "train" and line.startswith("final: "):
                final = {k: float(v) for k, v in (kv.split("=") for kv in line[7:].split())}
    if task == "cnn-image":
        acc = final["test_accuracy"]
        checks.append(("test_accuracy", acc >= expect["min_accuracy"], "%.4f" % acc))
    if task == "charlstm":
        ln_vocab = math.log(expect["vocab"])
        checks.append(("loss_below_ln_vocab", final["loss"] < ln_vocab,
                       "%.4f vs %.4f" % (final["loss"], ln_vocab)))
    for model, path in seen["saved"]:
        x = Rng(7).uniform((3,) + tuple(model.input_shape))
        same = np.array_equal(load_model(path).predict(x), model.predict(x))
        checks.append(("reload:" + os.path.basename(path), same, path))
    if task == "gan":
        checks.append(("gan_steps", len(rows) == expect["steps"],
                       "%d rows, %d expected" % (len(rows), expect["steps"])))
        lo = min((s[0] for s in seen["samples"]), default=float("nan"))
        hi = max((s[1] for s in seen["samples"]), default=float("nan"))
        checks.append(("samples_in_range",
                       len(seen["samples"]) == expect["sample_batches"] and -1.0 <= lo and hi <= 1.0,
                       "%d batches in [%g, %g]" % (len(seen["samples"]), lo, hi)))
    if task == "charlstm":
        with open(os.path.join(out, "generated.txt"), encoding="utf-8") as f:
            text = f.read()[:-1]
        with open(os.path.join(out, "vocab.json"), encoding="utf-8") as f:
            vocab = set(json.load(f)["chars"])
        checks.append(("generated_text",
                       len(text) == expect["length"] + 1 and set(text) <= vocab,
                       "%d characters" % len(text)))
    return checks


def final_loss(plan, out):
    """Mean training loss over the last epoch: the ``loss`` column of
    history.csv's last row, or the mean generator loss over the GAN's
    last epoch of rounds."""
    header, rows = loss_log(plan, out)
    if plan["workload"] == "gan":
        rounds = plan["expect"]["rounds_per_epoch"]
        return sum(r[header.index("g_loss")] for r in rows[-rounds:]) / rounds
    return rows[-1][header.index("loss")]


def main(argv):
    plan_path, rep, spawned, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    with open(plan_path) as f:
        plan = json.load(f)
    tracer = tracing.Tracer()
    seen = tracing.instrument(tracer, full=trace)
    out, statuses = run_commands(plan, rep, tracer)
    finished = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.enabled = False
    checks = check_outputs(plan, out, statuses, seen)
    result = {"rep": rep, "traced": trace, "checks": checks, "metrics": None}
    if all(ok for _, ok, _ in checks):
        metrics = tracing.end_to_end(tracer.spans, spawned, finished)
        metrics["peak_rss_mb"] = peak_rss_mb
        metrics["final_loss"] = final_loss(plan, out)
        result["metrics"] = metrics
        if trace:
            result["per_layer"] = tracing.per_layer(tracer.spans)
    if trace:
        run_id = "%s-seed%d-rep%d" % (plan["workload"], plan["seed"], rep)
        with open(os.path.join(plan["work"], "spans-%d.jsonl" % rep), "w") as f:
            for i, s in enumerate(tracer.spans):
                f.write(json.dumps({"run": run_id, "id": i, "name": s[0], "start": s[1],
                                    "end": s[2], "parent": s[3], "step": s[4], "info": s[5]}) + "\n")
    with open(os.path.join(plan["work"], "rep-%d.json" % rep), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
