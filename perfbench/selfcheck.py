"""Seconds-scale check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and
traced, and checks the result line against the contract: its keys, the
metric names and units BENCHMARK.json lists, and finite values (every
end-to-end value above zero). Then checks that run.py fails, without a
result line, in a directory that holds only BENCHMARK.json and the
benchmark's files. Exits 1 on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import run

TINY = {
    "cnn-image": {"train_rows": 64, "test_rows": 32, "epochs": 1, "min_accuracy": 0.0},
    "gan": {"rows": 128, "batch": 64, "epochs": 2},
    "charlstm": {"sequences": 8, "seq_length": 20, "units": 16, "batch": 4,
                 "epochs": 3, "length": 10},
}


def check(condition, message):
    if not condition:
        print("selfcheck: " + message, file=sys.stderr)
        sys.exit(1)


def check_line(line, specs, positive):
    check(set(line) == {"correct", "attempted", "failed", "metrics"}, "result keys %s" % sorted(line))
    check(line["correct"] is True and line["failed"] == 0, "failed checks: %s" % line)
    check(isinstance(line["attempted"], int) and line["attempted"] >= 1, "attempted %r" % line["attempted"])
    metrics = line["metrics"]
    check(set(metrics) == {m["name"] for m in specs},
          "metric names differ from BENCHMARK.json: %s" % sorted(set(metrics) ^ {m["name"] for m in specs}))
    for m in specs:
        value = metrics[m["name"]]
        check(set(value) == {"value", "unit"} and value["unit"] == m["unit"], "%s: %s" % (m["name"], value))
        number = value["value"]
        check(isinstance(number, (int, float)) and not isinstance(number, bool) and math.isfinite(number),
              "%s: %s" % (m["name"], value))
        check(not positive or number > 0, "%s is not above zero: %s" % (m["name"], value))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys %s" % sorted(spec))
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.SIZES), "workloads differ from run.SIZES")
    for workload in run.SIZES:
        for trace in (False, True):
            line, _ = run.run(workload, 0, 0.1, trace, sizes=TINY[workload], quiet=True)
            json.loads(json.dumps(line))
            check_line(line, spec["per_layer"] if trace else spec["end_to_end"], positive=not trace)
            print("ok %s trace=%d: %d checks" % (workload, trace, line["attempted"]))

    bare = os.path.join(run.ROOT, ".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py without the sources: exit %d, output %r" % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(bare)
    print("ok run.py fails without the sources: %s" % proc.stderr.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
