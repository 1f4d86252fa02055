"""wildram benchmark: four cold-start workloads, each round in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                 # every workload, one after another

A run repeats whole rounds of the workload, each in a new interpreter
started by worker.py, until ``--seconds`` have passed (at least one round).
Before each untraced round it starts PROBES_PER_ROUND interpreters that only
set up, so that set-up is sampled across the whole run.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` the per-layer metrics
of spans.py (medians over the rounds).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  Raw round records,
with the span edges of a traced run, go to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "wildram")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import layer_metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PROBES_PER_ROUND = 2
RUN_LIMIT_S = 170.0  # a run ends well inside three minutes, or fails

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_median_ms": "ms",
              "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "pairs": "count", "cells": "count",
               "repeat_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, trace, deadline, setup_only=False):
    """Start worker.py in a new interpreter and return its JSON record."""
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("run exceeded its %d s limit" % RUN_LIMIT_S)
    spawned_at = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace),
           "--spawned-at", repr(spawned_at)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("round exceeded the run's %d s limit" % RUN_LIMIT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker failed (exit %d):\n%s%s"
                         % (proc.returncode, proc.stdout, proc.stderr))
    for line in lines[:-1]:
        print("  [%s] %s" % (workload, line))
    return json.loads(lines[-1])


def source_hash():
    """Hash of the program's sources: equal hashes must give equal outputs."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def check_recorded_digest(workload, seed, digest):
    """Compare the outputs' digest with earlier runs of the same sources,
    workload and seed in this checkout; record it if it is the first."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    key = "%s:%d:%s" % (workload, seed, source_hash())
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return True


def layer_unit(name):
    suffix = name.rsplit(".", 1)[-1]
    return LAYER_UNITS.get(suffix, "s")


def run_workload(workload, seed, seconds, trace):
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    rounds, probes = [], []
    while not rounds or time.perf_counter() - start < seconds:
        if not trace:
            probes += [spawn(workload, seed, trace, deadline, setup_only=True)
                       for _ in range(PROBES_PER_ROUND)]
        rounds.append(spawn(workload, seed, trace, deadline))

    errors = sorted({e for r in rounds for e in r["errors"]})
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        errors.append("outputs differ between rounds of one run")
    elif not check_recorded_digest(workload, seed, digests.pop()):
        errors.append("outputs differ from an earlier run of the same "
                      "sources and seed")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    if trace:
        print("[%s] traced wall_s %.4f s (median of %d rounds)" % (
            workload, statistics.median(r["wall_s"] for r in rounds), len(rounds)))
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": layer_unit(name)}
                   for name in layer_metric_names()}
    else:
        values = {
            "setup_s": statistics.median([r["setup_s"] for r in rounds + probes]),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            # On a shared host the speed drifts by tens of percent within
            # seconds, and interference only adds time: each operation's time
            # is its fastest repetition in the run, and the metric is the
            # median over operations.
            "op_median_ms": 1000 * statistics.median(
                min(ts) for ts in zip(*(r["op_s"] for r in rounds))),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    raw = os.path.join(OUT, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(raw, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "run_s": time.perf_counter() - start,
                   "rounds": rounds, "setup_probes": probes, "errors": errors,
                   "metrics": metrics}, fh, indent=1)
    for e in errors[:20]:
        print("CHECK FAILED [%s]: %s" % (workload, e))
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def summary_line(workload, result):
    parts = ["%s %.6g %s" % (k, v["value"], v["unit"])
             for k, v in result["metrics"].items()]
    return "%-10s correct=%s attempted=%d failed=%d  %s" % (
        workload, result["correct"], result["attempted"], result["failed"],
        "  ".join(parts))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the worker it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        sys.stderr.write("wildram sources not found at %s\n" % SRC)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print(summary_line(name, results[name]))
    except BenchError as e:
        sys.stderr.write("benchmark error: %s\n" % e)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
