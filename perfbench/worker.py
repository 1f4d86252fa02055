"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --spawned-at T [--setup-only]

Imports wildram from the checkout's ``src``, sets up the seeded inputs,
runs the timed phase, checks the outputs and prints one JSON line.  T is
the parent's ``time.perf_counter()`` just before it started this process;
``perf_counter`` reads the system-wide monotonic clock, so ``ready - T`` is
the set-up time from process start to ready.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_wildram():
    sys.path.insert(0, SRC)
    import wildram
    import wildram.cli  # noqa: F401  (cli is not imported by the package)
    where = os.path.dirname(os.path.abspath(wildram.__file__))
    if where != os.path.join(SRC, "wildram"):
        raise ImportError("wildram imported from %s, not from %s" % (where, SRC))
    return wildram


def digest(outputs):
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    clock = time.perf_counter
    wr = import_wildram()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(wr)
    items = wl.setup(wr, args.seed)
    setup_s = clock() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    t0 = clock()
    res = wl.timed_phase(wr, items, clock)
    wall_s = clock() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    errors = wl.check(wr, items, res["outputs"])
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": res["op_s"],
        "peak_rss_mb": peak_rss_mb,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "errors": errors,
        "digest": digest(res["outputs"]),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(res["task_s"])
        out["edges"] = tracer.edge_list()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
