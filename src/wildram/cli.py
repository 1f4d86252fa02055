"""Batch front-end: JSON job in, deterministic JSON report out.

`wildram run --config job.json [--out report.json] [--golden path]
[--parallel]` executes the requested tasks; `wildram selftest [--out
report.json]` sweeps a fixed grid of configurations with every task
enabled.  Exit codes: 0 ok, 1 task failure (or golden mismatch), 2 invalid
configuration.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from . import ascover, cohomology, deform, linalg
from .autoreps import default_precision, make_character, ramification_data, verify_group_law
from .coeffring import make_artin_algebra, make_field
from .series import INF, LaurentSeries

SCHEMA = "wildram-report/1"
KNOWN_TASKS = ("rho", "cohomology", "ascover", "deform", "predicates")
# Resource caps on a job: the rho task builds series to `precision` terms,
# the conductor m stays below the cap (m + 2 <= MAX_PRECISION), and the
# deformation task, which works over F_q[eps]/eps^artin_order, builds at
# most the 5m + 1 terms of a sample's ftilde denominator
# (sample_ftilde_precision).
MAX_PRECISION = 1024
MAX_ARTIN_ORDER = 16
# Seeded first-order data the deform task extracts and checks per job.
DEFORM_SAMPLES = 5


class ConfigInvalid(ValueError):
    def __init__(self, pointer, message):
        self.pointer = pointer
        super().__init__("%s: %s" % (pointer, message))


class UnknownTask(ConfigInvalid):
    def __init__(self, pointer, name):
        super().__init__(pointer, "unknown task %r" % (name,))


class GoldenMissing(FileNotFoundError):
    pass


def _require(cond, pointer, message):
    if not cond:
        raise ConfigInvalid(pointer, message)


def parse_config(data):
    """Validate the job dict and build the working objects."""
    _require(isinstance(data, dict), "", "config must be an object")
    fld = data.get("field")
    _require(isinstance(fld, dict), "/field", "missing field description")
    p = fld.get("p")
    _require(isinstance(p, int) and p >= 2, "/field/p", "prime required")
    d = fld.get("d", 1)
    _require(isinstance(d, int) and d >= 1, "/field/d", "positive degree required")
    try:
        field = make_field(p, d, tuple(fld["modulus"]) if "modulus" in fld else None)
    except (TypeError, ValueError) as e:
        raise ConfigInvalid("/field", str(e))
    chd = data.get("character")
    _require(isinstance(chd, dict), "/character", "missing character")
    s = chd.get("s")
    m = chd.get("m")
    vals = chd.get("vals")
    _require(isinstance(s, int) and s >= 1, "/character/s", "positive rank required")
    _require(isinstance(m, int) and m >= 1, "/character/m", "positive conductor required")
    _require(m <= MAX_PRECISION - 2, "/character/m",
             "conductor %d above the limit %d" % (m, MAX_PRECISION - 2))
    _require(isinstance(vals, list) and len(vals) == s,
             "/character/vals", "need exactly s generator values")
    try:
        ch = make_character(field, vals, m)
    except (TypeError, ValueError) as e:
        raise ConfigInvalid("/character/vals", str(e))
    n = data.get("artin_order", 2)
    _require(isinstance(n, int) and n >= 1, "/artin_order", "positive order required")
    _require(n <= MAX_ARTIN_ORDER, "/artin_order",
             "order %d above the limit %d" % (n, MAX_ARTIN_ORDER))
    prec = data.get("precision", default_precision(p, m))
    _require(isinstance(prec, int) and prec > m + 1, "/precision", "too small")
    seed = data.get("seed", 0)
    _require(isinstance(seed, int), "/seed", "integer required")
    tasks = data.get("tasks", [])
    _require(isinstance(tasks, list), "/tasks", "task list required")
    parsed = []
    for i, t in enumerate(tasks):
        if isinstance(t, str):
            t = {"name": t}
        _require(isinstance(t, dict) and "name" in t,
                 "/tasks/%d" % i, "task record with a name required")
        if t["name"] not in KNOWN_TASKS:
            raise UnknownTask("/tasks/%d/name" % i, t["name"])
        parsed.append(t)
    # only the rho task reads the precision: a given one is always held to
    # the cap, the default 4(m + 1)p only when rho runs
    _require(prec <= MAX_PRECISION or ("precision" not in data
                                       and all(t["name"] != "rho" for t in parsed)),
             "/precision", "precision %d above the limit %d" % (prec, MAX_PRECISION))
    longest = sample_ftilde_precision(m) + 2 * m
    _require(all(t["name"] != "deform" for t in parsed)
             or longest <= MAX_PRECISION, "/character/m",
             "the deform task builds series to %d terms, above the limit %d"
             % (longest, MAX_PRECISION))
    return {"field": field, "ch": ch, "artin_order": n,
            "precision": prec, "seed": seed, "tasks": parsed}


def task_rho(job):
    ch = job["ch"]
    prec = job["precision"]
    law = verify_group_law(ch, prec)
    ram = ramification_data(ch, prec)
    return {
        "defining_equation_ok": ram["equation_ok"],
        "group_law_ok": law["ok"],
        "group_law_pairs": law["pairs_checked"],
        "breaks": sorted(ram["i"].values()),
        "uniform_break": ram["uniform_break"],
        "artin_identity": ram["ar_identity"],
        "ok": ram["equation_ok"] and law["ok"] and ram["uniform_break"],
    }


def task_cohomology(job):
    ch = job["ch"]
    p, s, m = ch.p, ch.s, ch.m
    bf = cohomology.h1_brute_force(ch)
    formula = cohomology.h1_closed_formula(p, s, m)
    out = {
        "h1_dim": bf["dim"],
        "h1_formula": formula,
        "split_condition": cohomology.split_condition(p, s, m),
        "krull_dimension": cohomology.krull_dimension_sigma(p, m),
        "ok": bf["dim"] == formula,
    }
    if s == 1:
        basis = cohomology.h1_basis_cyclic(ch)
        vecs = [cohomology.cocycle_class_vector(ch, c) for _, c in basis]
        out["basis_rank"] = linalg.rank(ch.field, vecs) if vecs else 0
        out["ok"] = out["ok"] and out["basis_rank"] == bf["dim"]
    out["h2_dim"] = cohomology.h2_brute_force(ch)["dim"]
    return out


def task_ascover(job):
    ch = job["ch"]
    germ = ascover.germ_model(ch)
    down = ascover.downstairs_model(ch)
    cls = ascover.class_reduce(down["cover"].rhs, ch.s)
    cond = ascover.conductor(cls)
    wit = ascover.reduction_witness_valid(down["cover"].rhs, cls)
    return {
        "u": down["u"].to_pairs(),
        "u1": down["u1"].to_pairs(),
        "germ": germ.rhs.to_dict(),
        "conductor": cond,
        "witness_ok": wit,
        "ok": cond == ch.m and wit,
    }


def _random_datum(ch, rng):
    """Seeded first-order datum with the commuting-relation shape
    lambda1(sigma_i) = t * c(sigma_i)."""
    field = ch.field
    q = field.p ** field.d
    mul = field.tables()[1]
    t_raw = rng.randrange(q)
    lam1 = [field.from_raw(mul[t_raw][c.raw]) for c in ch.vals]
    delta = [field.from_raw(rng.randrange(q)) for _ in range(ch.s)]
    a1 = [field.from_raw(rng.randrange(q)) for _ in range(ch.m)]
    return deform.DeformationDatum(ch, tuple(lam1), tuple(delta), tuple(a1))


def sample_ftilde_precision(m):
    """ftilde(P) is known to t^(P - 2(m - mu)) when the divisor moves at
    t^mu, and the extraction needs it to t^(m + 1 - mu): P = 3m + 1.  Its
    denominator, to t^(P + 2m), is the longest series of the deform task;
    the solves start at most at 3m + 2."""
    return 3 * m + 1


def task_deform(job):
    ch = job["ch"]
    rng = random.Random(job["seed"])
    matches = 0
    valid = 0
    for _ in range(DEFORM_SAMPLES):
        datum = _random_datum(ch, rng)
        rep = datum.matrix_rep()
        if deform.rep_validate(rep)["valid"]:
            valid += 1
        coc = deform.tangent_cocycle_extract(
            rep, datum.ftilde(sample_ftilde_precision(ch.m)))
        if coc == deform.cocycle_formula_cochain(datum):
            matches += 1
    A = make_artin_algebra(ch.field, job["artin_order"])
    rep0 = deform.trivial_rep(A, ch)
    # ft0 = t^-m is exact, and the lifts are rho_i itself, of lead 1, so
    # composing them keeps the t^(m+2) that the defects are read to
    ft0 = LaurentSeries.t_power(A, -ch.m, INF)
    lifts = {i: deform.deformed_rho(rep0, ft0, ch.generator(i), ch.m + 2)
             for i in range(1, ch.s + 1)}
    obs = deform.obstruction_two_cocycle(rep0, lifts)
    return {"samples": DEFORM_SAMPLES, "formula_matches": matches,
            "valid_reps": valid, "obstruction_zero": obs["identically_zero"],
            "obstruction_coboundary": obs["vanishes_in_H2"],
            "ok": matches == DEFORM_SAMPLES and obs["identically_zero"]}


def task_predicates(job):
    ch = job["ch"]
    flags = deform.lifting_predicates(ch.p, ch.s, ch.m)
    return dict(flags, ok=True)


_RUNNERS = {
    "rho": task_rho,
    "cohomology": task_cohomology,
    "ascover": task_ascover,
    "deform": task_deform,
    "predicates": task_predicates,
}


def _run_task(job, t):
    t0 = time.time()
    entry = {"name": t["name"]}
    try:
        res = _RUNNERS[t["name"]](job)
        entry["results"] = res
        entry["ok"] = bool(res.get("ok", True))
    except Exception as e:
        entry["ok"] = False
        entry["error"] = "%s: %s" % (type(e).__name__, e)
    entry["timing"] = {"seconds": round(time.time() - t0, 6)}
    return entry


def run(config_data, parallel=False):
    """Execute the job; a task that raises is marked failed, the run goes on."""
    job = parse_config(config_data)
    start = time.time()
    if parallel and len(job["tasks"]) > 1:
        # imported only here, so that a serial run does not load the pool
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor() as ex:
            results = list(ex.map(lambda t: _run_task(job, t), job["tasks"]))
    else:
        results = [_run_task(job, t) for t in job["tasks"]]
    passed = sum(1 for r in results if r["ok"])
    return {
        "schema": SCHEMA,
        "config": config_data,
        "tasks": results,
        "summary": {"passed": passed, "failed": len(results) - passed,
                    "ok": passed == len(results)},
        "timing": {"total_seconds": round(time.time() - start, 6)},
    }


def strip_timing(node):
    """Deep copy without any key named 'timing'."""
    if isinstance(node, dict):
        return {k: strip_timing(v) for k, v in sorted(node.items())
                if k != "timing"}
    if isinstance(node, list):
        return [strip_timing(v) for v in node]
    return node


def _diff(a, b, pointer, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                out.append({"path": "%s/%s" % (pointer, k), "change": "added"})
            elif k not in b:
                out.append({"path": "%s/%s" % (pointer, k), "change": "removed"})
            else:
                _diff(a[k], b[k], "%s/%s" % (pointer, k), out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append({"path": pointer, "change": "length %d != %d" % (len(a), len(b))})
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                _diff(x, y, "%s/%d" % (pointer, i), out)
    elif a != b:
        out.append({"path": pointer, "change": "%r != %r" % (a, b)})


def compare_golden(report, golden_path):
    """Structural diff against a stored report, timing excluded."""
    try:
        with open(golden_path) as fh:
            golden = json.load(fh)
    except FileNotFoundError:
        raise GoldenMissing(golden_path)
    report = json.loads(json.dumps(report))  # canonical JSON types
    out = []
    _diff(strip_timing(golden), strip_timing(report), "", out)
    return out


# -- selftest grid -------------------------------------------------------------

def selftest_grid():
    """Fixed sweep: minimal fields hosting each (p, s) with small conductors."""
    points = []
    for p in (2, 3, 5):
        for s in (1, 2):
            d = s
            if s == 1:
                ms = [m for m in range(1, 8) if m % p][:3]
            else:
                ms = [m for m in range(2, 8) if m % p][:2]
            for m in ms:
                vals = [[1 if j == i else 0 for j in range(d)] for i in range(s)]
                points.append({
                    "field": {"p": p, "d": d},
                    "character": {"s": s, "m": m, "vals": vals},
                    "seed": 7,
                    "tasks": list(KNOWN_TASKS),
                })
    return points


def selftest():
    reports = [run(cfg) for cfg in selftest_grid()]
    ok = all(r["summary"]["ok"] for r in reports)
    return {
        "schema": "wildram-selftest/1",
        "points": [strip_timing(r) for r in reports],
        "ok": ok,
    }


# -- entry point ---------------------------------------------------------------

def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def main(argv=None):
    ap = argparse.ArgumentParser(prog="wildram")
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("run", help="execute a JSON job")
    rp.add_argument("--config", required=True)
    rp.add_argument("--out")
    rp.add_argument("--golden")
    rp.add_argument("--parallel", action="store_true")
    sp = sub.add_parser("selftest", help="run the fixed acceptance sweep")
    sp.add_argument("--out")
    args = ap.parse_args(argv)

    if args.cmd == "selftest":
        report = selftest()
        text = _dump(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0 if report["ok"] else 1

    try:
        with open(args.config) as fh:
            config_data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write("config error: %s\n" % e)
        return 2
    try:
        report = run(config_data, parallel=args.parallel)
    except ConfigInvalid as e:
        sys.stderr.write("config error at %s\n" % e)
        return 2
    code = 0 if report["summary"]["ok"] else 1
    if args.golden:
        try:
            diff = compare_golden(report, args.golden)
        except GoldenMissing:
            sys.stderr.write("golden file missing: %s\n" % args.golden)
            return 2
        report["golden_diff"] = diff
        if diff:
            code = 1
    text = _dump(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
