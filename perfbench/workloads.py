"""The four workloads: seeded inputs, the timed operations, and the checks.

Each workload has
- ``setup(wr, seed)``: build the fields (with their tables), characters and
  seeded data; returns the list of operation items;
- ``timed_phase(wr, items, clock)``: every operation of the workload, each
  timed on its own;
- ``check(wr, items, outputs)``: compare the outputs against checks.py.

``wr`` is the imported ``wildram`` package.  The seed only chooses values
(character values and deformation data); the grid points are fixed, so the
amount of work in a round does not depend on the seed.
"""

import random

import checks

# (p, s, m) grid points; the field is the minimal host GF(p^s).
GROUP_LAW_POINTS = [
    (2, 1, 5), (2, 1, 19), (3, 1, 8), (3, 1, 20), (5, 1, 4), (5, 1, 19),
    (2, 2, 5), (2, 2, 19), (3, 2, 4), (3, 2, 20),
    (5, 2, 3), (5, 2, 4), (5, 2, 6), (5, 2, 8),
]
TANGENT_POINTS = [
    (2, 1, 3), (2, 1, 9), (2, 1, 19), (3, 1, 10), (5, 1, 9), (5, 1, 19),
    (2, 2, 3), (2, 2, 9), (2, 2, 19), (3, 2, 2), (3, 2, 10), (3, 2, 20),
    (5, 2, 2), (5, 2, 6), (5, 2, 19),
]
TANGENT_DATA_PER_POINT = 8
H1_POINTS = [
    (2, 1, 7), (2, 1, 19), (3, 1, 10), (5, 1, 7),
    (2, 2, 9), (2, 2, 19), (3, 2, 2), (3, 2, 10), (3, 2, 20),
    (5, 2, 3), (5, 2, 6),
]
# GF(p^d) hosting the points of the selftest sweep.
SELFTEST_FIELDS = [(p, d) for p in (2, 3, 5) for d in (1, 2)]


def group_law_precision(p, m):
    return 4 * (m + 1) * p


def tangent_ftilde_precision(m):
    return 16 * (m + 2)


def rng_for(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def independent_values(rng, p, s, d):
    """s coefficient vectors in F_p^d that are F_p-linearly independent,
    i.e. F_p-independent character values in GF(p^d)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(s)]
        if checks.rank_mod_p(rows, p) == s:
            return [tuple(r) for r in rows]


def seeded_character(wr, rng, p, s, m):
    """A character with seeded values over GF(p^s), its tables built, and
    the benchmark's own copy of the field."""
    field = wr.coeffring.make_field(p, s)
    field.tables()
    vals = independent_values(rng, p, s, s)
    ch = wr.autoreps.make_character(field, [list(v) for v in vals], m)
    return ch, checks.GF(p, field.modulus), vals


class Workload:
    """One ``op`` per item.  An operation that raises counts as failed; its
    output is None and the check skips it."""

    def timed_phase(self, wr, items, clock):
        outputs, op_s, failed = [], [], 0
        for item in items:
            t0 = clock()
            try:
                out = self.op(wr, item)
            except Exception as e:  # counted and reported; the round goes on
                out = None
                failed += 1
                print("operation failed at %r: %s: %s"
                      % (item.get("pt"), type(e).__name__, e))
            op_s.append(clock() - t0)
            outputs.append(out)
        return {"outputs": outputs, "op_s": op_s, "failed": failed,
                "attempted": len(items), "task_s": {}}

    def check(self, wr, items, outputs):
        errors = []
        for item, out in zip(items, outputs):
            if out is not None:
                errors += self.check_one(wr, item, out)
        return errors


class GroupLaw(Workload):
    name = "group_law"

    def setup(self, wr, seed):
        rng = rng_for(self.name, seed)
        items = []
        for p, s, m in GROUP_LAW_POINTS:
            ch, gf, vals = seeded_character(wr, rng, p, s, m)
            items.append({"pt": (p, s, m), "ch": ch, "gf": gf, "vals": vals,
                          "prec": group_law_precision(p, m)})
        return items

    def op(self, wr, item):
        res = wr.autoreps.verify_group_law(item["ch"], item["prec"])
        return {"ok": res["ok"], "pairs_checked": res["pairs_checked"]}

    def check_one(self, wr, item, out):
        p, s, m = item["pt"]
        errors = checks.check_group_law(out, p, s)
        # The generators' rho, as the law check built them: a cache hit,
        # outside the timed phase.
        ch = item["ch"]
        for i, c in enumerate(item["vals"], 1):
            rho = wr.autoreps.build_rho(ch, ch.generator(i), item["prec"])
            errors += checks.check_rho(rho.coeffs, rho.prec, item["gf"], m, c,
                                       item["prec"])
        return errors


class Tangent(Workload):
    name = "tangent"

    def setup(self, wr, seed):
        rng = rng_for(self.name, seed)
        items = []
        for p, s, m in TANGENT_POINTS:
            ch, gf, vals = seeded_character(wr, rng, p, s, m)
            q = p ** s
            for _ in range(TANGENT_DATA_PER_POINT):
                # lambda1(sigma_i) = t c(sigma_i): the commuting-relation shape
                t = gf.vec(rng.randrange(q))
                lam1 = [gf.mul(t, v) for v in vals]
                delta = [gf.vec(rng.randrange(q)) for _ in range(s)]
                a1 = [gf.vec(rng.randrange(q)) for _ in range(m)]
                datum = wr.deform.DeformationDatum(
                    ch, *(tuple(ch.field.from_raw(gf.idx(x)) for x in xs)
                          for xs in (lam1, delta, a1)))
                items.append({"pt": (p, s, m), "datum": datum, "gf": gf,
                              "vals": vals, "lam1": lam1, "a1": a1})
        return items

    def op(self, wr, item):
        datum = item["datum"]
        ftilde = datum.ftilde(tangent_ftilde_precision(datum.ch.m))
        coc = wr.deform.tangent_cocycle_extract(datum.matrix_rep(), ftilde)
        return [[c.idx for c in v.coeffs] for v in coc.vals]

    def check_one(self, wr, item, out):
        return checks.check_tangent(out, item["gf"], item["pt"][2],
                                    item["lam1"], item["a1"], item["vals"])


class H1Grid(Workload):
    name = "h1_grid"

    def setup(self, wr, seed):
        rng = rng_for(self.name, seed)
        items = []
        for p, s, m in H1_POINTS:
            ch, _, _ = seeded_character(wr, rng, p, s, m)
            items.append({"pt": (p, s, m), "ch": ch})
        return items

    def op(self, wr, item):
        res = wr.cohomology.h1_brute_force(item["ch"])
        return {"dim": res["dim"], "basis": len(res["basis"])}

    def check_one(self, wr, item, out):
        return checks.check_h1(out["dim"], out["basis"], *item["pt"])


class Selftest(Workload):
    """One serial ``cli.selftest()``.  Its operations are the ``cli.run``
    calls of the sweep, timed through a wrapper on ``cli.run``.  The sweep
    is the program's own fixed grid: the seed does not change the inputs."""

    name = "selftest"

    def setup(self, wr, seed):
        for p, d in SELFTEST_FIELDS:
            wr.coeffring.make_field(p, d).tables()
        return [{"npoints": len(wr.cli.selftest_grid())}]

    def timed_phase(self, wr, items, clock):
        cli = wr.cli
        original = cli.run
        op_s, raw = [], []

        def run(config_data, parallel=False):
            t0 = clock()
            try:
                report = original(config_data, parallel)
            finally:
                op_s.append(clock() - t0)
            raw.append(report)
            return report

        npoints = items[0]["npoints"]
        cli.run = run
        try:
            report = cli.selftest()
        except Exception as e:  # the points not completed count as failed
            print("selftest failed: %s: %s" % (type(e).__name__, e))
            report = None
        finally:
            cli.run = original
        task_s = {}
        for point in raw:
            for task in point["tasks"]:
                task_s[task["name"]] = (task_s.get(task["name"], 0.0)
                                        + task["timing"]["seconds"])
        return {"outputs": [report], "op_s": op_s,
                "failed": npoints - len(raw) if report is None else 0,
                "attempted": npoints, "task_s": task_s}

    def check_one(self, wr, item, out):
        return checks.check_selftest(out, item["npoints"])


WORKLOADS = {w.name: w for w in (GroupLaw(), Tangent(), H1Grid(), Selftest())}
