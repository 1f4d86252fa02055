"""Tests of the benchmark's own code: each check accepts the program's
correct output and rejects a deliberately wrong one, and the tracer sees
calls made through names bound in other modules.

    python3 perfbench/test_checks.py      (or pytest perfbench)
"""

import copy
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import wildram  # noqa: E402
import wildram.cli  # noqa: E402


def flip(gf, idx):
    """A different raw field element."""
    return gf.idx(gf.add(gf.vec(idx), gf.scalar(1)))


class FieldArithmetic(unittest.TestCase):
    def test_gf4(self):
        gf = checks.GF(2, (1, 1, 1))  # x^2 + x + 1
        x = (0, 1)
        self.assertEqual(gf.mul(x, x), (1, 1))
        self.assertEqual(gf.mul(x, gf.mul(x, x)), (1, 0))

    def test_matches_program_tables(self):
        for p, d in [(2, 2), (3, 2), (5, 2), (5, 1)]:
            field = wildram.coeffring.make_field(p, d)
            gf = checks.GF(p, field.modulus)
            mul = field.tables()[1]
            for a in range(field.q):
                for b in range(field.q):
                    self.assertEqual(gf.idx(gf.mul(gf.vec(a), gf.vec(b))), mul[a][b])

    def test_rank(self):
        self.assertEqual(checks.rank_mod_p([[1, 2], [3, 1]], 5), 1)
        self.assertEqual(checks.rank_mod_p([[1, 2], [3, 1]], 3), 2)


class GroupLawChecks(unittest.TestCase):
    def setUp(self):
        rng = random.Random(5)
        self.ch, self.gf, self.vals = workloads.seeded_character(wildram, rng, 3, 2, 4)
        self.prec = workloads.group_law_precision(3, 4)

    def test_group_law_result(self):
        res = wildram.autoreps.verify_group_law(self.ch, self.prec)
        self.assertEqual(checks.check_group_law(res, 3, 2), [])
        self.assertTrue(checks.check_group_law(dict(res, ok=False), 3, 2))
        self.assertTrue(checks.check_group_law(
            dict(res, pairs_checked=res["pairs_checked"] - 1), 3, 2))

    def test_rho_closed_series(self):
        for i, c in enumerate(self.vals, 1):
            rho = wildram.autoreps.build_rho(self.ch, self.ch.generator(i), self.prec)
            args = (self.gf, 4, c, self.prec)
            self.assertEqual(checks.check_rho(rho.coeffs, rho.prec, *args), [])
            e = max(rho.coeffs)
            wrong = dict(rho.coeffs)
            wrong[e] = flip(self.gf, wrong[e])
            self.assertTrue(checks.check_rho(wrong, rho.prec, *args))
            dropped = {k: v for k, v in rho.coeffs.items() if k != e}
            self.assertTrue(checks.check_rho(dropped, rho.prec, *args))
            self.assertTrue(checks.check_rho(rho.coeffs, rho.prec - 1, *args))
            # the other generator's series is not this one's
            other = self.vals[2 - i]
            self.assertTrue(checks.check_rho(rho.coeffs, rho.prec, self.gf, 4,
                                             other, self.prec))


class TangentChecks(unittest.TestCase):
    def test_extraction_against_formula(self):
        items = workloads.Tangent().setup(wildram, 11)
        wl = workloads.Tangent()
        for item in [items[0], items[8 * 9]]:  # (2,1,3) and (3,2,2)
            out = wl.op(wildram, item)
            self.assertEqual(wl.check_one(wildram, item, out), [])
            wrong = copy.deepcopy(out)
            j = next(k for k, x in enumerate(wrong[0]) if x)
            wrong[0][j] = flip(item["gf"], wrong[0][j])
            self.assertTrue(wl.check_one(wildram, item, wrong))
            self.assertTrue(wl.check_one(wildram, item, out[:-1] + [[0] * len(out[0])]))
            # change a1[mu] where its factor (2m - mu)/m^2 is nonzero mod p
            p, _, m = item["pt"]
            mu = next(mu for mu in range(m) if (2 * m - mu) % p)
            a1 = list(item["a1"])
            a1[mu] = item["gf"].add(a1[mu], item["gf"].scalar(1))
            self.assertTrue(checks.check_tangent(out, item["gf"], item["pt"][2],
                                                 item["lam1"], a1, item["vals"]))


class H1Checks(unittest.TestCase):
    def test_formula(self):
        self.assertEqual(checks.h1_dim(3, 2, 2), 3)
        for p, s, m in [(2, 1, 3), (3, 2, 2), (5, 2, 6), (2, 2, 19)]:
            self.assertEqual(checks.h1_dim(p, s, m),
                             wildram.cohomology.h1_closed_formula(p, s, m))

    def test_program_output(self):
        item = workloads.H1Grid().setup(wildram, 2)[6]
        self.assertEqual(item["pt"], (3, 2, 2))
        out = workloads.H1Grid().op(wildram, item)
        self.assertEqual(out["dim"], 3)
        self.assertEqual(checks.check_h1(out["dim"], out["basis"], 3, 2, 2), [])
        self.assertTrue(checks.check_h1(4, 4, 3, 2, 2))
        self.assertTrue(checks.check_h1(3, 2, 3, 2, 2))


class SelftestChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cfg = next(c for c in wildram.cli.selftest_grid()
                   if c["field"]["p"] == 3 and c["character"]["s"] == 2)
        cls.point = wildram.cli.strip_timing(wildram.cli.run(cfg))
        cls.m = cfg["character"]["m"]

    def test_correct_point(self):
        self.assertEqual(checks.check_selftest_point(self.point), [])

    def mutated(self, task, key, value):
        point = copy.deepcopy(self.point)
        t = next(t for t in point["tasks"] if t["name"] == task)
        t["results"][key] = value
        return point

    def test_rejects_wrong_outputs(self):
        m = self.m
        for task, key, value in [
                ("rho", "breaks", [m + 1] * 7 + [m + 2]),
                ("rho", "breaks", [m + 1] * 7),
                ("rho", "artin_identity", 8 * (m + 1) + 1),
                ("ascover", "conductor", m + 1),
                ("cohomology", "h1_dim", checks.h1_dim(3, 2, m) + 1)]:
            self.assertTrue(checks.check_selftest_point(self.mutated(task, key, value)),
                            (task, key, value))
        point = copy.deepcopy(self.point)
        point["tasks"][0]["ok"] = False
        self.assertTrue(checks.check_selftest_point(point))
        point = copy.deepcopy(self.point)
        point["tasks"].pop()
        self.assertTrue(checks.check_selftest_point(point))

    def test_report(self):
        report = {"ok": True, "points": [self.point]}
        self.assertEqual(checks.check_selftest(report, 1), [])
        self.assertTrue(checks.check_selftest(dict(report, ok=False), 1))
        self.assertTrue(checks.check_selftest(report, 2))


class Tracing(unittest.TestCase):
    def test_spans_catch_calls_through_bound_names(self):
        tracer = spans.Tracer()
        compose = wildram.series.compose
        tracer.install(wildram)
        try:
            self.assertIsNot(wildram.autoreps.compose, compose)
            self.assertIsNot(wildram.deform.compose, compose)
            rng = random.Random(1)
            ch, _, _ = workloads.seeded_character(wildram, rng, 2, 2, 3)
            wildram.autoreps.verify_group_law(ch, 12)
            wildram.cohomology.h1_brute_force(ch)
        finally:
            tracer.uninstall()
        self.assertIs(wildram.autoreps.compose, compose)
        self.assertIs(wildram.series.compose, compose)
        got = tracer.metrics()
        self.assertEqual(set(got), set(spans.layer_metric_names()))
        self.assertGreater(got["series.compose.calls"], 0)
        self.assertGreater(got["series.mul.pairs"], got["series.mul.calls"])
        self.assertGreater(got["autoreps.build_rho.repeat_ratio"], 0)
        self.assertGreater(got["cohomology.component_action_matrix.calls"], 0)
        self.assertGreater(got["linalg.rref.cells"], 0)
        for (_, name), (n, total, own) in tracer.edges.items():
            self.assertLessEqual(own, total + 1e-9, name)


if __name__ == "__main__":
    unittest.main()
