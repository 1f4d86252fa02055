"""Spans around the calls into each wildram module, installed from outside.

The tracer replaces selected functions and methods by timing wrappers.  A
module-level function is replaced under every name that refers to it in
any wildram module, because modules call each other through names bound at
import (autoreps calls ``compose`` through its own ``compose``).  Spans nest
on a stack; a span's self time is its duration minus the durations of its
child spans.  Spans are aggregated in memory per (parent name, name) edge,
which keeps the span that caused each call without storing millions of
records; the aggregate is written out with the round's raw result.
"""

import functools
import time

# (module, attribute path, span name).  The per-layer metrics are read off
# these names; see LAYER_METRICS.
TARGETS = [
    ("series", "LaurentSeries.__mul__", "series.mul"),
    ("series", "LaurentSeries.__init__", "series.new"),
    ("series", "compose", "series.compose"),
    ("series", "invert_unit_series", "series.invert"),
    ("series", "revert", "series.revert"),
    ("autoreps", "build_rho", "autoreps.build_rho"),
    ("deform", "deformed_rho", "deform.deformed_rho"),
    ("deform", "tangent_cocycle_extract", "deform.extract"),
    ("deform", "obstruction_two_cocycle", "deform.obstruction"),
    ("cohomology", "component_action_matrix", "cohomology.component_action_matrix"),
    ("cohomology", "h1_brute_force", "cohomology.h1"),
    ("cohomology", "action_matrix", "cohomology.action_matrix"),
    ("cohomology", "h2_brute_force", "cohomology.h2"),
    ("cohomology", "H2Engine.__init__", "cohomology.h2"),
    ("cohomology", "H2Engine.is_coboundary", "cohomology.h2"),
    ("cohomology", "H2Engine.z2_dimension", "cohomology.h2"),
    ("cohomology", "H2Engine.d1_of", "cohomology.h2"),
    ("linalg", "rref", "linalg.rref"),
    ("addpoly", "moore_det", "addpoly.moore_det"),
]

MODULES = ("coeffring", "series", "linalg", "addpoly", "autoreps",
           "cohomology", "ascover", "deform", "cli")

# metric name -> (kind, span name or counter); kinds: calls, self_s, counter,
# ratio.  The cli.task.* metrics come from the selftest report itself.
LAYER_METRICS = {
    "series.mul.calls": ("calls", "series.mul"),
    "series.mul.pairs": ("counter", "series.mul.pairs"),
    "series.mul.self_s": ("self_s", "series.mul"),
    "series.compose.calls": ("calls", "series.compose"),
    "series.compose.self_s": ("self_s", "series.compose"),
    "series.invert.calls": ("calls", "series.invert"),
    "series.invert.self_s": ("self_s", "series.invert"),
    "series.revert.calls": ("calls", "series.revert"),
    "series.revert.self_s": ("self_s", "series.revert"),
    "series.new.calls": ("calls", "series.new"),
    "series.new.self_s": ("self_s", "series.new"),
    "autoreps.build_rho.calls": ("calls", "autoreps.build_rho"),
    "autoreps.build_rho.repeat_ratio": ("ratio", "autoreps.build_rho"),
    "autoreps.build_rho.self_s": ("self_s", "autoreps.build_rho"),
    "deform.deformed_rho.calls": ("calls", "deform.deformed_rho"),
    "deform.deformed_rho.self_s": ("self_s", "deform.deformed_rho"),
    "deform.extract.self_s": ("self_s", "deform.extract"),
    "deform.obstruction.self_s": ("self_s", "deform.obstruction"),
    "cohomology.component_action_matrix.calls":
        ("calls", "cohomology.component_action_matrix"),
    "cohomology.component_action_matrix.self_s":
        ("self_s", "cohomology.component_action_matrix"),
    "cohomology.h1.self_s": ("self_s", "cohomology.h1"),
    "cohomology.action_matrix.calls": ("calls", "cohomology.action_matrix"),
    "cohomology.action_matrix.self_s": ("self_s", "cohomology.action_matrix"),
    "cohomology.h2.self_s": ("self_s", "cohomology.h2"),
    "linalg.rref.calls": ("calls", "linalg.rref"),
    "linalg.rref.cells": ("counter", "linalg.rref.cells"),
    "linalg.rref.self_s": ("self_s", "linalg.rref"),
    "ascover.self_s": ("self_s", "ascover"),
    "addpoly.moore_det.calls": ("calls", "addpoly.moore_det"),
    "addpoly.moore_det.self_s": ("self_s", "addpoly.moore_det"),
    "coeffring.tables_s": ("self_s", "coeffring.tables"),
}

CLI_TASKS = ("rho", "cohomology", "ascover", "deform", "predicates")


class Tracer:
    def __init__(self):
        self.edges = {}      # (parent, name) -> [calls, total_s, self_s]
        self.counters = {}   # name -> int
        self.seen_rho = set()
        self.rho_repeats = 0
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    # -- spans ------------------------------------------------------------------

    def wrap(self, name, fn, before=None):
        stack, edges, perf = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else "op"
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = edges.get((parent, name))
                if rec is None:
                    rec = edges[(parent, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
        return span

    def _count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def _on_mul(self, args, kwargs):
        a, b = args
        self._count("series.mul.pairs", len(a.coeffs) * len(b.coeffs))

    def _on_rref(self, args, kwargs):
        rows = args[1]
        self._count("linalg.rref.cells", len(rows) * (len(rows[0]) if rows else 0))

    def _on_build_rho(self, args, kwargs):
        ch, g = args[0], args[1]
        prec = args[2] if len(args) > 2 else kwargs.get("prec")
        key = (ch, g.exps, prec)
        if key in self.seen_rho:
            self.rho_repeats += 1
        else:
            self.seen_rho.add(key)

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, package):
        """Wrap the targets in the wildram package (already imported)."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        hooks = {"series.mul": self._on_mul, "linalg.rref": self._on_rref,
                 "autoreps.build_rho": self._on_build_rho}
        for modname, path, name in TARGETS:
            mod = getattr(package, modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, hooks.get(name)))
            else:
                original = getattr(mod, path)
                self._replace_everywhere(modules, original,
                                         self.wrap(name, original, hooks.get(name)))
        # every public function of ascover is one span, "ascover"
        mod = package.ascover
        for attr, value in list(vars(mod).items()):
            if (callable(value) and not attr.startswith("_")
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == mod.__name__):
                self._replace_everywhere(modules, value, self.wrap("ascover", value))
        self._wrap_tables(package.coeffring.FieldDescriptor)

    def _wrap_tables(self, cls):
        """Span only the lazy build; the built tables return at once."""
        original = vars(cls)["tables"]
        build = self.wrap("coeffring.tables", original)

        def tables(field):
            if field._tables is not None:
                return field._tables
            return build(field)
        self._patched.append((cls, "tables", original))
        cls.tables = tables

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, task_seconds=None):
        calls, self_s = {}, {}
        for (_, name), (n, _, own) in self.edges.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        out = {}
        for metric, (kind, key) in LAYER_METRICS.items():
            if kind == "calls":
                out[metric] = calls.get(key, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(key, 0.0)
            elif kind == "counter":
                out[metric] = self.counters.get(key, 0)
            else:
                n = calls.get(key, 0)
                out[metric] = self.rho_repeats / n if n else 0.0
        task_seconds = task_seconds or {}
        for task in CLI_TASKS:
            out["cli.task.%s_s" % task] = task_seconds.get(task, 0.0)
        return out

    def edge_list(self):
        return [{"parent": parent, "name": name, "calls": n,
                 "total_s": total, "self_s": own}
                for (parent, name), (n, total, own) in sorted(self.edges.items())]


def layer_metric_names():
    return list(LAYER_METRICS) + ["cli.task.%s_s" % t for t in CLI_TASKS]
