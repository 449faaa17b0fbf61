"""Spans and counts at weblin's layer boundaries, recorded from outside.

`Tracer.install()` replaces module attributes at the names the callers
look up (``invariants`` and ``calculus`` import ``evaluate`` by name, so
the wrapper goes on each importing module, not on ``weblin.expr``).  Each
span is (name, start, end, parent index, operation id), kept in memory and
written out by `dump`.  Hot leaf calls (the compiled grid functions and
``random_rational``) are counted, not spanned.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

from layers import BY_NAME, LIN, WORKLOADS as ALL

# (module, attribute, span name, workloads that must reach it)
SPANNED = (
    ("weblin.cli", "main", "cli.main", ALL),
    ("weblin.cli", "parse", "expr.parse", ALL),
    ("weblin.invariants", "evaluate", "expr.evaluate.invariant.exact", ALL),
    ("weblin.invariants", "evaluate_scaled", "expr.evaluate.invariant.float",
     ALL),
    ("weblin.calculus", "evaluate", "expr.evaluate.validation", ALL),
    ("weblin.invariants", "sample_points", "calculus.sample_points", ALL),
    ("weblin.invariants", "build_compatibility_pair", "invariants.build", ALL),
    ("weblin.invariants", "J_alpha", "invariants.build", ("corpus-warm",
                                                          "webs-fresh")),
    ("weblin.invariants", "zero_test", "invariants.zero_test", ALL),
    ("weblin.linearizer", "CoefficientGrid", "linearizer.coefficient_grid",
     LIN),
    ("weblin.linearizer", "integrate_lambda", "linearizer.integrate_lambda",
     LIN),
    ("weblin.linearizer", "flat_coordinates", "linearizer.flat_coordinates",
     LIN),
    ("weblin.linearizer", "flatness_residual", "linearizer.flatness_residual",
     LIN),
    ("weblin.linearizer", "straightness_report",
     "linearizer.straightness_report", LIN),
    ("weblin.linearizer", "render_svg", "linearizer.render_svg", LIN),
    ("weblin.linearizer", "trace_leaves", "linearizer.trace_leaves", LIN),
    ("weblin.linearizer", "grid_function", "expr.grid_function.compile", LIN),
)
COUNTED = (
    ("weblin.calculus", "random_rational", "calculus.random_rational", ALL),
)


class TraceIntegrityError(RuntimeError):
    """A wrapper never fired on a workload that must reach it."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self.accepted_points: set = set()
        self.grid_calls = [0, 0]
        self.ops: list[dict] = []   # per traced op: grid and report facts
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack
        on_result = _ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
            if on_result is not None:
                return on_result(self, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, wrap in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, attr, name, _ in table:
                mod = importlib.import_module(module)
                if not hasattr(mod, attr):
                    raise TraceIntegrityError(f"{module}.{attr} no longer exists")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrap(name, original))

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._saved):
            setattr(mod, attr, old)
        self._saved.clear()

    def run_op(self, op_id: int, fn):
        """Run one operation under an "op" span."""
        self.op_id = op_id
        return self._spanned("op", fn)()

    def note_op(self, op: dict, report: dict | None) -> None:
        facts = {"grid": op.get("grid"), "dag_nodes": 0, "skipped": 0}
        if report:
            facts["dag_nodes"] = sum(inv["dag_size"]
                                     for inv in report.get("invariants", []))
            lin = report.get("linearization") or {}
            facts["skipped"] = lin.get("skipped_leaves", 0)
        self.ops.append(facts)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "op"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- summarising -------------------------------------------------------

    def _by_name(self) -> dict[str, dict[str, float]]:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            a = agg[name]
            a["calls"] += 1
            a["busy"] += t1 - t0
            a["self"] += t1 - t0 - child[idx]
        return agg

    def check_integrity(self, workload: str) -> None:
        agg = self._by_name()
        silent = [f"{module}.{attr}" for module, attr, name, must in SPANNED
                  if workload in must and agg.get(name, {}).get("calls", 0) == 0]
        silent += [f"{module}.{attr}" for module, attr, name, must in COUNTED
                   if workload in must and self.counts[name] == 0]
        if silent:
            raise TraceIntegrityError(
                f"wrappers never fired on {workload}: {', '.join(silent)}")

    def layer_metrics(self, substeps: int) -> dict[str, float]:
        agg = self._by_name()
        n = max(1, len(self.ops))

        def calls(name):
            return agg.get(name, {}).get("calls", 0) / n

        def busy(*names):
            return sum(agg.get(nm, {}).get("busy", 0.0) for nm in names) / n

        def self_s(name):
            return agg.get(name, {}).get("self", 0.0) / n

        candidates = self.counts["calculus.random_rational"] / 2
        accepted = self.counts["calculus.accepted"]
        distinct = len(self.accepted_points)
        op_time = agg.get("op", {}).get("busy", 0.0)
        main = agg.get("cli.main", {"busy": 0.0, "self": 0.0})
        grids = [o["grid"] for o in self.ops if o["grid"]]
        out = {
            "cli.self_s": self_s("cli.main"),
            "expr.parse.calls": calls("expr.parse"),
            "expr.parse.busy_s": busy("expr.parse"),
            "expr.evaluate.invariant.exact.calls":
                calls("expr.evaluate.invariant.exact"),
            "expr.evaluate.invariant.float.calls":
                calls("expr.evaluate.invariant.float"),
            "expr.evaluate.invariant.busy_s":
                busy("expr.evaluate.invariant.exact",
                     "expr.evaluate.invariant.float"),
            "expr.evaluate.validation.calls": calls("expr.evaluate.validation"),
            "expr.evaluate.validation.busy_s": busy("expr.evaluate.validation"),
            "expr.grid_function.compiles": calls("expr.grid_function.compile"),
            "expr.grid_function.scalar_calls": self.grid_calls[0] / n,
            "expr.grid_function.array_calls": self.grid_calls[1] / n,
            "calculus.sample_points.calls": calls("calculus.sample_points"),
            "calculus.sample_points.busy_s": busy("calculus.sample_points"),
            "calculus.sample_points.self_s": self_s("calculus.sample_points"),
            "calculus.candidates": candidates / n,
            "calculus.accepted": accepted / n,
            "calculus.accept_ratio": accepted / candidates if candidates else 0.0,
            "calculus.validations_per_point":
                accepted / distinct if distinct else 0.0,
            "invariants.build.calls": calls("invariants.build"),
            "invariants.build.busy_s": busy("invariants.build"),
            "invariants.zero_test.calls": calls("invariants.zero_test"),
            "invariants.zero_test.busy_s": busy("invariants.zero_test"),
            "invariants.zero_test.self_s": self_s("invariants.zero_test"),
            "invariants.zero_test.points": self.counts["zero_test.points"] / n,
            "invariants.dag_nodes": sum(o["dag_nodes"] for o in self.ops) / n,
            "linearizer.coefficient_grid.builds":
                calls("linearizer.coefficient_grid"),
            "linearizer.coefficient_grid.busy_s":
                busy("linearizer.coefficient_grid"),
            "linearizer.integrate_lambda.self_s":
                self_s("linearizer.integrate_lambda"),
            "linearizer.flat_coordinates.self_s":
                self_s("linearizer.flat_coordinates"),
            "linearizer.flatness_residual.busy_s":
                busy("linearizer.flatness_residual"),
            "linearizer.rk4_substeps":
                sum(3 * substeps * (g * g - 1) for g in grids) / n,
            "linearizer.trace_leaves.calls": calls("linearizer.trace_leaves"),
            "linearizer.trace_leaves.busy_s": busy("linearizer.trace_leaves"),
            "linearizer.straightness_report.self_s":
                self_s("linearizer.straightness_report"),
            "linearizer.render_svg.self_s": self_s("linearizer.render_svg"),
            "linearizer.leaves.skipped":
                sum(o["skipped"] for o in self.ops) / n,
            "trace.coverage": (main["busy"] - main["self"]) / op_time
            if op_time else 0.0,
        }
        for verdict in ("ZERO", "NONZERO", "INCONCLUSIVE"):
            out[f"invariants.verdicts.{verdict}"] = \
                self.counts[f"zero_test.{verdict}"] / n
        return out


def _on_grid_function(tracer: Tracer, fn):
    tally = tracer.grid_calls  # [scalar calls, array calls]
    ndarray = np.ndarray

    def compiled(xg, yg):
        tally[isinstance(xg, ndarray) or isinstance(yg, ndarray)] += 1
        return fn(xg, yg)

    return compiled


def _on_sample_points(tracer: Tracer, points):
    tracer.counts["calculus.accepted"] += len(points)
    for pt in points:
        tracer.accepted_points.add(
            (tracer.op_id, pt.x, pt.y, tuple(sorted(pt.params.items()))))
    return points


def _on_zero_test(tracer: Tracer, result):
    verdict, evidence = result[0], result[1]
    tracer.counts[f"zero_test.{verdict}"] += 1
    tracer.counts["zero_test.points"] += len(evidence)
    return result


# what a spanned call's result goes through, by span name; the compiled grid
# function comes back wrapped so that its calls are counted
_ON_RESULT = {
    "expr.grid_function.compile": _on_grid_function,
    "calculus.sample_points": _on_sample_points,
    "invariants.zero_test": _on_zero_test,
}


def uncomputed_layers() -> set[str]:
    """Per-layer metrics of layers.py that nothing here computes."""
    return (set(BY_NAME) - set(Tracer().layer_metrics(2))
            - {"trace.overhead", "trace.base_ops_per_s"})
