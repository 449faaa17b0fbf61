"""Per-layer metrics of the traced run, with the prediction each one makes.

Every entry names a metric the traced run reports, its unit, which way is
better, and the design prediction behind it: which end-to-end metric the
layer should move, on which workload, and on which workloads the prediction
is no change.  Later performance changes cite these names.  `run.py` refuses
to start when the `per_layer` list of BENCHMARK.json drifts from this table.

Counts and seconds are per timed operation of the traced run ("count/op",
"s/op"), so runs that complete different numbers of operations compare.
"""
from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("corpus-warm", "webs-fresh", "linearize")
VERDICT = ("corpus-warm", "webs-fresh")
LIN = ("linearize",)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    what: str
    moves: tuple[str, ...] = ()
    on: tuple[str, ...] = ()
    not_on: tuple[str, ...] = ()


def _group(names, unit, better, what, moves, on, not_on):
    return [Layer(n, unit, better, what, moves, on, not_on) for n in names]


P50 = ("latency_p50_s",)
P50_TPUT = ("latency_p50_s", "throughput_ops_per_s")

LAYERS: tuple[Layer, ...] = tuple([
    Layer("cli.self_s", "s/op", "lower",
          "cli.main minus its child spans: argparse, web build, JSON report",
          P50, ("corpus-warm",), ()),
    *_group(["expr.parse.calls"], "count/op", "lower",
            "calls of weblin.cli.parse", P50, ("webs-fresh",), LIN),
    *_group(["expr.parse.busy_s"], "s/op", "lower",
            "time inside weblin.cli.parse", P50, ("webs-fresh",), LIN),
    *_group(["expr.evaluate.invariant.exact.calls",
             "expr.evaluate.invariant.float.calls"], "count/op", "lower",
            "weblin.invariants.evaluate (exact) and evaluate_scaled (float)",
            P50_TPUT, VERDICT, LIN),
    Layer("expr.evaluate.invariant.busy_s", "s/op", "lower",
          "time inside both invariant evaluators", P50_TPUT, VERDICT, LIN),
    Layer("expr.evaluate.validation.calls", "count/op", "lower",
          "calls of weblin.calculus.evaluate (sample validation)",
          P50_TPUT, ("corpus-warm",), LIN),
    Layer("expr.evaluate.validation.busy_s", "s/op", "lower",
          "time inside weblin.calculus.evaluate",
          P50_TPUT, ("corpus-warm",), LIN),
    Layer("expr.grid_function.compiles", "count/op", "lower",
          "calls of weblin.linearizer.grid_function", P50, LIN, VERDICT),
    Layer("expr.grid_function.scalar_calls", "count/op", "lower",
          "compiled grid functions called on scalars (leaf bisection)",
          P50, LIN, VERDICT),
    Layer("expr.grid_function.array_calls", "count/op", "lower",
          "compiled grid functions called on arrays", P50, LIN, VERDICT),
    Layer("calculus.sample_points.calls", "count/op", "lower",
          "calls of weblin.invariants.sample_points",
          P50, ("corpus-warm",), LIN),
    *_group(["calculus.sample_points.busy_s", "calculus.sample_points.self_s"],
            "s/op", "lower",
            "sample_points; self time excludes validation evaluations, so it "
            "is the per-point rebuild of the validity checks",
            P50, ("corpus-warm",), LIN),
    Layer("calculus.candidates", "count/op", "lower",
          "candidate points: pairs of weblin.calculus.random_rational calls",
          P50, ("corpus-warm",), LIN),
    Layer("calculus.accepted", "count/op", "lower",
          "points returned by sample_points", P50, ("corpus-warm",), LIN),
    Layer("calculus.accept_ratio", "ratio", "higher",
          "accepted / candidates", P50, ("corpus-warm",), LIN),
    Layer("calculus.validations_per_point", "ratio", "lower",
          "accepted points / distinct (operation, point) pairs; about the "
          "number of invariants while each invariant re-seeds its sampler",
          P50, ("corpus-warm",), LIN),
    Layer("invariants.build.calls", "count/op", "lower",
          "calls of build_compatibility_pair and J_alpha",
          P50, ("webs-fresh",), ("corpus-warm", "linearize")),
    Layer("invariants.build.busy_s", "s/op", "lower",
          "time inside build_compatibility_pair and J_alpha (symbolic build)",
          P50, ("webs-fresh",), ("corpus-warm", "linearize")),
    Layer("invariants.zero_test.calls", "count/op", "lower",
          "calls of weblin.invariants.zero_test", P50_TPUT, VERDICT, LIN),
    *_group(["invariants.zero_test.busy_s", "invariants.zero_test.self_s"],
            "s/op", "lower",
            "zero_test; self time excludes sampling and evaluation",
            P50_TPUT, VERDICT, LIN),
    Layer("invariants.zero_test.points", "count/op", "lower",
          "evidence points returned by zero_test", P50_TPUT, VERDICT, LIN),
    *_group(["invariants.verdicts.ZERO", "invariants.verdicts.NONZERO"],
            "count/op", "higher", "zero_test verdicts of each kind",
            P50_TPUT, VERDICT, LIN),
    Layer("invariants.verdicts.INCONCLUSIVE", "count/op", "lower",
          "zero_test verdicts that decided nothing", P50_TPUT, VERDICT, LIN),
    Layer("invariants.dag_nodes", "count/op", "lower",
          "sum of the reports' dag_size (exact count)",
          P50_TPUT, VERDICT, LIN),
    Layer("linearizer.coefficient_grid.builds", "count/op", "lower",
          "CoefficientGrid constructions (two per linearization today)",
          P50, LIN, VERDICT),
    Layer("linearizer.coefficient_grid.busy_s", "s/op", "lower",
          "time inside CoefficientGrid construction", P50, LIN, VERDICT),
    *_group(["linearizer.integrate_lambda.self_s",
             "linearizer.flat_coordinates.self_s",
             "linearizer.flatness_residual.busy_s"], "s/op", "lower",
            "Frobenius sweeps and flatness check; the 81x81 operation is the "
            "slowest one, so latency_tail_s shows it most",
            ("latency_p50_s", "latency_tail_s"), LIN, VERDICT),
    Layer("linearizer.rk4_substeps", "count/op", "lower",
          "computed, not counted: 3 sweeps x substeps x (grid^2 - 1)",
          ("latency_p50_s", "latency_tail_s"), LIN, VERDICT),
    Layer("linearizer.trace_leaves.calls", "count/op", "lower",
          "calls of weblin.linearizer.trace_leaves", P50_TPUT, LIN, VERDICT),
    *_group(["linearizer.trace_leaves.busy_s",
             "linearizer.straightness_report.self_s",
             "linearizer.render_svg.self_s"], "s/op", "lower",
            "leaf tracing, and the report and SVG outside leaf tracing",
            P50_TPUT, LIN, VERDICT),
    Layer("linearizer.leaves.skipped", "count/op", "lower",
          "skipped_leaves from the JSON report", P50_TPUT, LIN, VERDICT),
    Layer("trace.coverage", "ratio", "higher",
          "share of operation wall time inside named spans below cli.main"),
    Layer("trace.overhead", "ratio", "higher",
          "traced throughput / untraced throughput (trace.base_ops_per_s)"),
    Layer("trace.base_ops_per_s", "1/s", "higher",
          "untraced throughput the overhead ratio is taken against"),
])

BY_NAME = {layer.name: layer for layer in LAYERS}
