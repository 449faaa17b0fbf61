"""weblin benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload corpus-warm --seed 1 --seconds 35 --trace 0

Run from the root of a weblin checkout.  Inputs are made from --seed in
this process; each measurement runs in a fresh interpreter (worker.py) that
receives only weblin argument lists.  Every operation's output is checked.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.

--trace 0: set up SETUP_SAMPLES times (the last one also measures) and
report the end-to-end metrics of BENCHMARK.json.
--trace 1: one measurement whose passes alternate untraced and traced;
report the per-layer metrics of the traced passes, trace.coverage and
trace.overhead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from layers import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
CHILD_DEADLINE_S = 170
# nearest-rank percentile reported as latency_tail_s: one that keeps at least
# ten samples beyond it even in the slowest runs seen at this commit, fixed so
# that a change which completes more operations compares like for like; None
# means too few operations per run, and the maximum is reported
TAIL_PERCENTILE = {"corpus-warm": 90, "webs-fresh": 80, "linearize": None}
TAIL_FALLBACKS = (99, 95, 90, 80, 75, 50)
# peak_rss_mb is read after this many timed passes (or at the end of a
# shorter run): webs-fresh grows with every web, so a run that completes
# more passes would otherwise read larger
RSS_PASSES = {"corpus-warm": 1, "webs-fresh": 6, "linearize": 1}
END_TO_END_UNITS = {"latency_p50_s": "s", "latency_tail_s": "s",
                    "throughput_ops_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
THREAD_POOLS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def check_benchmark_spec() -> None:
    """Refuse to run when BENCHMARK.json names other metrics than these."""
    from layers import LAYERS
    from tracing import uncomputed_layers

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            != END_TO_END_UNITS):
        raise BenchError("end_to_end of BENCHMARK.json differs from run.py")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != [(layer.name, layer.unit) for layer in LAYERS]:
        raise BenchError("per_layer of BENCHMARK.json differs from layers.py")
    missing = uncomputed_layers()
    if missing:
        raise BenchError(f"per-layer metrics never computed: {sorted(missing)}")


def generate(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    from workloads import GENERATORS, passes_for

    t0 = time.perf_counter()
    warmup, passes = GENERATORS[workload](seed, passes_for(workload, seconds))
    return {"warmup": warmup, "passes": passes}, time.perf_counter() - t0


def run_child(plan: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_POOLS})
    env["PYTHONHASHSEED"] = "0"
    plan = dict(plan, spawn_time=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(plan),
                                  timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _rank(n: int, p: float) -> int:
    return max(1, math.ceil(p / 100 * n))


def latency_stats(workload: str, latencies: list[float], ok: list[bool]):
    """Median and tail latency; a failed operation ranks beyond every
    successful one (it misses any latency limit)."""
    worst = max(latencies)
    ranked = sorted(lat if good else math.inf
                    for lat, good in zip(latencies, ok))
    n = len(ranked)

    def pick(value: float) -> float:
        return worst if math.isinf(value) else value

    p50 = pick(statistics.median(ranked))
    target = TAIL_PERCENTILE[workload]
    usable = [p for p in TAIL_FALLBACKS if target is not None
              and p <= target and n - _rank(n, p) >= 10]
    if usable:
        p = usable[0]
        tail = pick(ranked[_rank(n, p) - 1])
        label = f"p{p}, {n - _rank(n, p)} of {n} samples beyond"
    else:
        tail = pick(ranked[-1])
        label = f"max of {n} samples (too few for ten beyond a percentile)"
    return p50, tail, label


def measure(args, plan: dict, generation_s: float) -> tuple[dict, dict, list]:
    """End-to-end metrics of one --trace 0 run."""
    deadline = time.monotonic() + CHILD_DEADLINE_S
    base = dict(plan, workload=args.workload, seconds=args.seconds,
                trace=False, generation_s=generation_s,
                rss_passes=RSS_PASSES[args.workload])
    results = [run_child(dict(base, setup_only=True), deadline)
               for _ in range(SETUP_SAMPLES - 1)]
    main = run_child(dict(base, setup_only=False), deadline)
    results.append(main)
    n = len(main["latencies"])
    p50, tail, label = latency_stats(args.workload, main["latencies"],
                                     main["ok"])
    values = {
        "latency_p50_s": p50,
        "latency_tail_s": tail,
        "throughput_ops_per_s": n / main["elapsed_s"],
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    metrics = {name: (values[name], unit)
               for name, unit in END_TO_END_UNITS.items()}
    notes = {
        "latency_p50_s": f"median of {n} operations",
        "latency_tail_s": label,
        "throughput_ops_per_s": f"{n} operations in {main['passes']} passes "
                                f"over {main['elapsed_s']:.2f} s",
        "setup_s": "median of " + ", ".join(
            f"{r['setup_s']:.3f}" for r in results)
        + f" s (input generation {generation_s:.3f} s in each)",
        "peak_rss_mb": "ru_maxrss of the measured process after "
                       f"{min(main['passes'], RSS_PASSES[args.workload])} "
                       "timed passes",
    }
    if main["inputs_exhausted"]:
        notes["throughput_ops_per_s"] += " (inputs used up before --seconds)"
    return metrics, notes, results


def measure_traced(args, plan: dict, generation_s: float):
    """Per-layer metrics of one --trace 1 run."""
    from layers import BY_NAME

    traced = run_child(dict(plan, workload=args.workload, seconds=args.seconds,
                            setup_only=False, trace=True,
                            generation_s=generation_s,
                            rss_passes=RSS_PASSES[args.workload]),
                       time.monotonic() + CHILD_DEADLINE_S)
    base_tput, traced_tput = traced["ops_per_s"]
    values = dict(traced["layers"], **{
        "trace.overhead": traced_tput / base_tput,
        "trace.base_ops_per_s": base_tput})
    metrics = {name: (values[name], BY_NAME[name].unit) for name in BY_NAME}
    notes = {"trace.overhead": f"{traced_tput:.4f} traced / {base_tput:.4f} "
                               "untraced operations per second, in "
                               f"{traced['passes']} alternating passes",
             "trace.coverage": "of operation wall time, inside named spans",
             "linearizer.rk4_substeps": "computed from grid, substeps, sweeps"}
    return metrics, notes, [traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weblin", "__init__.py")):
        print(f"error: no weblin source under {ROOT}/src; run from the root "
              "of a weblin checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        check_benchmark_spec()
        plan, generation_s = generate(args.workload, args.seed, args.seconds)
        plan["root"] = ROOT
        plan["reference"] = {}
        if args.workload == "corpus-warm":
            with open(os.path.join(HERE, "reference.json"),
                      encoding="utf-8") as fh:
                plan["reference"] = json.load(fh)["fingerprints"]
        if args.trace:
            metrics, notes, results = measure_traced(args, plan, generation_s)
        else:
            metrics, notes, results = measure(args, plan, generation_s)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for reason in r["reasons"]:
            print(f"FAILED {reason}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations checked, {failed} failed, "
          f"failed_share {failed / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:14.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
