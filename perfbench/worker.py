"""One measured weblin process: set up, run a closed loop, report.

Started by run.py in a fresh interpreter with the workload plan as JSON on
stdin; prints one JSON result line on stdout.  Each operation is one
in-process `weblin.cli.main([...])` call with its stdout captured, as a
user's `weblin check --json` or `weblin linearize --json` runs.  One client,
no threads: the next operation starts when the previous one returns.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

MAX_REASONS = 10


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run(cli, args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(args))
    return rc, out.getvalue()


class Loop:
    """Runs operations, gates each one, and keeps latencies and failures."""

    def __init__(self, plan: dict):
        from checks import failure
        from weblin import cli

        self.cli = cli
        self.failure = failure
        self.root = plan["root"]
        self.reference = plan["reference"]
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.latencies: list[float] = []
        self.ok: list[bool] = []

    def op(self, op: dict, timed: bool, tracer=None) -> None:
        """Run and check one operation; `tracer` records it in spans."""
        self.attempted += 1
        report = None
        if op["kind"] == "linearize":
            # the gate reads the SVG back, so none may be left over
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.root, op["svg"]))
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                rc, stdout = tracer.run_op(
                    len(tracer.ops), lambda: _run(self.cli, op["args"]))
            else:
                rc, stdout = _run(self.cli, op["args"])
            dt = time.perf_counter() - t0
            reason = self.failure(op, rc, stdout, self.reference, self.root)
            if tracer is not None:
                with contextlib.suppress(ValueError):
                    report = json.loads(stdout)
        except Exception:  # an operation that raises is a failed operation
            dt = time.perf_counter() - t0
            reason = traceback.format_exc(limit=3).strip().replace("\n", " | ")
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{op['key']} (seed {op['seed']}): {reason}")
        if timed:
            self.latencies.append(dt)
            self.ok.append(reason is None)
        if tracer is not None:
            tracer.note_op(op, report)


def timed_passes(loop: Loop, plan: dict, tracer) -> dict:
    """Run whole passes and stop at the boundary nearest to --seconds, so
    the operation mix is the same whatever the speed.  With a tracer, passes
    alternate untraced and traced and stop only after a traced one: host
    speed drifts, and alternating puts both sides of the overhead ratio
    under the same drift."""
    group = 1 if tracer is None else 2
    spent = [0.0, 0.0]   # seconds in untraced, traced passes
    done = [0, 0]        # operations in untraced, traced passes
    rss_mb = None
    passes = 0
    t0 = t_group = time.perf_counter()
    for one_pass in plan["passes"]:
        traced = passes % group == 1
        if traced:
            tracer.install()
        t_pass = time.perf_counter()
        for op in one_pass:
            loop.op(op, timed=True, tracer=tracer if traced else None)
        now = time.perf_counter()
        if traced:
            tracer.uninstall()
        spent[traced] += now - t_pass
        done[traced] += len(one_pass)
        passes += 1
        if passes == plan["rss_passes"]:
            rss_mb = _peak_rss_mb()
        if passes % group == 0:
            if now - t0 + (now - t_group) / 2 >= plan["seconds"]:
                break
            t_group = now
    elapsed = time.perf_counter() - t0
    return {"elapsed_s": elapsed, "passes": passes,
            "inputs_exhausted": passes == len(plan["passes"])
            and elapsed < plan["seconds"],
            "latencies": loop.latencies, "ok": loop.ok,
            "peak_rss_mb": rss_mb if rss_mb is not None else _peak_rss_mb(),
            "ops_per_s": [d / s if s else 0.0 for d, s in zip(done, spent)]}


def main() -> int:
    plan = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    import weblin.cli  # noqa: F401  (import time is part of set-up)
    if plan["workload"] == "linearize":
        # imported lazily inside straightness_report and render_svg; without
        # this the first timed linearization would pay for it
        import scipy.interpolate  # noqa: F401

    loop = Loop(plan)
    os.makedirs(os.path.join(plan["root"], "perfbench", "out"), exist_ok=True)
    for op in plan["warmup"]:
        loop.op(op, timed=False)
    setup_s = time.monotonic() - plan["spawn_time"] + plan["generation_s"]
    result = {"setup_s": setup_s}
    if not plan["setup_only"]:
        tracer = None
        if plan["trace"]:
            from tracing import Tracer
            tracer = Tracer()
        result.update(timed_passes(loop, plan, tracer))
        if tracer is not None:
            from weblin.linearizer import DEFAULT_SUBSTEPS
            tracer.check_integrity(plan["workload"])
            result["layers"] = tracer.layer_metrics(DEFAULT_SUBSTEPS)
            tracer.dump(os.path.join(plan["root"], "perfbench", "out",
                                     f"trace-{plan['workload']}.jsonl"))
    result.update(attempted=loop.attempted, failed=loop.failed,
                  reasons=loop.reasons)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
