"""Per-operation correctness gate.

`failure(op, rc, stdout, reference, root)` returns None for a correct operation
and a one-line reason otherwise.  Every reason counts as a failed
operation; none is dropped.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from weblin.expr import parse

EXIT_CODE = {"YES": 0, "NO": 1}
STRAIGHTNESS_TOL = 1e-5          # acceptance criterion 7
PATH_INDEPENDENCE_TOL = 1e-8     # acceptance criterion 6


def fingerprint(report: dict) -> str:
    """Digest of what must not change: the verdict, and per invariant its
    verdict, evidence points, modes and exact-mode residual strings."""
    keep = {"verdict": report["verdict"], "invariants": [
        {"name": inv["name"], "verdict": inv["verdict"],
         "evidence": [[ev["point"], ev["params"], ev["mode"],
                       ev["residual"] if ev["mode"] == "exact" else None]
                      for ev in inv["evidence"]]}
        for inv in report["invariants"]]}
    blob = json.dumps(keep, sort_keys=True).encode()
    return f"{report['verdict']}:{hashlib.sha256(blob).hexdigest()[:24]}"


def _arg(args: list[str], flag: str) -> list[str]:
    return [args[i + 1] for i, a in enumerate(args) if a == flag]


def _check_verdict(op: dict, report: dict, reference: dict) -> str | None:
    args = op["args"]
    names = ["I1", "I2"] + [f"J{a}" for a in
                            range(5, 4 + len(_arg(args, "--g")))]
    got = [inv["name"] for inv in report["invariants"]]
    if got != names:
        return f"invariants {got}, expected {names}"
    verdicts = [inv["verdict"] for inv in report["invariants"]]
    if op["expected"] == "YES" and set(verdicts) != {"ZERO"}:
        return f"invariant verdicts {verdicts} for a YES web"
    if op["expected"] == "NO" and "NONZERO" not in verdicts:
        return f"invariant verdicts {verdicts} for a NO web"
    x_lo, x_hi, y_lo, y_hi = (Fraction(v) for v in
                              _arg(args, "--domain")[0].split(","))
    for inv in report["invariants"]:
        for ev in inv["evidence"]:
            x, y = (Fraction(v) for v in ev["point"])
            if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
                return f"{inv['name']}: evidence point {ev['point']} outside"
            if (inv["verdict"] == "ZERO" and ev["mode"] == "exact"
                    and ev["residual"] != "0"):
                return f"{inv['name']}: ZERO with exact residual {ev['residual']}"
    if op["echo"]:
        # the echo's operand order follows the process's interning history,
        # so it is compared as an expression, not as text
        echoed = [report["web"]["f"], *report["web"]["g"]]
        given = _arg(args, "--f") + _arg(args, "--g")
        if any(parse(a) is not parse(b) for a, b in zip(echoed, given, strict=True)):
            return "echoed web is not the input web (format/parse round trip)"
    if op["ref"] is not None:
        want = reference.get(op["ref"], {}).get(str(op["seed"]))
        if want is None:
            return f"no reference for {op['ref']} at seed {op['seed']}"
        got_fp = fingerprint(report)
        if got_fp != want:
            return f"report {got_fp} differs from reference {want}"
    return None


def _check_linearization(op: dict, report: dict, root: str) -> str | None:
    lin = report["linearization"]
    if not lin or "refused" in lin:
        return f"no linearization: {lin}"
    if lin["grid"]["nx"] != op["grid"] or lin["grid"]["ny"] != op["grid"]:
        return f"grid {lin['grid']}, expected {op['grid']}"
    n_fol = 3 + len(_arg(op["args"], "--g"))
    if len(lin["straightness"]) != n_fol:
        return f"straightness for {sorted(lin['straightness'])} only"
    for name, value in lin["straightness"].items():
        if not float(value) <= STRAIGHTNESS_TOL:
            return f"straightness of {name} is {value} > {STRAIGHTNESS_TOL}"
    pir = float(lin["path_independence_residual"])
    if not pir <= PATH_INDEPENDENCE_TOL:
        return f"path independence residual {pir} > {PATH_INDEPENDENCE_TOL}"
    svg = os.path.join(root, op["svg"])
    try:
        with open(svg, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(svg)
    except OSError as err:
        return f"svg not written: {err}"
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")
            and "<polyline" in text):
        return "svg malformed"
    return None


def failure(op: dict, rc: int, stdout: str, reference: dict,
            root: str) -> str | None:
    want_rc = EXIT_CODE[op["expected"]]
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    try:
        report = json.loads(stdout)
    except ValueError as err:
        return f"output is not one JSON report: {err}"
    if report.get("verdict") != op["expected"]:
        return f"verdict {report.get('verdict')}, expected {op['expected']}"
    if op["kind"] == "linearize":
        return _check_linearization(op, report, root)
    return _check_verdict(op, report, reference)
