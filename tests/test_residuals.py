"""Float residual guards: the full `check --json` stdout of the 19
benchmark webs, and the `linearize --json` stdout and SVG of the benchmark's
linearize operations, all at `--seed 1`, float strings included.

`perfbench/reference.json` fingerprints drop float residuals, which move
with the operand order of sums and products (and so the mpf fold order).
That order is structural, so an output does not depend on what the process
computed before: a fresh interpreter runs the operations, prints a sha256 of
each output, and a second one runs them in reverse order under another
`PYTHONHASHSEED`; `residuals_seed1.json` and `linearize_seed1.json` hold the
digests both runs must give.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "residuals_seed1.json"
RECORDED_LINEARIZE = Path(__file__).resolve().parent / "linearize_seed1.json"

SCRIPT = """
import contextlib, hashlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from weblin import cli
runs = workloads.corpus_webs()
out = {}
for key, _, args in runs[::int(sys.argv[2])]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["check", "--json", *args, "--seed", "1"])
    out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
print(json.dumps({key: out[key] for key, _, _ in runs}, indent=1))
"""


# the 8 benchmark linearize operations (one pass, by key) and bol-four-subweb
# at 31x31 from an off-centre base node with a nonzero lambda0
LINEARIZE_SCRIPT = """
import contextlib, hashlib, importlib.util, io, json, os, sys, tempfile
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from weblin import cli
ops = sorted(workloads.linearize(1, 1)[1][0], key=lambda op: op["key"])
runs = [(op["key"], op["args"]) for op in ops]
runs.append(("linearize/bol-four-subweb@31/off-centre",
             ["linearize", "--json", "--svg", "", "--grid", "31",
              "--f", "y/x", "--g", "(x - x*y)/(y - x*y)",
              "--domain", "1/4,3/8,1/2,3/4", "--base", "0.28,0.7",
              "--lambda0", "0.3,-0.2", "--seed", "1"]))
out = {}
with tempfile.TemporaryDirectory() as tmp:
    svg = os.path.join(tmp, "leaves.svg")
    for key, args in runs[::int(sys.argv[2])]:
        args = list(args)
        args[args.index("--svg") + 1] = svg
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(args)
        with open(svg, "rb") as fh:
            picture = fh.read()
        os.remove(svg)
        out[key] = {"exit": rc,
                    "stdout": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
                    "svg": hashlib.sha256(picture).hexdigest()}
print(json.dumps({key: out[key] for key, _ in runs}, indent=1))
"""

# (operation order, PYTHONHASHSEED) of the two runs
RUNS = (("1", "0"), ("-1", "12345"))


def digests(script: str, step: str = "1", hashseed: str = "0") -> dict:
    """The digests by operation key, the operations run in order (step 1)
    or in reverse (step -1)."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script,
         str(ROOT / "perfbench" / "workloads.py"), step],
        env=env, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout)


def test_check_stdout_matches_recorded_digests():
    recorded = json.loads(RECORDED.read_text())
    for run in RUNS:
        got = digests(SCRIPT, *run)
        assert list(got) == list(recorded)
        changed = [key for key in recorded if got[key] != recorded[key]]
        assert not changed, f"check --json stdout changed for {changed} {run}"


def test_linearize_outputs_match_recorded_digests():
    recorded = json.loads(RECORDED_LINEARIZE.read_text())
    assert len(recorded) == 9
    for run in RUNS:
        got = digests(LINEARIZE_SCRIPT, *run)
        assert list(got) == list(recorded)
        changed = [key for key in recorded if got[key] != recorded[key]]
        assert not changed, (f"linearize stdout or SVG changed for {changed} "
                             f"{run}")


if __name__ == "__main__":
    # python tests/test_residuals.py > tests/residuals_seed1.json
    # python tests/test_residuals.py linearize > tests/linearize_seed1.json
    script = LINEARIZE_SCRIPT if sys.argv[1:] == ["linearize"] else SCRIPT
    print(json.dumps(digests(script), indent=1))
