"""Float residual guard: the full `check --json` stdout of the 19 benchmark
webs at `--seed 1`, float residual strings included.

`perfbench/reference.json` fingerprints drop float residuals, which move
when the interning order (and so the mpf fold order) moves.  Here one fresh
interpreter with `PYTHONHASHSEED=0` checks the webs in a fixed order and
prints a sha256 of each stdout; `residuals_seed1.json` holds the digests.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "residuals_seed1.json"

SCRIPT = """
import contextlib, hashlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from weblin import cli
out = {}
for key, _, args in workloads.corpus_webs():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["check", "--json", *args, "--seed", "1"])
    out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
print(json.dumps(out, indent=1))
"""


def stdout_digests() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT,
         str(ROOT / "perfbench" / "workloads.py")],
        env=env, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout)


def test_check_stdout_matches_recorded_digests():
    recorded = json.loads(RECORDED.read_text())
    got = stdout_digests()
    assert list(got) == list(recorded)
    changed = [key for key in recorded if got[key] != recorded[key]]
    assert not changed, f"check --json stdout changed for {changed}"


if __name__ == "__main__":
    # python tests/test_residuals.py > tests/residuals_seed1.json
    print(json.dumps(stdout_digests(), indent=1))
