"""Float outputs at non-default precisions: the full `check --json` stdout
of the float-mode benchmark webs (plain and substituted, those with a web
function outside exact arithmetic) at `--precision` 24, 53, 1024 and 2048
and `--seed` 1 and 2.  `residuals_seed1.json` pins the 256-bit outputs;
these pin the rounding of the p-bit arithmetic at other widths, below and
above a double's.  A fresh interpreter runs the checks and prints a sha256
of each output; `precision_digests.json` holds the digests it must give.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "precision_digests.json"

PRECISIONS = (24, 53, 1024, 2048)
SEEDS = (1, 2)

SCRIPT = f"""
import contextlib, hashlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
from weblin import cli, corpus
from weblin.expr import is_exactly_evaluable
out = {{}}
for key, case, args in workloads.corpus_webs():
    web = (corpus.substituted_web(case) if key.startswith("substituted/")
           else corpus.web_for(case))
    if all(map(is_exactly_evaluable, (web.f, *web.gs))):
        continue
    for precision in {PRECISIONS}:
        for seed in {SEEDS}:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["check", "--json", *args, "--seed", str(seed),
                          "--precision", str(precision)])
            out[f"{{key}}@{{precision}}/seed{{seed}}"] = hashlib.sha256(
                buf.getvalue().encode()).hexdigest()
print(json.dumps(out, indent=1))
"""


def digests() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "workloads.py")],
        env=env, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(done.stdout)


def test_float_outputs_at_other_precisions_match_recorded_digests():
    recorded = json.loads(RECORDED.read_text())
    # 13 float-mode webs: 4 plain, all 9 substituted
    assert len(recorded) == 13 * len(PRECISIONS) * len(SEEDS)
    got = digests()
    assert list(got) == list(recorded)
    changed = [key for key in recorded if got[key] != recorded[key]]
    assert not changed, f"check --json stdout changed for {changed}"


if __name__ == "__main__":
    # python tests/test_precision.py > tests/precision_digests.json
    print(json.dumps(digests(), indent=1))
