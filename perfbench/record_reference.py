"""Record the corpus-warm reference: one fingerprint per web and weblin seed.

    python3 perfbench/record_reference.py     # rewrites perfbench/reference.json

Runs `weblin check --json` on each of the 19 corpus-warm webs at every
weblin --seed the workload uses (1..REFERENCE_SEEDS) and stores
`checks.fingerprint` of each report.  Record it only on a commit whose
verdicts, evidence points and residual strings are the intended ones: the
benchmark counts every later difference as a failed operation.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from weblin import cli  # noqa: E402

from checks import fingerprint  # noqa: E402
from workloads import REFERENCE_SEEDS, corpus_webs  # noqa: E402


def main() -> int:
    out: dict[str, dict[str, str]] = {}
    for key, case, args in corpus_webs():
        out[key] = {}
        for seed in range(1, REFERENCE_SEEDS + 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(["check", "--json", *args, "--seed", str(seed)])
            report = json.loads(buf.getvalue())
            if report["verdict"] != case.expected:
                raise SystemExit(f"{key} seed {seed}: verdict "
                                 f"{report['verdict']}, expected {case.expected}")
            out[key][str(seed)] = fingerprint(report)
        print(key, file=sys.stderr)
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fingerprints": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
