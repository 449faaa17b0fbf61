"""Evidence guard: `check --json` reports of the 19 benchmark webs match the
recorded fingerprints of `perfbench/reference.json` (verdicts, evidence
points, parameters, modes and exact residual strings)."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from weblin import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """A perfbench module, loaded by path and read only."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fingerprint = _load("checks").fingerprint
WEBS = _load("workloads").corpus_webs()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["fingerprints"]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("key, args", [(key, args) for key, _, args in WEBS],
                         ids=[key for key, _, _ in WEBS])
def test_fingerprint_matches_reference(key, args, seed):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["check", "--json", *args, "--seed", str(seed)])
    assert fingerprint(json.loads(buf.getvalue())) == REFERENCE[key][str(seed)]


def test_traced_names_resolve(monkeypatch):
    # the tracer wraps these module attributes by name; a refactor that
    # drops one must fail here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports `layers`
    tracing = _load("tracing")
    names = [(module, attr) for module, attr, _, _
             in tracing.SPANNED + tracing.COUNTED]
    names.append(("weblin.linearizer", "DEFAULT_SUBSTEPS"))  # worker.py
    missing = [(module, attr) for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert len(names) > 1 and not missing, missing
