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


def test_trace_gate_fires_on_cached_checks(monkeypatch):
    # the tracer proves each layer ran by the wrappers it puts on module
    # attributes; checks of web functions seen before, served from the
    # builder memos and a published slot program, must still go through
    # every wrapped name, or a traced benchmark run fails its integrity check
    from weblin import invariants

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = _load("tracing").Tracer()
    webs = {key: args for key, _, args in WEBS}
    chosen = [webs[key] for key in ("substituted/two-pencils",  # float
                                    "plain/two-pencils",        # exact
                                    "plain/linear-five-web")]   # 5-web
    invariants.clear_caches()

    def run_all():
        for args in chosen:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["check", "--json", *args]) == 0

    run_all()
    run_all()  # the second sighting publishes each program
    published = dict(invariants._PROGRAMS)
    assert len(published) == len(chosen)
    tracer.install()
    try:
        run_all()
    finally:
        tracer.uninstall()
    assert invariants._PROGRAMS == published  # the traced run only hit
    tracer.check_integrity("corpus-warm")
    # `build_compatibility_pair` and `J_alpha` share one span name, so
    # count them: one pair per check and one J per foliation past the 4th
    counts = tracer.layer_metrics(2)
    assert counts["invariants.build.calls"] == 1 + 1 + 2
    assert counts["invariants.zero_test.calls"] == 2 + 2 + 3
