"""Symbolic build guard: the DAGs `check` builds for webs it has not seen.

The nine corpus webs under x -> x + c x^3, y -> y + d y^2, for three (c, d),
are the webs the benchmark's webs-fresh workload checks.  For each, I1, I2,
every J and every validity check is recorded by its DAG size and a sha256
over its children-first order of (kind, constant value or name, child
positions), which is linear in the DAG (a printed tree can grow
exponentially).  A fresh interpreter builds them all and also reports how
many nodes the intern table gained: the constructors may intern fewer
nodes than recorded, never more, and every root must be the same DAG.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "build_fresh.json"

SCRIPT = """
import hashlib, json
from weblin import corpus, expr as E
from weblin.calculus import reparameterized
from weblin.invariants import J_alpha, build_compatibility_pair

def digest(e):
    order = E.topo_order(e)
    index = {n: i for i, n in enumerate(order)}
    h = hashlib.sha256()
    for n in order:
        label = str(n.value) if n.kind == E.CONST else n.name
        h.update(repr((n.kind, label, [index[c] for c in n.children])).encode())
    return [len(order), h.hexdigest()]

before = len(E._table)
webs = {}
for c, d in (("10/97", "10/89"), ("37/97", "41/89"), ("96/97", "88/89")):
    p, q = E.parse(f"x + {c}*x^3"), E.parse(f"y + {d}*y^2")
    for case in corpus.CASES:
        web = reparameterized(corpus.web_for(case), p, q, case.domain)
        roots = dict(zip(("I1", "I2"), build_compatibility_pair(web)))
        roots.update((f"J{a}", J_alpha(web, a)) for a in range(5, web.d + 1))
        roots.update((f"check{i}", e)
                     for i, e in enumerate(web.validity_checks))
        webs[f"{case.name}@{c},{d}"] = {k: digest(e) for k, e in roots.items()}
print(json.dumps({"table_growth": len(E._table) - before, "webs": webs},
                 indent=1))
"""


def build_record() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=600)
    return json.loads(done.stdout)


def test_fresh_webs_build_the_recorded_dags():
    recorded = json.loads(RECORDED.read_text())
    got = build_record()
    assert len(recorded["webs"]) == 27
    assert list(got["webs"]) == list(recorded["webs"])
    for web, roots in recorded["webs"].items():
        assert got["webs"][web] == roots, web
    assert got["table_growth"] <= recorded["table_growth"]


if __name__ == "__main__":
    # python tests/test_build_fresh.py > tests/build_fresh.json
    print(json.dumps(build_record(), indent=1))
