from __future__ import annotations

import time
from fractions import Fraction

import pytest

from weblin import corpus
from weblin.calculus import WebSpec, sample_points
from weblin.expr import X, Y, add, evaluate, mul, pow_, sub
from weblin.invariants import check_dweb


@pytest.fixture(scope="session")
def corpus_results():
    """Verdicts and reports for the plain corpus, computed once."""
    out = {}
    t0 = time.perf_counter()
    for case in corpus.CASES:
        out[case.name] = check_dweb(corpus.web_for(case))
    out["_elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def substituted_results():
    """Verdicts for the corpus under x -> x^3 + x, y -> exp(y)."""
    out = {}
    t0 = time.perf_counter()
    for case in corpus.CASES:
        out[case.name] = check_dweb(corpus.substituted_web(case))
    out["_elapsed"] = time.perf_counter() - t0
    return out


def _jet_changes(web, invariants, k):
    """Which degree-k perturbations move the invariants at a point.

    At a sample point (x0, y0), each web function in turn gets
    t (x - x0)^i (y - y0)^(k - i) added, i = 0..k: every derivative of
    order below k at the point stays, the order-k ones shift.  Returns, per
    web function and i, whether the exact values of `invariants(web)` at
    (x0, y0) changed.
    """
    pt = sample_points(web, 1)[0]
    def at_point(w):
        return [evaluate(e, pt.bindings()) for e in invariants(w)]

    base = at_point(web)
    funcs = (web.f, *web.gs)
    changed = []
    for j, h in enumerate(funcs):
        row = []
        for i in range(k + 1):
            bumped = list(funcs)
            bumped[j] = add(h, mul(Fraction(1, 7), pow_(sub(X, pt.x), i),
                                   pow_(sub(Y, pt.y), k - i)))
            w = WebSpec(f=bumped[0], gs=tuple(bumped[1:]), domain=web.domain)
            row.append(at_point(w) != base)
        changed.append(row)
    return changed


@pytest.fixture(scope="session")
def jet_changes():
    """`_jet_changes(web, invariants, k)`, for the derivative-order tests."""
    return _jet_changes
