"""Deterministic cost guard of a web check and a warm linearization:
counts, never timings.

A check pays for the arithmetic of its sample points and little else: the
generator state is read once per new draw and never touched on a replay,
validation decides on raw values without making mpf objects, and each
constant node is converted once per check and precision.  A linearization
bisects every leaf of every foliation in one halving loop.
"""
from __future__ import annotations

import random
from collections import Counter

import mpmath
import pytest

from weblin import calculus, corpus, invariants
from weblin import expr as E
from weblin.invariants import check_dweb

WEBS = [corpus.web_for(corpus.case_by_name("parabola-tangents")),
        corpus.web_for(corpus.case_by_name("power-web")),  # 3 param rounds
        corpus.web_for(corpus.LINEAR_FIVE_WEB)]


@pytest.fixture
def tally(monkeypatch):
    """Counts of generator-state calls, draws, mpf objects made during
    validation, and constant conversions by (precision, constant)."""
    counts = Counter()
    conversions = Counter()
    validating = [False]

    def count(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("getstate", "setstate"):
        monkeypatch.setattr(random.Random, name,
                            count(name, getattr(random.Random, name)))
    monkeypatch.setattr(invariants, "sample_points",
                        count("draws", invariants.sample_points))

    valid = calculus._point_is_valid

    def validate(*args, **kwargs):
        validating[0] = True
        try:
            return valid(*args, **kwargs)
        finally:
            validating[0] = False

    monkeypatch.setattr(calculus, "_point_is_valid", validate)
    make_mpf, new_mpf = mpmath.mp.make_mpf, mpmath.mp.mpf.__new__

    def made(fn):
        def wrapper(*args, **kwargs):
            if validating[0]:
                counts["validation mpf"] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mpmath.mp, "make_mpf", made(make_mpf))
    monkeypatch.setattr(mpmath.mp.mpf, "__new__", made(new_mpf))

    constants = set()  # ids of the constant values of the checked program
    mpf_num, exact_num = E._MpfArithmetic.num, E._EXACT.num

    def mpf_counting(self, q):
        if id(q) in constants:
            conversions[self.prec, id(q)] += 1
        return mpf_num(self, q)

    def exact_counting(q):
        if id(q) in constants:
            conversions[None, id(q)] += 1
        return exact_num(q)

    monkeypatch.setattr(E._MpfArithmetic, "num", mpf_counting)
    monkeypatch.setattr(E._ExactArithmetic, "num", staticmethod(exact_counting))
    return counts, conversions, constants


@pytest.mark.parametrize("web", WEBS, ids=lambda w: f"d{w.d}-{w.f}")
def test_check_pays_only_for_its_arithmetic(tally, web):
    counts, conversions, constants = tally
    invariants.clear_caches()
    # the first check compiles its program as it goes, the second runs the
    # published, sealed one
    for sighting in range(2):
        counts.clear()
        conversions.clear()
        constants.clear()
        I1, I2 = invariants.build_compatibility_pair(web)
        roots = (*web.validity_checks, I1, I2,
                 *(invariants.J_alpha(web, a) for a in range(5, web.d + 1)))
        constants.update(id(n.value) for r in roots
                         for n in E.topo_order(r) if n.kind == E.CONST)
        _, reports = check_dweb(web)
        assert counts["draws"] > 0
        # one state read per new draw, none per replay; the generator is
        # set only when a later test draws past the points replayed
        assert counts["getstate"] == counts["draws"]
        assert counts["setstate"] <= len(reports) - 1
        assert counts["validation mpf"] == 0
        assert conversions and max(conversions.values()) == 1, sighting


@pytest.mark.parametrize("name", ["parabola-tangents", "bol-four-subweb",
                                  "linear-five-web"])
def test_warm_linearization_halves_every_leaf_in_one_loop(monkeypatch, name):
    # the second linearization of the web functions, of a new WebSpec as
    # each CLI call makes, traces every foliation in one call, and each
    # leaf function runs once on the nodes, once per bracket end and once
    # per halving of the one loop
    from weblin import linearizer as lin

    case = (corpus.LINEAR_FIVE_WEB if name == "linear-five-web"
            else corpus.case_by_name(name))
    invariants.clear_caches()
    first = lin.flat_coordinates(corpus.linearization_web(case))
    traces = Counter()
    leaf_runs = Counter()
    trace = lin.trace_leaves

    def counting_trace(*args, **kwargs):
        traces["trace_leaves"] += 1
        return trace(*args, **kwargs)

    web = corpus.linearization_web(case)
    leaves = {web.f, *web.gs}
    compile_ = lin.grid_function

    def grid_function(*roots):
        fn = compile_(*roots)
        if len(roots) > 1 or roots[0] not in leaves:
            return fn

        def leaf(x, y):
            leaf_runs[roots[0]] += 1
            return fn(x, y)
        return leaf

    monkeypatch.setattr(lin, "trace_leaves", counting_trace)
    monkeypatch.setattr(lin, "grid_function", grid_function)
    second = lin.flat_coordinates(web)
    assert traces == {"trace_leaves": 1}
    assert len(leaf_runs) == len(leaves)
    assert max(leaf_runs.values()) <= lin.BISECTION_CAP + 3
    assert second.to_json() == first.to_json()
    assert second.u.tobytes() == first.u.tobytes()
    assert second.v.tobytes() == first.v.tobytes()
