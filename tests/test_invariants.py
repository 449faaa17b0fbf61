"""Linearizability invariants, vanishing test, and web verdicts."""
from __future__ import annotations

import json
import random
import threading
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import libmp

from weblin.expr import (X, Y, parse, evaluate, const, sub, mul, add, div,
                         pow_, param, derive, topo_order, Program,
                         ExprError, SingularSampleError)
from weblin.calculus import (Rect, WebSpec, sample_points, mu,
                             random_rational)
from weblin.invariants import (ZeroTestPolicy, zero_test, I1_of_mu, I2_of_mu,
                               J_alpha, build_compatibility_pair, check_dweb)
from weblin import calculus, cli, corpus, invariants

F = Fraction


def _web(f, *gs, **kw):
    return WebSpec(f=parse(f), gs=tuple(parse(g) for g in gs), **kw)


WEB1 = _web("x/y", "x+y")
WEB5 = _web("x/y", "(x+y)*exp(-x)")


class TestOperators:
    def test_flat_subweb_with_zero_mu_collapses(self):
        # f = x+y: H = K = 0; with mu = 0 both operators vanish identically
        web = _web("x+y", "x-y")
        m = mu(web)
        assert m.is_zero
        assert I1_of_mu(m, web).is_zero
        assert I2_of_mu(m, web).is_zero

    def test_example_one_vanishes(self, corpus_results):
        verdict, reports = corpus_results["pencil-with-parallels"]
        assert verdict == "YES"
        assert [r.verdict for r in reports] == ["ZERO", "ZERO"]

    def test_example_five_nonzero(self, corpus_results):
        verdict, reports = corpus_results["exponential-twist"]
        assert verdict == "NO"
        assert "NONZERO" in {r.verdict for r in reports}

    def test_exp_web_still_exact(self, corpus_results):
        # the exp factors cancel in the invariants of (x/y, (x+y)exp(-x))
        _, reports = corpus_results["exponential-twist"]
        assert all(r.mode == "exact" for r in reports)


def _derived_compatibility(web):
    """Independent derivation oracle for the two fourth-order invariants.

    The deformation components satisfy a first-order system whose right
    sides are polynomial in (l1, l2); cross-differentiating each unknown
    with the frame commutation rule and eliminating the first derivatives
    must leave expressions free of l1, l2 that are exactly -1/3 of the two
    invariants.  This reconstructs the invariants from the system itself,
    with l1, l2 as free parameters and the chain rule supplying their
    derivatives.
    """
    H, K = web.H, web.K
    m = mu(web)
    mu1, mu2 = web.d1(m), web.d2(m)
    l1, l2 = param("l1"), param("l2")
    A = mul(l1, add(H, l1, m))
    B = add(mul(F(1, 3), K), mul(H, add(l1, mul(F(1, 3), m))), mul(l1, l2),
            mul(F(1, 3), mu1), mul(F(-2, 3), mu2))
    C = add(mul(F(-1, 3), K), mul(H, sub(l2, mul(F(1, 3), m))), mul(l1, l2),
            mul(F(2, 3), mu1), mul(F(-1, 3), mu2))
    D = mul(l2, add(H, sub(l2, m)))

    def d1_total(e):
        return add(web.d1(e), mul(derive(e, "l1"), A), mul(derive(e, "l2"), C))

    def d2_total(e):
        return add(web.d2(e), mul(derive(e, "l1"), B), mul(derive(e, "l2"), D))

    E1 = sub(sub(d1_total(B), d2_total(A)), mul(H, sub(B, A)))
    E2 = sub(sub(d1_total(D), d2_total(C)), mul(H, sub(D, C)))
    return E1, E2


class TestDerivationOracle:
    def test_invariants_are_minus_three_times_the_obstructions(self):
        import random
        # one web with nonzero invariants (pins the -3 factor) and one
        # generic web
        webs = [WEB5, _web("x/y", "x + y^2")]
        for web in webs:
            E1, E2 = _derived_compatibility(web)
            I1, I2 = build_compatibility_pair(web)
            resid1 = add(mul(3, E1), I1)
            resid2 = add(mul(3, E2), I2)
            rng = random.Random(11)
            for pt in sample_points(web, 6):
                lam = {"l1": random_rational(rng, F(-2), F(2)),
                       "l2": random_rational(rng, F(-2), F(2))}
                bindings = {**pt.bindings(), **lam}
                assert evaluate(resid1, bindings) == 0
                assert evaluate(resid2, bindings) == 0

    def test_obstructions_are_lambda_free(self):
        E1, E2 = _derived_compatibility(WEB5)
        for pt in sample_points(WEB5, 4):
            vals1, vals2 = set(), set()
            for lam in ({"l1": F(0), "l2": F(0)},
                        {"l1": F(1, 3), "l2": F(-2, 5)},
                        {"l1": F(-7, 4), "l2": F(9, 2)}):
                bindings = {**pt.bindings(), **lam}
                vals1.add(evaluate(E1, bindings))
                vals2.add(evaluate(E2, bindings))
            assert len(vals1) == 1 and len(vals2) == 1


def _I_fp(web, p):
    """Independent oracle for the deformation scalar of the 4-subweb
    (x, y, f, p), the second-order invariant of the direction field of p
    against the frame:

        I(f, p) = [p1^2 d2(p2) - 2 p1 p2 m + p2^2 d1(p1)] / [p1 p2 (p2 - p1)]

    with p_i the frame derivatives of p and m the symmetrized mixed
    derivative (d1(p2) + d2(p1))/2.  It is written in the derivatives of p
    itself, not in the basic invariant a = p1/p2 that `calculus.mu` uses.
    """
    p1, p2 = web.d1(p), web.d2(p)
    m = div(add(web.d1(p2), web.d2(p1)), 2)
    num = add(mul(pow_(p1, 2), web.d2(p2)),
              mul(-2, p1, p2, m),
              mul(pow_(p2, 2), web.d1(p1)))
    return div(num, mul(p1, p2, sub(p2, p1)))


class TestIfp:
    """J_alpha against the I(f, p) form of the paper's second-order
    conditions."""

    def test_same_function_gives_zero(self):
        web = _web("y/x", "(1-y)/(1-x)", "(1-y)/(1-x)")
        assert J_alpha(web, 5).is_zero

    def test_repeated_direction_is_inconclusive(self):
        # g5 with f's direction (a5 = 1) or g4's (a5 = a4): no valid sample
        # point exists, as for a g4 with a coordinate direction
        for g5 in ("2*x/y", "x+y+1"):
            verdict, reports = check_dweb(_web("x/y", "x+y", g5))
            assert verdict == "INCONCLUSIVE"
            assert [r.name for r in reports] == ["I1", "I2", "J5"]
            assert all(r.verdict == "INCONCLUSIVE" and not r.evidence
                       and "domain too singular" in r.reason
                       for r in reports)

    def test_bol_J5_nonzero(self, corpus_results):
        verdict, reports = corpus_results["bol-five-web"]
        assert verdict == "NO"
        j5 = [r for r in reports if r.name == "J5"][0]
        assert j5.verdict == "NONZERO"

    def test_matches_mu_difference_exactly(self):
        # cross-formulation oracle: J_alpha = mu_a - mu_4 equals
        # I(f,g_a) - I(f,g4) with proportionality constant exactly +1, for
        # every J of the two corpus webs whose J do not vanish
        for name in ("bol-five-web", "spence-kummer-nine-web"):
            web = corpus.web_for(corpus.case_by_name(name))
            pts = sample_points(web, 8)
            for alpha in range(5, web.d + 1):
                j = J_alpha(web, alpha)
                assert not j.is_zero
                oracle = sub(_I_fp(web, web.g(alpha)), _I_fp(web, web.g(4)))
                resid = sub(j, oracle)
                for pt in pts:
                    assert evaluate(resid, pt.bindings()) == 0

    def test_swap_antisymmetry(self):
        web = corpus.web_for(corpus.case_by_name("bol-five-web"))
        swapped = WebSpec(f=web.f, gs=(web.gs[1], web.gs[0]),
                          domain=web.domain, seed=web.seed)
        j = J_alpha(web, 5)
        js = J_alpha(swapped, 5)
        total = sub(j, mul(-1, js))
        for pt in sample_points(web, 8):
            assert evaluate(total, pt.bindings()) == 0


class TestZeroTest:
    def test_trivial_zero(self):
        verdict, evidence, mode, reason = zero_test(sub(X, X), WEB1)
        assert verdict == "ZERO" and mode == "exact"
        assert len(evidence) == 8 and reason is None
        assert all(e.residual == "0" for e in evidence)

    @pytest.mark.parametrize("points", [0, -3])
    def test_policy_needs_a_point(self, points):
        # with no points every expression, a nonzero one too, would pass
        with pytest.raises(ValueError, match="at least one point"):
            ZeroTestPolicy(points=points)

    @pytest.mark.parametrize("points", [invariants.MAX_POINTS + 1, 10 ** 9])
    def test_policy_points_in_range(self, points):
        # the draw memo holds about 50 KB per point
        with pytest.raises(ValueError, match="more than"):
            ZeroTestPolicy(points=points)
        for ok in (1, invariants.MAX_POINTS):
            assert ZeroTestPolicy(points=ok).points == ok

    @pytest.mark.parametrize("bits", [2, invariants.MIN_PRECISION - 1,
                                      invariants.MAX_PRECISION + 1])
    def test_policy_precision_in_range(self, bits):
        # at 2 bits power-web, a YES web, was answered NO
        with pytest.raises(ValueError, match="precision outside"):
            ZeroTestPolicy(precision=bits)
        for ok in (invariants.MIN_PRECISION, invariants.MAX_PRECISION):
            assert ZeroTestPolicy(precision=ok).precision == ok

    def test_trivial_nonzero_first_sample(self):
        verdict, evidence, mode, _ = zero_test(sub(mul(X, Y), const(1)), WEB1)
        assert verdict == "NONZERO" and len(evidence) == 1

    def test_example_three_float_zero(self):
        web = _web("x + sqrt(x^2 - y)", "x + y",
                   domain=Rect(F(5, 4), F(7, 4), F(1, 8), F(3, 8)))
        I1, I2 = build_compatibility_pair(web)
        verdict, evidence, mode, _ = zero_test(I1, web)
        assert verdict == "ZERO" and mode == "float"

    def test_float_nonzero_needs_two_witnesses(self):
        # a nonzero transcendental expression: exp(x) - 1 - x
        e = parse("exp(x) - 1 - x")
        verdict, evidence, mode, _ = zero_test(e, WEB1)
        assert verdict == "NONZERO" and mode == "float"
        big = [ev for ev in evidence if abs(float(ev.residual)) > 1e-30]
        assert len(big) >= 2

    def test_parameter_webs_get_three_draws(self):
        web = _web("x/y", "x^n + y^n")
        verdict, evidence, mode, _ = zero_test(const(0), web)
        assert verdict == "ZERO"
        assert len(evidence) == 24  # 3 draws x 8 points
        draws = {tuple(sorted(e.point.params.items())) for e in evidence}
        assert len(draws) == 3

    def test_deterministic_evidence(self):
        r1 = zero_test(sub(X, Y), WEB1)
        r2 = zero_test(sub(X, Y), WEB1)
        assert r1 == r2

    def test_degenerate_domain_inconclusive(self):
        # g = x duplicates a coordinate foliation: no valid sample exists
        web = _web("x/y", "x")
        verdict, evidence, mode, reason = zero_test(sub(X, X), web)
        assert verdict == "INCONCLUSIVE"
        assert reason and "singular" in reason

    def test_scale_beyond_double_range(self):
        # exp(3000 x) is about 10^326..10^977 here; its scale once
        # overflowed to inf as a double and made every residual vanish
        verdict, evidence, mode, _ = zero_test(parse("exp(3000*x)"), WEB1)
        assert verdict == "NONZERO" and mode == "float"

    @pytest.mark.parametrize("bits", [2150, 4096])
    def test_threshold_past_double_range(self, bits):
        # 2^-(bits/2) is 0.0 as a double from 2150 bits on; a threshold
        # computed in doubles then let no float residual vanish
        # (the plain exponential-twist's invariants are exact, so it is
        # checked under the substitution only)
        policy = ZeroTestPolicy(precision=bits)
        case = corpus.case_by_name("parabola-tangents")
        for web, want in ((corpus.web_for(case), "YES"),
                          (corpus.substituted_web(case), "YES"),
                          (corpus.substituted_web(corpus.case_by_name(
                              "exponential-twist")), "NO")):
            verdict, reports = check_dweb(web, policy)
            assert verdict == want, web.f
            assert {r.mode for r in reports} == {"float"}

    def test_exact_budget_is_inconclusive(self):
        web = _web("x/y", "x^100000 + y")
        I1, _ = build_compatibility_pair(web)
        verdict, _, mode, reason = zero_test(I1, web)
        assert (verdict, mode) == ("INCONCLUSIVE", "exact")
        assert reason == "exact evaluation exceeded 262144 bits"
        # the budget also stops sampling; evaluation never falls back
        verdict, _, _, reason = zero_test(sub(X, X), web)
        assert verdict == "INCONCLUSIVE" and "262144 bits" in reason

    @pytest.mark.parametrize("script, reason", [
        ("E" * 17, "too many singular samples"),
        ("E" * 16 + "1" + "0" * 7,
         "sampling budget exhausted with an unconfirmed outlier"),
        ("1" + "0" * 8,
         "a single sample exceeded the threshold without confirmation"),
    ])
    def test_scripted_inconclusive_exits(self, monkeypatch, script, reason):
        # evaluation outcomes in order: E a singular sample, 1 a value above
        # the threshold, 0 a vanishing one (8 points, budget 24, cap 16)
        outcomes = iter(script)

        def scripted(e, bindings, precision=None, *, store=None, raw=False):
            assert raw  # the test decides on libmp tuples
            step = next(outcomes)
            if step == "E":
                raise SingularSampleError("scripted")
            return libmp.from_int(int(step)), libmp.fone

        def exact(*args, **kwargs):
            raise AssertionError("exact evaluation of a float-mode expression")

        monkeypatch.setattr(invariants, "evaluate_scaled", scripted)
        monkeypatch.setattr(invariants, "evaluate", exact)
        verdict, evidence, mode, got = zero_test(parse("exp(x)"), WEB5)
        assert (verdict, mode, got) == ("INCONCLUSIVE", "float", reason)
        assert len(evidence) == len(script.replace("E", ""))
        assert next(outcomes, None) is None  # every scripted step was used

    def test_inconclusive_propagates_to_verdict(self):
        # with shared draws, every invariant still meets the singular domain
        verdict, reports = check_dweb(_web("x/y", "x"))
        assert verdict == "INCONCLUSIVE"
        assert [r.verdict for r in reports] == ["INCONCLUSIVE"] * 2
        assert all("singular" in r.reason and not r.evidence
                   for r in reports)


class TestSharedSamples:
    """The invariants of a web share one memo of drawn and validated
    points, and each still gets the evidence of an independent run."""

    def test_divergent_consumption_matches_fresh_runs(self, monkeypatch):
        # the radical fails at every x < 1/2, so the first expression uses
        # more draws per parameter value than the second and the two walks
        # of Random(web.seed) part after the first parameter draw
        web = _web("x/y", "x^n + y^n")
        exprs = [parse("sqrt(x-1/2)*sqrt(2*x-1) - sqrt(2)*(x-1/2)"), const(0)]
        calls = []
        counted = invariants.sample_points
        monkeypatch.setattr(invariants, "sample_points",
                            lambda *a, **kw: calls.append(1) or counted(*a, **kw))
        fresh, alone = [], []   # results and draws of independent runs
        for e in exprs:
            start = len(calls)
            fresh.append(zero_test(e, web))
            alone.append(len(calls) - start)
        del calls[:]
        memo = invariants.SampleMemo()
        shared = [zero_test(e, web, memo=memo) for e in exprs]
        assert shared == fresh
        points = [[ev.point for ev in r[1]] for r in fresh]
        assert points[0] != points[1]
        draws = [list(dict.fromkeys(tuple(sorted(ev.point.params.items()))
                                    for ev in r[1])) for r in fresh]
        assert draws[0][0] == draws[1][0] and draws[0][1:] != draws[1][1:]
        # the second test replays a prefix, then draws past the divergence
        assert alone[0] < len(calls) < sum(alone)
        drawn = len(calls)
        zero_test(exprs[1], web, memo=memo)
        assert len(calls) == drawn

    def test_replayed_draws_touch_no_generator_state(self, monkeypatch):
        # a point is keyed by its stream position: a new draw reads the
        # state after it once, a replayed one neither reads nor sets it,
        # and the generator is set only to draw again after a replay
        web = corpus.web_for(corpus.case_by_name("power-web"))
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("getstate", "setstate"):
            monkeypatch.setattr(random.Random, name,
                                counted(name, getattr(random.Random, name)))
        monkeypatch.setattr(invariants, "sample_points",
                            counted("draws", invariants.sample_points))
        I1, I2 = build_compatibility_pair(web)
        memo = invariants.SampleMemo(web)
        first = zero_test(I1, web, memo=memo)
        assert calls["getstate"] == calls["draws"] == len(memo.points) > 10
        assert calls["setstate"] == 0
        zero_test(I2, web, memo=memo)
        assert calls["getstate"] == calls["draws"] == len(memo.points)
        assert calls["setstate"] <= 1
        before = dict(calls)
        assert zero_test(I1, web, memo=memo) == first
        assert zero_test(I2, web, memo=memo)[0] == "ZERO"
        assert calls == before  # every draw replayed

    def test_memo_serves_one_web(self):
        # a memo replays by stream position, which another domain or seed
        # would give other points: at [2, 3]^2 a shared memo once reported
        # the default domain's first point (340/1101, 1527/4180)
        a = WEB1
        b = _web("x/y", "x+y", domain=Rect(2, 3, 2, 3))
        I1, _ = build_compatibility_pair(a)
        memo = invariants.SampleMemo()
        zero_test(I1, a, memo=memo)
        for other in (b, _web("x/y", "x+y", seed=2), _web("x/y", "x-y")):
            with pytest.raises(ExprError, match="another web"):
                zero_test(I1, other, memo=memo)
        assert zero_test(I1, _web("x/y", "x+y"), memo=memo) == zero_test(I1, a)
        _, evidence, _, _ = zero_test(I1, b)
        first = evidence[0].point
        assert (first.x, first.y) == (F(1166, 551), F(2331, 1045))
        assert all(2 <= ev.point.x <= 3 and 2 <= ev.point.y <= 3
                   for ev in evidence)
        with pytest.raises(ExprError, match="another web"):
            zero_test(I1, b, memo=invariants.SampleMemo(a))

    @pytest.mark.parametrize("case", [*corpus.CASES, corpus.LINEAR_FIVE_WEB],
                             ids=lambda c: c.name)
    def test_check_dweb_equals_independent_tests(self, case):
        web = corpus.web_for(case)
        policy = ZeroTestPolicy()
        _, reports = check_dweb(web, policy)
        exprs = [*build_compatibility_pair(web),
                 *(J_alpha(web, alpha) for alpha in range(5, web.d + 1))]
        assert [r.name for r in reports] == [
            "I1", "I2", *(f"J{alpha}" for alpha in range(5, web.d + 1))]
        for r, e in zip(reports, exprs, strict=True):
            assert (r.verdict, r.evidence, r.mode, r.reason) == \
                zero_test(e, web, policy)

    @pytest.mark.parametrize("name", ["two-pencils", "bol-five-web",
                                      "power-web"])
    def test_each_point_validated_once(self, monkeypatch, name):
        seen = []
        valid = calculus._point_is_valid

        def counting(web, point, *args):
            ok = valid(web, point, *args)
            if ok:
                seen.append((point.x, point.y,
                             tuple(sorted(point.params.items()))))
            return ok

        monkeypatch.setattr(calculus, "_point_is_valid", counting)
        _, reports = check_dweb(corpus.web_for(corpus.case_by_name(name)))
        assert len(seen) == len(set(seen))
        used = {(ev.point.x, ev.point.y,
                 tuple(sorted(ev.point.params.items())))
                for r in reports for ev in r.evidence}
        assert used <= set(seen)
        assert sum(len(r.evidence) for r in reports) > len(seen)


class TestCheckers:
    def test_check_4web_wrapper(self):
        verdict, reports = check_dweb(_web("x/y", "(1-y)/(1-x)"))
        assert verdict == "YES"
        assert [r.name for r in reports] == ["I1", "I2"]

    def test_dweb_delegates_for_d4(self, corpus_results):
        verdict, reports = corpus_results["two-pencils"]
        assert verdict == "YES" and len(reports) == 2

    def test_nine_web_report_names(self, corpus_results):
        _, reports = corpus_results["spence-kummer-nine-web"]
        assert [r.name for r in reports] == [
            "I1", "I2", "J5", "J6", "J7", "J8", "J9"]

    def test_subweb_monotonicity_on_linear_five_web(self):
        web = corpus.web_for(corpus.LINEAR_FIVE_WEB)
        assert check_dweb(web)[0] == "YES"
        for g in web.gs:
            v, _ = check_dweb(WebSpec(f=web.f, gs=(g,), domain=web.domain))
            assert v == "YES"

    def test_determinism_across_runs(self):
        web = corpus.web_for(corpus.case_by_name("two-pencils"))
        v1, r1 = check_dweb(web)
        v2, r2 = check_dweb(web)
        assert v1 == v2
        assert json.dumps([r.to_json() for r in r1]) == \
            json.dumps([r.to_json() for r in r2])


class TestJetOrder:
    """The invariants depend on exactly the jets the paper names."""

    def test_compatibility_pair_is_fourth_order(self, jet_changes):
        web = _web("x/y", "x + y^2")
        assert all(map(all, jet_changes(web, build_compatibility_pair, 4)))
        assert not any(map(any, jet_changes(web, build_compatibility_pair, 5)))

    def test_J_alpha_is_second_order(self, jet_changes):
        web = corpus.web_for(corpus.case_by_name("bol-five-web"))
        j5 = lambda w: [J_alpha(w, 5)]  # noqa: E731
        assert all(map(all, jet_changes(web, j5, 2)))
        assert not any(map(any, jet_changes(web, j5, 3)))


class TestReportJson:
    def test_schema_keys(self, corpus_results):
        _, reports = corpus_results["pencil-with-parallels"]
        d = reports[0].to_json()
        assert set(d) == {"name", "verdict", "dag_size", "evidence"}
        for e in d["evidence"]:
            assert set(e) == {"point", "params", "residual", "mode"}
            assert all(isinstance(v, str) for v in e["point"])
            assert isinstance(e["residual"], str)


def _roots(web):
    """What `check_dweb` keys its slot program by."""
    return (*web.validity_checks, *build_compatibility_pair(web),
            *(J_alpha(web, alpha) for alpha in range(5, web.d + 1)))


def _report_json(web):
    verdict, reports = check_dweb(web)
    return json.dumps([verdict, *(r.to_json() for r in reports)])


class TestCrossCheckCaches:
    """Built invariants and slot programs are reused across checks of the
    same web functions; nothing a check reports depends on them."""

    @pytest.fixture(autouse=True)
    def cleared(self):
        invariants.clear_caches()
        yield
        invariants.clear_caches()

    @pytest.mark.parametrize("functions", [
        ["--f", "x/y", "--g", "(1 - y)/(1 - x)"],                   # exact
        ["--f", "(x^3 + x)*exp(-y)", "--g", "exp(y) + x^3 + x"],    # float
        ["--f", "x/y", "--g", "x + y", "--g", "2*x + y"],           # 5-web
    ], ids=["exact", "float", "five-web"])
    def test_cached_run_prints_what_a_cleared_run_prints(self, capsys,
                                                         functions):
        def run(*extra):
            assert cli.main(["check", "--json", *functions, *extra]) == 0
            return capsys.readouterr().out

        runs = [("--seed", "1"),
                ("--seed", "5", "--domain", "3/10,7/10,1/5,3/5"),
                ("--seed", "9", "--precision", "64"),
                ("--seed", "2", "--domain", "1/3,2/3,1/3,2/3",
                 "--precision", "512")]
        cleared = []
        for extra in runs:
            invariants.clear_caches()
            cleared.append(run(*extra))
        invariants.clear_caches()
        # a first sighting, a second that publishes, then two hits
        assert [run(*extra) for extra in runs] == cleared
        assert len(invariants._PROGRAMS) == 1

    def test_second_sighting_publishes_a_sealed_program(self):
        web = corpus.web_for(corpus.case_by_name("bol-five-web"))
        first = _report_json(web)
        assert not invariants._PROGRAMS and _roots(web) in invariants._SIGHTED
        # the same functions under another seed and domain are the same roots
        other = WebSpec(f=web.f, gs=web.gs, seed=3,
                        domain=Rect(F(1, 3), F(2, 3), F(1, 3), F(2, 3)))
        _report_json(other)
        program = invariants._PROGRAMS[_roots(web)]
        assert program.sealed and set(program.codes) == set(_roots(web))
        assert _report_json(web) == first
        assert invariants._PROGRAMS[_roots(web)] is program

    def test_held_slots_stay_within_the_bound(self, monkeypatch):
        assert invariants._PROGRAMS.bound == invariants.MAX_PROGRAM_SLOTS
        webs = [corpus.web_for(corpus.case_by_name(name))
                for name in ("two-pencils", "power-web", "bol-five-web")]
        want = [_report_json(web) for web in webs]
        sizes = [len(Program(_roots(web)).instructions) for web in webs]
        # room for the two largest together, so publishing evicts
        bound = sum(sorted(sizes)[1:])
        held = invariants.BoundedMemo(bound, invariants._PROGRAMS.weight)
        monkeypatch.setattr(invariants, "_PROGRAMS", held)
        for _ in range(3):
            for web, report in zip(webs, want):
                assert _report_json(web) == report
                assert held.held == sum(
                    len(p.instructions) for p in held.values()) <= bound
        assert 0 < len(held) < len(webs)
        # a program larger than the bound is never held, and still checks
        small = invariants.BoundedMemo(min(sizes) - 1, held.weight)
        monkeypatch.setattr(invariants, "_PROGRAMS", small)
        for _ in range(3):
            for web, report in zip(webs, want):
                assert _report_json(web) == report
        assert not small and small.held == 0

    def test_builder_memo_stays_within_its_count(self, monkeypatch):
        pairs = invariants.BoundedMemo(2)
        monkeypatch.setattr(invariants, "_PAIRS", pairs)
        assert invariants._JS.bound == calculus.MAX_BUILT
        webs = [corpus.web_for(case) for case in corpus.CASES]
        built = [build_compatibility_pair(web) for web in webs]
        assert len(pairs) == 2 and pairs.held == 2
        assert [build_compatibility_pair(web) for web in webs] == built

    def test_threads_share_one_program(self):
        web = corpus.web_for(corpus.case_by_name("double-parabola-tangents"))
        want = _report_json(web)
        invariants.clear_caches()
        results: list[str] = []

        def check():
            results.append(_report_json(web))

        def round_of_8():
            threads = [threading.Thread(target=check) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        round_of_8()  # cold: every thread sights the roots, some publish
        round_of_8()  # every thread has sighted them: one program is held
        program = invariants._PROGRAMS[_roots(web)]
        size = len(program.instructions)
        round_of_8()  # on the published program
        assert results == [want] * 24
        assert _report_json(web) == want
        assert invariants._PROGRAMS[_roots(web)] is program
        assert len(program.instructions) == size == len(
            {n for root in _roots(web) for n in topo_order(root)})

    @pytest.mark.parametrize("case", [*corpus.CASES, corpus.LINEAR_FIVE_WEB],
                             ids=lambda c: c.name)
    def test_memoized_invariants_are_the_built_nodes(self, case):
        web = corpus.web_for(case)
        memoized = (*build_compatibility_pair(web),
                    *(J_alpha(web, alpha) for alpha in range(5, web.d + 1)))
        moved = WebSpec(f=web.f, gs=web.gs, seed=7,
                        domain=Rect(F(1, 3), F(2, 3), F(1, 3), F(2, 3)))
        assert (*build_compatibility_pair(moved),
                *(J_alpha(moved, a) for a in range(5, web.d + 1))) == memoized
        invariants.clear_caches()
        m = mu(web, 4)
        built = (I1_of_mu(m, web), I2_of_mu(m, web),
                 *(sub(mu(web, alpha), m) for alpha in range(5, web.d + 1)))
        assert all(a is b for a, b in zip(memoized, built, strict=True))
        assert all(a is b for a, b in zip(
            memoized, (*build_compatibility_pair(web),
                       *(J_alpha(web, a) for a in range(5, web.d + 1)))))


def _near(bound: tuple, prec: int):
    """Values about a positive p-bit `bound`: zero, the bound, one ulp
    either side of it and p-bit values around it, each of either sign."""
    sign, man, exp, bc = bound
    m, e = man << (prec - bc), exp - (prec - bc)  # m has exactly p bits
    below = (m - 1, e) if m > 1 << (prec - 1) else ((1 << prec) - 1, e - 1)
    exact = st.sampled_from([(0, 0), (m, e), (m + 1, e), below])
    wide = st.tuples(st.integers(1, (1 << prec) - 1),
                     st.integers(e - 3, e + 3))
    return st.tuples(st.booleans(), exact | wide).map(
        lambda d: libmp.from_man_exp(-d[1][0] if d[0] else d[1][0], d[1][1]))


@st.composite
def _valued(draw, scaled: bool):
    prec = draw(st.sampled_from([24, 256, 2048]))
    scale = libmp.fone
    if scaled and draw(st.booleans()):
        # max(1, magnitude) of p-bit values: at least 1, at most p bits
        scale = libmp.from_man_exp(draw(st.integers(1, (1 << prec) - 1)),
                                   draw(st.integers(0, 3 * prec)))
    bound = (libmp.mpf_shift(scale, -(prec // 2)) if scaled
             else libmp.mpf_shift(libmp.fone, -100))
    return prec, scale, draw(_near(bound, prec))


class TestRawDecisions:
    """The sample validation and the vanishing test decide on libmp tuples;
    each decision is the mpf comparison it replaces, made at the value's
    own precision (at the default 53 bits `abs` would first round a wider
    value, and the comparison one ulp below the bound would differ)."""

    @given(_valued(scaled=False))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_validation_equals_the_mpf_comparison(self, drawn):
        prec, _, v = drawn
        with mpmath.workprec(prec):
            want = abs(mpmath.mp.make_mpf(v)) < 2.0 ** -100
        assert calculus._negligible(v) == want

    @given(_valued(scaled=True))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_vanishing_equals_the_threshold_comparison(self, drawn):
        prec, scale, v = drawn
        policy = ZeroTestPolicy(precision=prec)
        with mpmath.workprec(prec):
            want = abs(mpmath.mp.make_mpf(v)) < policy.threshold(
                mpmath.mp.make_mpf(scale))
        assert policy.vanishes(v, scale) == want
