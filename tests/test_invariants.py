"""Linearizability invariants, vanishing test, and web verdicts."""
from __future__ import annotations

import json
import random
from fractions import Fraction

import mpmath
import pytest

from weblin.expr import (X, Y, parse, evaluate, const, sub, mul,
                         add, param, derive, SingularSampleError)
from weblin.calculus import (Rect, WebSpec, sample_points, mu,
                             random_rational)
from weblin.invariants import (ZeroTestPolicy, zero_test, I1_of_mu, I2_of_mu,
                               I_fp, J_alpha, build_compatibility_pair,
                               check_dweb, DegenerateDirectionError)
from weblin import calculus, corpus, invariants

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


class TestIfp:
    def test_same_function_gives_zero(self):
        web = _web("y/x", "(1-y)/(1-x)", "(x - x*y)/(y - x*y)")
        assert sub(I_fp(web, web.g(4)), I_fp(web, web.g(4))).is_zero

    def test_degenerate_direction(self):
        with pytest.raises(DegenerateDirectionError):
            I_fp(WEB1, WEB1.f)

    def test_bol_J5_nonzero(self, corpus_results):
        verdict, reports = corpus_results["bol-five-web"]
        assert verdict == "NO"
        j5 = [r for r in reports if r.name == "J5"][0]
        assert j5.verdict == "NONZERO"

    def test_matches_mu_difference_exactly(self):
        # cross-formulation oracle: I(f,g_a) - I(f,g4) == mu_a - mu_4 with
        # proportionality constant exactly +1
        web = corpus.web_for(corpus.case_by_name("bol-five-web"))
        j = J_alpha(web, 5)
        nu_diff = sub(mu(web, 5), mu(web, 4))
        resid = sub(j, nu_diff)
        for pt in sample_points(web, 8):
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

        def scripted(e, bindings, precision=None, store=None):
            step = next(outcomes)
            if step == "E":
                raise SingularSampleError("scripted")
            return mpmath.mpf(int(step)), mpmath.mpf(1)

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

    def test_memo_holds_each_state_once(self):
        # a point's "after" state is the key state of the next point: the
        # memo keeps one object per distinct generator state
        web = corpus.web_for(corpus.case_by_name("power-web"))
        memo = invariants.SampleMemo()
        for e in build_compatibility_pair(web):
            zero_test(e, web, memo=memo)
        held = ([key[0] for key in memo.points]
                + [hit[1] for hit in memo.points.values()])
        distinct = set(held)
        assert len(memo.points) > 10
        assert len({id(state) for state in held}) == len(distinct)
        assert len(distinct) < len(held)

    @pytest.mark.parametrize("case", [*corpus.CASES, corpus.LINEAR_FIVE_WEB],
                             ids=lambda c: c.name)
    def test_check_dweb_equals_independent_tests(self, case):
        web = corpus.web_for(case)
        policy = ZeroTestPolicy()
        _, reports = check_dweb(web, policy)
        for r in reports:
            assert (r.verdict, r.evidence, r.mode, r.reason) == \
                zero_test(r.expr, web, policy)

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
