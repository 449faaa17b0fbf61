"""Frame operators, fundamental scalars, and sampling."""
from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest

from weblin import expr as E
from weblin.expr import (parse, derive, evaluate, evaluate_scaled,
                         const, mul, div, neg, sub,
                         is_exactly_evaluable)
from weblin.calculus import (Rect, WebSpec, web_K, basic_invariant,
                             mu, sample_points, random_rational,
                             reparameterized, DomainTooSingularError,
                             PARAM_RANGE)
from weblin.invariants import check_dweb
from weblin import corpus

F = Fraction


def _web(f, *gs, **kw):
    return WebSpec(f=parse(f), gs=tuple(parse(g) for g in gs), **kw)


WEB1 = _web("x/y", "x+y")


class TestWebSpec:
    def test_needs_a_g(self):
        with pytest.raises(E.ExprError):
            WebSpec(f=parse("x/y"), gs=())

    def test_d_counts_foliations(self):
        assert WEB1.d == 4
        assert _web("x/y", "x+y", "2*x+y").d == 5

    def test_default_param_range(self):
        web = _web("x/y", "x^n + y^n")
        assert web.params == ("n",)
        assert PARAM_RANGE == (F(2), F(7))
        for pt in sample_points(web, 8):
            assert F(2) <= pt.params["n"] <= F(7)

    def test_g_index_bounds(self):
        with pytest.raises(E.ExprError):
            WEB1.g(5)
        assert WEB1.g(4) is parse("x+y")


class TestPartial:
    def test_quotient_rule(self):
        assert derive(parse("x/y"), "x") is parse("1/y")
        assert derive(parse("x/y"), "y") is parse("-x/y^2")

    def test_parameter_power_rule(self):
        d = derive(parse("x^n"), "x")
        assert d is parse("n*x^(n - 1)")


class TestFrameOperators:
    def test_d1_of_basic_invariant(self):
        # f = x/y sends a = -x/y to 1 (the frame divides by f_x = 1/y)
        a = basic_invariant(WEB1)
        assert a is parse("-x/y")
        assert WEB1.d1(a) is const(1)
        assert WEB1.d2(a) is const(1)

    def test_sum_web_frame_is_negated_gradient(self):
        web = _web("x+y", "x-y")
        e = parse("x^2*y")
        assert web.d1(e) is neg(derive(e, "x"))
        assert web.d2(e) is neg(derive(e, "y"))

    def test_d_of_constant(self):
        assert WEB1.d1(const(7)).is_zero
        assert WEB1.d2(const(-3)).is_zero

    def test_frame_is_held_by_the_web(self):
        web = _web("x*y", "x+y")
        assert (web.fx, web.fy) == (derive(web.f, "x"), derive(web.f, "y"))
        assert web.H is web.H and web.K is web.K
        # a second web with the same f holds the same interned frame
        other = _web("x*y", "x-y")
        assert other.H is web.H and other.K is web.K


class TestH:
    def test_additive_f_flat(self):
        assert _web("x+y", "x-y").H.is_zero

    def test_product_f(self):
        H = _web("x*y", "x+y").H
        assert evaluate(H, {"x": F(3, 2), "y": F(5, 7)}) == F(14, 15)

    def test_matches_defining_quotient_by_finite_differences(self):
        # independent oracle: f_xy by central differences at 300 bits
        web = WEB1
        H = web.H
        f = web.f
        with mpmath.workprec(300):
            h = F(1, 2 ** 60)
            for pt in sample_points(web, 8):
                xv, yv = pt.x, pt.y

                def val(e, xx, yy):
                    return evaluate(e, {"x": xx, "y": yy}, 300)

                fxy = (val(f, xv + h, yv + h) - val(f, xv + h, yv - h)
                       - val(f, xv - h, yv + h) + val(f, xv - h, yv - h)) / (4 * h * h)
                fx = (val(f, xv + h, yv) - val(f, xv - h, yv)) / (2 * h)
                fy = (val(f, xv, yv + h) - val(f, xv, yv - h)) / (2 * h)
                want = fxy / (fx * fy)
                got = val(H, xv, yv)
                assert abs(got - want) < mpmath.mpf(2) ** -80 * max(1, abs(want))


class TestK:
    def test_additive_f(self):
        assert web_K(_web("x+y", "x-y")).is_zero

    def test_product_f_hexagonal(self):
        web = _web("x*y", "x+y")
        d1H, d2H = web.d1(web.H), web.d2(web.H)
        bindings = {"x": F(2, 5), "y": F(3, 7)}
        want = F(1, (F(2, 5) * F(3, 7)) ** 2)
        assert evaluate(d1H, bindings) == want
        assert evaluate(d2H, bindings) == want
        assert evaluate(web_K(web), bindings) == 0

    def test_modes_agree_for_radical_web(self):
        web = _web("x + sqrt(x^2 - y)", "x+y",
                   domain=Rect(F(5, 4), F(7, 4), F(1, 8), F(3, 8)))
        diff = sub(web_K(web, "structure"), web_K(web, "log"))
        for pt in sample_points(web, 8):
            v, scale = evaluate_scaled(diff, pt.bindings(), 256)
            assert abs(v) < 2.0 ** -128 * max(1, float(scale))

    def test_modes_agree_exactly_for_rational_webs(self):
        for name in ("pencil-with-parallels", "two-pencils", "bol-four-subweb"):
            web = corpus.web_for(corpus.case_by_name(name))
            diff = sub(web_K(web, "structure"), web_K(web, "log"))
            assert is_exactly_evaluable(diff)
            for pt in sample_points(web, 8):
                assert evaluate(diff, pt.bindings()) == 0

    def test_unknown_mode(self):
        with pytest.raises(E.ExprError):
            web_K(WEB1, "bogus")


class TestBasicInvariant:
    def test_pencil_with_parallels(self):
        assert basic_invariant(WEB1) is parse("-x/y")

    def test_constant_invariant(self):
        assert basic_invariant(_web("x+y", "x-y")) is const(-1)

    def test_two_formulas_identical(self):
        # f_y g_x / (f_x g_y) and d1(g)/d2(g) canonicalize to one DAG
        for case in corpus.CASES:
            web = corpus.web_for(case)
            for alpha in range(4, web.d + 1):
                g = web.g(alpha)
                assert basic_invariant(web, alpha) is div(web.d1(g), web.d2(g))

    def test_two_formulas_agree_at_points(self):
        for case in corpus.CASES:
            web = corpus.web_for(case)
            a = basic_invariant(web, 4)
            alt = div(web.d1(web.g(4)), web.d2(web.g(4)))
            diff = sub(a, alt)
            for pt in sample_points(web, 8):
                precision = None if is_exactly_evaluable(diff) else 256
                v = evaluate(diff, pt.bindings(), precision)
                assert abs(v) == 0


class TestMu:
    def test_pencil_with_parallels_value(self):
        m = mu(WEB1)
        for pt in sample_points(WEB1, 8):
            assert evaluate(m, pt.bindings()) == -pt.y / pt.x

    def test_constant_invariant_gives_zero(self):
        assert mu(_web("x+y", "x-y")).is_zero

    def test_linear_five_web_mu_agrees_across_subwebs(self):
        web = corpus.web_for(corpus.LINEAR_FIVE_WEB)
        m4, m5 = mu(web, 4), mu(web, 5)
        diff = sub(m4, m5)
        for pt in sample_points(web, 8):
            assert evaluate(diff, pt.bindings()) == 0


class TestCommutator:
    SCALARS = ("x^2*y - x/(y + 2)", "x*y", "sqrt(x + y + 2) + x")

    def test_rational_web_exact(self):
        web = WEB1
        for s in self.SCALARS[:2]:
            e = parse(s)
            resid = sub(sub(web.d1(web.d2(e)), web.d2(web.d1(e))),
                        mul(web.H, sub(web.d2(e), web.d1(e))))
            for pt in sample_points(web, 8):
                assert evaluate(resid, pt.bindings()) == 0

    def test_radical_web_float(self):
        web = _web("x + sqrt(x^2 - y)", "x+y",
                   domain=Rect(F(5, 4), F(7, 4), F(1, 8), F(3, 8)))
        for s in self.SCALARS:
            e = parse(s)
            resid = sub(sub(web.d1(web.d2(e)), web.d2(web.d1(e))),
                        mul(web.H, sub(web.d2(e), web.d1(e))))
            for pt in sample_points(web, 8):
                v, scale = evaluate_scaled(e=resid, bindings=pt.bindings(),
                                           precision=256)
                assert abs(v) < 2.0 ** -128 * max(1, float(scale))


class TestSampling:
    def test_reproducible(self):
        a = sample_points(WEB1, 8)
        b = sample_points(WEB1, 8)
        assert a == b

    def test_respects_domain_and_bounds(self):
        web = _web("x/y", "x+y", domain=Rect(F(1, 8), F(1, 2), F(1, 2), F(7, 8)))
        for pt in sample_points(web, 20):
            assert F(1, 8) <= pt.x <= F(1, 2)
            assert F(1, 2) <= pt.y <= F(7, 8)
            assert pt.x.denominator <= 10 ** 4 and abs(pt.x.numerator) <= 10 ** 4

    def test_rejects_singular_curve(self):
        # (x+y)exp(-x): a vanishes on x + y = 1, which crosses the default
        # domain; rejection must still find valid points
        web = _web("x/y", "(x+y)*exp(-x)")
        pts = sample_points(web, 10)
        assert len(pts) == 10
        for pt in pts:
            assert pt.x + pt.y != 1

    def test_validity_check_error_rejects_point(self):
        # g_x = 1/(2 sqrt(x - 1/2)) has no real value for x < 1/2 and is
        # singular at x = 1/2: those candidates fail evaluation, are
        # rejected, and the web still gets a verdict
        web = _web("x/y", "sqrt(x - 1/2) + y")
        pts = sample_points(web, 8)
        assert len(pts) == 8
        assert all(pt.x > F(1, 2) for pt in pts)
        verdict, reports = check_dweb(web)
        assert verdict == "NO"
        assert [r.verdict for r in reports] == ["NONZERO"] * 2

    def test_degenerate_web_reported(self):
        # g = x duplicates the first coordinate foliation: g_y == 0 everywhere
        web = _web("x/y", "x")
        with pytest.raises(DomainTooSingularError, match="too singular"):
            sample_points(web, 1)
        with pytest.raises(DomainTooSingularError) as err:
            sample_points(web, 1)
        assert str(err.value).endswith(
            "rejected samples in [1/4, 3/4] x [1/4, 3/4]")

    def test_random_rational_bounds(self):
        rng = random.Random(7)
        for _ in range(200):
            q = random_rational(rng, F(2), F(7))
            assert F(2) <= q <= F(7)
            assert q.denominator <= 10 ** 4 and q.numerator <= 10 ** 4


class TestReparameterization:
    def test_substituted_web_functions(self):
        web = reparameterized(WEB1, parse("x^3 + x"), parse("exp(y)"),
                              Rect(F(1, 4), F(1, 2), F(-2), F(-1)))
        assert web.f is parse("(x^3 + x)/exp(y)")
        assert web.gs[0] is parse("x^3 + x + exp(y)")

    def test_verdict_stability_single_case(self, corpus_results,
                                           substituted_results):
        for name in ("pencil-with-parallels", "exponential-twist"):
            assert (substituted_results[name][0]
                    == corpus_results[name][0])
