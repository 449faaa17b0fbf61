"""Weighted covariant calculus and the closed-form conditions."""
from __future__ import annotations

from fractions import Fraction

import pytest

from weblin.expr import (parse, evaluate, evaluate_scaled, EvalContext, sub,
                         mul, add, is_exactly_evaluable, ExprError)
from weblin.calculus import (Rect, WebSpec, sample_points, web_K,
                             basic_invariant)
from weblin.covariant import (WeightedScalar, delta, commutator_residual,
                              prolong_a, tilde_a, curvature_derivatives,
                              K1_closed_residual, K2_closed_residual)
from weblin.invariants import zero_test
from weblin import corpus

F = Fraction


def _web(f, *gs, **kw):
    return WebSpec(f=parse(f), gs=tuple(parse(g) for g in gs), **kw)


WEB2 = _web("x/y", "(1-y)/(1-x)")


def _assert_vanishes(e, web, points=8):
    exact = is_exactly_evaluable(e)
    for pt in sample_points(web, points):
        if exact:
            assert evaluate(e, EvalContext(pt.bindings())) == 0
        else:
            v, scale = evaluate_scaled(e, EvalContext(pt.bindings(),
                                                      mode="float",
                                                      precision=256))
            assert abs(v) < 2.0 ** -128 * max(1, float(scale))


class TestDelta:
    def test_weight_zero_is_plain_frame_derivative(self):
        a = WeightedScalar(basic_invariant(WEB2), 0)
        assert delta(a, 1, WEB2).expr is WEB2.d1(a.expr)
        assert delta(a, 2, WEB2).expr is WEB2.d2(a.expr)

    def test_weight_increments(self):
        a = WeightedScalar(basic_invariant(WEB2), 0)
        out = a
        for i in (1, 2, 1, 2):
            out = delta(out, i, WEB2)
        assert out.weight == 4

    def test_curvature_derivative_formula(self):
        K1, K2 = curvature_derivatives(WEB2)
        assert K1 is sub(WEB2.d1(WEB2.K), mul(2, WEB2.H, WEB2.K))
        assert K2 is sub(WEB2.d2(WEB2.K), mul(2, WEB2.H, WEB2.K))

    def test_flat_frame_reduces_to_plain_derivative(self):
        web = _web("x+y", "x-y")
        u = WeightedScalar(parse("x^2*y"), 3)
        assert delta(u, 1, web).expr is web.d1(u.expr)

    def test_invalid_index(self):
        with pytest.raises(ExprError):
            delta(WeightedScalar(parse("x"), 0), 3, WEB2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ExprError):
            WeightedScalar(parse("x"), -1)


class TestCommutator:
    def test_weights_zero_one_two(self):
        a = WeightedScalar(basic_invariant(WEB2), 0)
        a1 = delta(a, 1, WEB2)
        Kw = WeightedScalar(web_K(WEB2), 2)
        for u in (a, a1, Kw):
            _assert_vanishes(commutator_residual(u, WEB2), WEB2)

    def test_on_radical_web(self):
        web = _web("x + sqrt(x^2 - y)", "x+y",
                   domain=Rect(F(5, 4), F(7, 4), F(1, 8), F(3, 8)))
        a = WeightedScalar(basic_invariant(web), 0)
        a1 = delta(a, 1, web)
        Kw = WeightedScalar(web_K(web), 2)
        for u in (a, a1, Kw):
            _assert_vanishes(commutator_residual(u, web), web)


class TestProlongations:
    def test_constant_invariant_all_vanish(self):
        web = _web("x+y", "x-y")  # a = -1
        p = prolong_a(web)
        for name, e in p.items():
            if name != "a":
                assert e.is_zero, name

    def test_symmetrization_identities(self):
        K = web_K(WEB2)
        t = tilde_a(WEB2)
        p = prolong_a(WEB2)
        _assert_vanishes(sub(t["t112"], add(p["a112"],
                                            mul(F(2, 3), K, p["a1"]))), WEB2)
        _assert_vanishes(sub(t["t121"], sub(p["a112"],
                                            mul(F(1, 3), K, p["a1"]))), WEB2)
        _assert_vanishes(sub(t["t221"], sub(p["a122"],
                                            mul(F(2, 3), K, p["a2"]))), WEB2)
        _assert_vanishes(sub(t["t122"], add(p["a122"],
                                            mul(F(1, 3), K, p["a2"]))), WEB2)

    def test_mixed_second_derivative_symmetric(self):
        a = WeightedScalar(basic_invariant(WEB2), 0)
        a12 = delta(delta(a, 1, WEB2), 2, WEB2).expr
        a21 = delta(delta(a, 2, WEB2), 1, WEB2).expr
        _assert_vanishes(sub(a12, a21), WEB2)

    def test_a11_explicit_expansion(self):
        a = basic_invariant(WEB2)
        p = prolong_a(WEB2)
        direct = sub(WEB2.d1(WEB2.d1(a)), mul(WEB2.H, WEB2.d1(a)))
        _assert_vanishes(sub(p["a11"], direct), WEB2)

    def test_cartan_coefficient_of_second_prolongation(self):
        # the omega_2 coefficient of the covariant differential of a11 is
        # a112 + (2/3) K a1; extracted by frame duality it is t112
        K = web_K(WEB2)
        t = tilde_a(WEB2)
        p = prolong_a(WEB2)
        coeff = delta(delta(delta(WeightedScalar(basic_invariant(WEB2), 0),
                                  1, WEB2), 1, WEB2), 2, WEB2).expr
        assert coeff is t["t112"]
        _assert_vanishes(sub(coeff, add(p["a112"], mul(F(2, 3), K, p["a1"]))),
                         WEB2)


class TestClosedForm:
    def test_two_pencils_residuals_vanish(self):
        _assert_vanishes(K1_closed_residual(WEB2), WEB2)
        _assert_vanishes(K2_closed_residual(WEB2), WEB2)

    def test_exponential_twist_residuals_nonzero(self):
        web = _web("x/y", "(x+y)*exp(-x)")
        for r in (K1_closed_residual(web), K2_closed_residual(web)):
            verdict, _, _, _ = zero_test(r, web)
            assert verdict == "NONZERO"

    def test_verdict_equivalence_sample(self, corpus_results):
        # the full nine-web equivalence is acceptance criterion 5; spot-check
        # one YES and one NO case here
        for name in ("two-pencils", "exponential-twist"):
            case = corpus.case_by_name(name)
            web = corpus.web_for(case)
            k1, _, _, _ = zero_test(K1_closed_residual(web), web)
            k2, _, _, _ = zero_test(K2_closed_residual(web), web)
            _, reports = corpus_results[name]
            assert (k1, k2) == (reports[0].verdict, reports[1].verdict)
