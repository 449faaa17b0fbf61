"""Expression kernel: parsing, printing, canonicalization, evaluation."""
from __future__ import annotations

import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, assume, strategies as st
from mpmath import libmp

from weblin import expr as E
from weblin.expr import (X, Y, add, const, div, mul, neg, parse, pow_, sqrt,
                         sub, exp_, log_, param, derive, evaluate,
                         evaluate_scaled, format_expr, simplify, substitute,
                         dag_size, ExprError, ParseError, EvalError,
                         MissingBindingError, SingularSampleError,
                         DomainEvalError, ExactnessError, ExactBudgetError,
                         EXACT_BITS)
from weblin.linearizer import grid_function

F = Fraction


def ctx(x=F(1, 3), y=F(5, 7), precision=None, **params):
    return ({"x": F(x), "y": F(y), **{k: F(v) for k, v in params.items()}},
            precision)


class TestParsing:
    def test_division_structure(self):
        assert parse("x/y") is div(X, Y)

    def test_radical_structure(self):
        assert parse("x + sqrt(x^2 - y)") is add(X, pow_(sub(pow_(X, 2), Y),
                                                         F(1, 2)))

    def test_double_plus_position(self):
        with pytest.raises(ParseError) as err:
            parse("x + + y")
        assert err.value.position == 4

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function 'foo'"):
            parse("foo(x)")

    def test_function_needs_arguments(self):
        with pytest.raises(ParseError, match="argument list"):
            parse("x + sqrt")

    @pytest.mark.parametrize("text, message", [
        ("(x+y", "expected ')', found end of input at offset 4"),
        ("sqrt(x y)", "expected ')', found 'y' at offset 7"),
    ])
    def test_unclosed_parenthesis(self, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_no_implicit_multiplication(self):
        # "xy" is a parameter name, not x*y
        assert parse("xy") is param("xy")
        with pytest.raises(ParseError):
            parse("2x")

    def test_decimals_become_exact_rationals(self):
        assert parse("0.25") is const(F(1, 4))
        assert parse("0.1") is const(F(1, 10))

    def test_power_right_associative(self):
        assert parse("x^2^3") is pow_(X, 8)
        assert parse("x^-2") is pow_(X, -2)

    def test_unary_minus(self):
        assert parse("-x") is neg(X)
        assert parse("--x") is X

    def test_rational_literal(self):
        assert parse("1/2") is const(F(1, 2))

    def test_nesting_bound(self):
        assert parse("(" * 99 + "x" + ")" * 99) is X
        for deep in ("(" * 200 + "x" + ")" * 200, "-" * 1000 + "x",
                     "x^" * 200 + "2", "exp(" * 200 + "x" + ")" * 200):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse(deep)

    def test_root_index_beyond_the_bit_length(self):
        # 1 < 4^(1/q) < 2 for q >= 3: no rational root, decided from the
        # bit length alone (a Newton step from 2 would compute 2^(q-1))
        for text in ("4^(1/10^30)", "(1/4)^(1/10^30)"):
            t0 = time.perf_counter()
            e = parse(text)
            assert time.perf_counter() - t0 < 1, text
            assert e.kind == E.POW
        for q in range(2, 70):
            assert E._integer_root(2 ** q, q) == 2
            assert E._integer_root(2 ** q - 1, q) is None

    def test_uppercase_rejected(self):
        with pytest.raises(ParseError):
            parse("X + y")

    def test_folded_constants_are_bounded(self):
        # every DAG constant stays printable (str() of an int fails past
        # 4300 digits); a huge power is refused before it is computed
        assert parse("3^9000") is const(F(3) ** 9000)
        for text in ("2^(3^17)", "3^9000*3^9000", "3^10000", "(1/3)^10000",
                     "4^(30001/2)"):
            t0 = time.perf_counter()
            with pytest.raises(ExprError, match="constant exceeds 14284 bits"):
                parse(text)
            assert time.perf_counter() - t0 < 0.05, text
        for text in ("1" * 4301, "0." + "0" * 4298 + "1"):
            with pytest.raises(ParseError, match="number too long"):
                parse("x + " + text)


class TestHashConsing:
    def test_parse_twice_same_handle(self):
        s = "x + sqrt(x^2 - y)/(x - y)"
        assert parse(s) is parse(s)

    def test_commutativity_shares_nodes(self):
        assert mul(X, Y) is mul(Y, X)
        assert add(X, Y, const(2)) is add(const(2), Y, X)

    def test_threaded_construction_interns(self):
        results = []

        def build():
            results.append(parse("x^3*y - sqrt(x + 2)/y"))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)

    def test_lock_free_interning_under_contention(self):
        # interning and `derive` take no lock: with threads switching every
        # microsecond, 8 threads building and differentiating the same
        # fresh expressions get one node per key, the one the table holds
        ks = [10 ** 12 + 7 * i for i in range(12)]
        assert not any((E.CONST, k, 1) in E._table for k in ks)  # fresh
        texts = [f"(x + {k})^3*y - {k}*sqrt(x*y + {k})/(y - {k}) + exp(x/{k})"
                 for k in ks]
        cores = [f"x*y*(x + {k})" for k in ks]
        barrier = threading.Barrier(8)
        results = []

        def build():
            barrier.wait(timeout=60)
            out = []
            for text, core in zip(texts, cores):
                e = parse(text)
                out += [parse(f"2*{core} + 3*{core}"), e, derive(e, "x"),
                        derive(derive(e, "y"), "x")]
            results.append(out)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(a is b for r in results for a, b in zip(r, results[0]))

        def key(n):
            return ((n.kind, n.name, n.children) if n.value is None
                    else (n.kind, n.value.numerator, n.value.denominator))

        assert all(key(n) == k for k, n in E._table.items())
        assert all(E._table[key(n)] is n for n in E.topo_order(*results[0]))
        # like terms are collected under their factors: the sum of terms
        # that share a core of several factors interns no node for it
        for r in results[0][::4]:
            core = r.children[1:]
            assert r.coeff == 5 and len(core) > 1
            assert (E.MUL, None, core) not in E._table

    def test_threaded_evaluation_is_pure(self):
        e = parse("x^3*y - sqrt(x + 2)/y + exp(x - y)")
        c = ctx(F(1, 3), F(5, 7), precision=256)
        results = []

        def worker():
            results.append(evaluate(e, *c))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(map(str, results))) == 1


class TestSimplification:
    def test_cancellation_to_zero(self):
        e = parse("x*y + sqrt(x)")
        assert add(e, neg(e)).is_zero

    def test_one_identity(self):
        e = parse("x + y^2")
        assert mul(1, e) is e
        assert mul(e, 1, 1) is e

    def test_power_quotient(self):
        assert div(pow_(X, 2), X) is X  # valid off x = 0

    def test_constant_folding(self):
        assert parse("2*3 + 1/2 - 13/2") is const(0)
        assert parse("(2/3)^2") is const(F(4, 9))
        assert parse("sqrt(4/9)") is const(F(2, 3))

    def test_division_by_constant_zero_is_error_value(self):
        u = parse("1/0")
        assert u.kind == "undef"
        assert parse("x/0").kind == "undef"
        with pytest.raises(SingularSampleError):
            evaluate(u, *ctx())

    def test_simplify_idempotent_and_non_growing(self):
        for s in ("x/y", "x + sqrt(x^2 - y)", "(x + y)^3/(x - y) - exp(x*y)",
                  "x^n + y^n"):
            e = parse(s)
            assert simplify(e) is e
            assert dag_size(simplify(e)) <= dag_size(e)

    def test_merged_powers_are_flattened_again(self):
        # sqrt(x*y)^2 distributes over the product: mul canonicalizes the
        # factors x, y once more
        assert parse("sqrt(x*y)*sqrt(x*y)") is parse("x*y")

    def test_log_and_exp_rewrites(self):
        assert parse("log(1)") is const(0)
        assert parse("log(exp(x))") is X
        assert parse("exp(log(x))") is X

    @pytest.mark.parametrize("text", ["log(0)", "log(-2)"])
    def test_log_of_a_nonpositive_constant_is_undefined(self, text):
        u = parse(text)
        assert u.kind == "undef" and format_expr(u) == "1/0"
        with pytest.raises(SingularSampleError):
            evaluate(u, *ctx())

    @pytest.mark.parametrize("text, folded", [
        ("0^x * 0^(-x-1)", "1/0"),  # the merged exponent is -1
        ("0^(1/2)", "0"),
        ("0^(-1/2)", "1/0"),
        ("(0-4)^(1/2)", "1/0"),  # not a real number
        ("1^x", "1"),
        ("log(1/0)", "1/0"),
    ])
    def test_constant_powers_and_undefined_values_fold(self, text, folded):
        assert format_expr(parse(text)) == folded

    def test_exp_product_cancellation(self):
        e = div(mul(X, exp_(neg(X))), exp_(neg(X)))
        assert e is X

    def test_exp_common_factor_in_sums(self):
        g = mul(add(X, Y), exp_(neg(X)))
        ratio = div(derive(g, "x"), derive(g, "y"))
        assert E.is_exactly_evaluable(ratio)
        assert evaluate(ratio, *ctx(F(1, 3), F(5, 7))) == 1 - F(1, 3) - F(5, 7)


class TestEvaluation:
    def test_exact_division(self):
        assert evaluate(parse("x/y"), *ctx(1, 2)) == F(1, 2)

    def test_exact_difference_is_zero(self):
        assert evaluate(sub(X, X), *ctx(123456, 7)) == 0

    def test_singular_sample(self):
        with pytest.raises(SingularSampleError):
            evaluate(parse("x/y"), *ctx(1, 0))

    def test_missing_binding(self):
        with pytest.raises(MissingBindingError, match="n"):
            evaluate(parse("x^n"), *ctx())

    def test_exact_mode_refused_for_irrational(self):
        with pytest.raises(ExactnessError):
            evaluate(sqrt(const(2)), *ctx())
        with pytest.raises(ExactnessError):
            evaluate(exp_(X), *ctx())

    def test_exact_perfect_roots_refused(self):
        # exact evaluation is rational-only by the node mask, whatever the
        # value: a perfect square under the root is refused all the same,
        # and before any slot is computed (1/x would be singular at x = 0)
        with pytest.raises(ExactnessError):
            evaluate(sqrt(parse("x^2")), *ctx(F(3, 5), 1))
        store = E.Store()
        with pytest.raises(ExactnessError):
            evaluate(parse("1/x + sqrt(y)"), *ctx(0, 1), store=store)
        assert None not in store
        assert evaluate(sqrt(parse("x^2")), *ctx(F(3, 4), 1, 256)) == F(3, 4)

    @pytest.mark.parametrize("precision", [0, -5, 100.5, True])
    def test_precision_must_be_a_positive_int(self, precision):
        # 0 and -5 never returned, 100.5 raised a bare TypeError and True
        # evaluated at one bit
        with pytest.raises(ExprError, match="precision"):
            evaluate(parse("x/3"), {"x": 2}, precision)
        with pytest.raises(ExprError, match="precision"):
            E.arithmetic(precision)

    @pytest.mark.parametrize("valid, equal", [(1, True), (24, 24.0)])
    def test_a_reused_store_refuses_an_equal_invalid_precision(self, valid,
                                                               equal):
        # a store keys its values by precision, and True == 1, 24.0 == 24:
        # the refusal must come before the lookup, or the invalid one reads
        # the values of the valid one
        store = E.Store()
        evaluate(parse("x/3"), {"x": 2}, valid, store=store)
        with pytest.raises(ExprError, match="precision"):
            evaluate(parse("x/3"), {"x": 2}, equal, store=store)
        with pytest.raises(ExprError, match="precision"):
            evaluate_scaled(parse("x/3"), {"x": 2}, equal, store=store)

    @pytest.mark.parametrize("precision", [None, 64])
    def test_store_holds_one_point(self, precision):
        # the store's slots are the values at its first bindings: other
        # values are refused, never answered with the first point's value
        store = E.Store()
        assert evaluate(X, {"x": 1}, precision, store=store) == 1
        for other in ({"x": 2}, {"x": 1, "y": 2}):
            with pytest.raises(ExprError, match="other bindings"):
                evaluate(X, other, precision, store=store)
            with pytest.raises(ExprError, match="other bindings"):
                evaluate_scaled(X, other, precision, store=store)
        assert evaluate(X, {"x": F(1)}, precision, store=store) == 1
        assert evaluate(X, {"x": 2}, precision) == 2

    def test_equal_bindings_reuse_the_store(self):
        # `SamplePoint.bindings()` makes a fresh dict per call: equal
        # values read the slots the store holds, at each precision key
        from weblin.calculus import SamplePoint
        pt = SamplePoint(F(1, 3), F(5, 7), {"n": F(2)})
        e = parse("n*x^2 + y")
        store = E.Store()
        entries = []
        for precision in (None, 64):
            first = evaluate(e, pt.bindings(), precision, store=store)
            entry = store[precision]
            assert pt.bindings() is not pt.bindings()
            assert evaluate(e, pt.bindings(), precision, store=store) == first
            assert store[precision] is entry
            entries.append(entry)
        assert entries[0] is not entries[1]

    def test_negative_radicand(self):
        with pytest.raises(DomainEvalError):
            evaluate(sqrt(Y), *ctx(1, -1, 256))
        with pytest.raises(DomainEvalError):
            evaluate(log_(Y), *ctx(1, -1, 256))

    def test_float_monotone_precision(self):
        e = parse("x + sqrt(x^2 - y)")
        lo = evaluate(e, *ctx(2, F(5, 7), precision=53))
        hi = evaluate(e, *ctx(2, F(5, 7), precision=256))
        assert abs(float(hi) - lo) < 1e-15

    def test_scale_tracks_cancellation(self):
        # huge intermediates, tiny result
        e = parse("(x + 10^12)*(x - 10^12) - x^2 + 10^24")
        v, scale = evaluate_scaled(e, *ctx(F(1, 3), 1, precision=256))
        assert float(scale) >= 1e24

    def test_float_mode_refuses_float_bindings(self):
        # bindings are rational in both arithmetics, with one message
        e = parse("x*y")
        for v in (0.5, mpmath.mpf(0.5)):
            with pytest.raises(ExprError, match="rational bindings"):
                evaluate(e, {"x": v, "y": F(1, 4)}, 53)

    def test_binding_types(self):
        # exact evaluation refuses a float binding; float evaluation reads
        # an int binding as the Fraction it equals, bit for bit
        with pytest.raises(ExprError, match="rational bindings"):
            evaluate(parse("x*y"), {"x": 0.5, "y": F(1, 4)})
        e = parse("x/3 + y")
        assert evaluate(e, {"x": 3 ** 50, "y": 2}) == 3 ** 49 + 2
        assert (evaluate(e, {"x": 3 ** 50, "y": 2}, 40)._mpf_
                == evaluate(e, {"x": F(3 ** 50), "y": F(2)}, 40)._mpf_)

    def test_precision_means_mantissa_bits(self):
        third = {p: evaluate(const(F(1, 3)), {}, p) for p in (24, 40, 53)}
        assert third[40] != third[53] and third[24] != third[40]
        for p, v in third.items():
            with mpmath.workprec(p):
                assert v == mpmath.mpf(1) / 3
            assert v.man.bit_length() <= p

    def test_exact_budget(self):
        e = parse("x^100 + y")
        assert evaluate(e, *ctx(F(9999, 10000), 1)) == F(9999, 10000) ** 100 + 1
        with pytest.raises(ExactBudgetError, match=f"{EXACT_BITS} bits"):
            evaluate(parse("x^100000 + y"), *ctx(F(9999, 10000), 1))
        # refused before the power is formed
        with pytest.raises(ExactBudgetError):
            evaluate(parse("x^1000000000"), *ctx(3, 1))
        # products of in-budget values are caught one node later
        big = parse("x^20000 * y^20000")
        with pytest.raises(ExactBudgetError):
            evaluate(big, *ctx(F(9999, 10000), F(9998, 9999)))
        assert issubclass(ExactBudgetError, ExactnessError)
        # float mode has no such cap
        v = evaluate(parse("x^100000"), *ctx(F(9999, 10000), 1, precision=256))
        assert 0 < v < 1


# one rule set for the scalar arithmetics: (expression, bindings, value or
# exception), checked in exact, 256-bit and 40-bit arithmetic
DOMAIN_RULES = [
    ("y^(-1/2)", {"y": 0}, SingularSampleError),
    ("x^n", {"x": -2, "n": 2}, 4),
    ("x^n", {"x": 0, "n": 0}, 1),
    ("x^n", {"x": 0, "n": -1}, SingularSampleError),
    ("x^n", {"x": 0, "n": F(1, 2)}, 0),
    ("x^n", {"x": -2, "n": F(1, 2)}, DomainEvalError),
    ("x^n", {"x": F(4, 9), "n": F(-1, 2)}, F(3, 2)),
    ("1/x", {"x": 0}, SingularSampleError),
    ("sqrt(x)", {"x": -1}, DomainEvalError),
    ("log(x)", {"x": 0}, DomainEvalError),
    ("log(x)", {"x": 1}, 0),
    ("exp(x)", {"x": 0}, 1),
    ("x^(-2)", {"x": 0}, SingularSampleError),
    ("x^3", {"x": -2}, -8),
    ("(x - 1)^(-3)", {"x": F(1, 2)}, -8),
]
ARITHMETICS = {"exact": None, "mpf256": 256, "mpf40": 40}
# exact evaluation is rational-only: the rows whose DAG has exp, log or a
# non-integer power are refused by the node mask, whatever the bindings
EXACT_REFUSED = {"y^(-1/2)", "x^n", "sqrt(x)", "log(x)", "exp(x)"}


@pytest.mark.parametrize("arith", list(ARITHMETICS))
@pytest.mark.parametrize("text, bindings, want", DOMAIN_RULES)
def test_domain_rules(text, bindings, want, arith):
    c = {k: F(v) for k, v in bindings.items()}, ARITHMETICS[arith]
    assert E.is_exactly_evaluable(parse(text)) == (text not in EXACT_REFUSED)
    if arith == "exact" and text in EXACT_REFUSED:
        want = ExactnessError
    if isinstance(want, type):
        with pytest.raises(want):
            evaluate(parse(text), *c)
    else:
        assert evaluate(parse(text), *c) == want


class TestFormatting:
    def test_simple_quotient(self):
        assert format_expr(parse("x/y")) == "x/y"

    def test_zero(self):
        assert format_expr(const(0)) == "0"

    def test_fixed_point_of_parse_format(self):
        for s in ("x/y", "x + sqrt(x^2 - y)", "1 - x*y^2/(x - y)",
                  "exp(-x)*(x + y)", "x^n + y^n", "-x - y", "log(x)/3"):
            e = parse(s)
            assert parse(format_expr(e)) is e

    def test_operand_order_ignores_what_was_built_before(self):
        # operands are ordered by structure, not by when they were interned:
        # a fresh interpreter and one that built y^3 and y^3*x first give
        # the same node the same text
        script = ("from weblin.expr import parse, format_expr\n{}"
                  "print(format_expr(parse('x^2*y + y^3')))")
        outs = [subprocess.run([sys.executable, "-c", script.format(pre)],
                               capture_output=True, text=True,
                               check=True).stdout
                for pre in ("", "parse('y^3'); parse('y^3*x')\n")]
        assert outs == ["x^2*y + y^3\n"] * 2
        built_first = [parse("y^3"), parse("y^3*x")]
        e = parse("x^2*y + y^3")
        assert e is add(mul(pow_(X, 2), Y), built_first[0])
        assert format_expr(e) == "x^2*y + y^3"


def _leaf():
    return st.sampled_from([X, Y, const(2), const(F(1, 3)), const(-1),
                            param("n")])


def _expr_strategy():
    return st.recursive(
        _leaf(),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda t: add(*t)),
            st.tuples(sub, sub).map(lambda t: mul(*t)),
            st.tuples(sub, sub).map(lambda t: E.sub(*t)),
            st.tuples(sub, sub).map(lambda t: div(*t)),
            sub.map(lambda e: pow_(e, 2)),
            sub.map(lambda e: pow_(e, -1)),
            sub.map(lambda e: sqrt(add(mul(e, e), 1))),
            sub.map(lambda e: exp_(div(e, add(mul(e, e), 1)))),
            sub.map(neg),
        ),
        max_leaves=12)


def _float_value(e, point):
    return evaluate(e, point, 256)


POINTS = [
    {"x": F(1, 3), "y": F(5, 7), "n": F(5, 2)},
    {"x": F(7, 5), "y": F(2, 9), "n": F(3)},
    {"x": F(-3, 4), "y": F(11, 6), "n": F(7, 3)},
    {"x": F(13, 11), "y": F(4, 3), "n": F(9, 4)},
    {"x": F(-1, 8), "y": F(-5, 9), "n": F(2)},
    {"x": F(29, 6), "y": F(1, 12), "n": F(11, 5)},
    {"x": F(3, 16), "y": F(17, 4), "n": F(13, 3)},
    {"x": F(-7, 3), "y": F(6, 13), "n": F(5)},
]


class TestProperties:
    @given(st.lists(_expr_strategy(), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_sums_and_products_ignore_argument_order(self, es):
        # the structural operand order is total: every argument order
        # gives the same node
        a, b, c = es
        assert add(a, b, c) is add(c, a, b) is add(b, c, a)
        assert mul(a, b, c) is mul(c, a, b) is mul(b, c, a)

    @given(_expr_strategy())
    @settings(max_examples=60, deadline=None)
    def test_constructors_build_canonical_nodes(self, e):
        # rebuilding changes nothing; in every sum the cores of the terms
        # (coefficients dropped) and in every product the factors, the
        # constant aside, are strictly increasing under the operand order,
        # so no two terms share a core and no two factors a base
        assert simplify(e) is e
        for n in E.topo_order(e):
            if n.kind == E.ADD:
                keys = [E._core_key(t) for t in n.children
                        if t.kind != E.CONST]
            elif n.kind == E.MUL:
                keys = [f for f in n.children if f.kind != E.CONST]
                bases = [f.base for f in keys]
                assert len(set(bases)) == len(bases)
            else:
                continue
            assert len(set(keys)) == len(keys)
            assert all(E._compare(a, b) < 0 for a, b in zip(keys, keys[1:]))

    @given(_expr_strategy())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_value_equality(self, e):
        text = format_expr(e)
        back = parse(text)
        assert back is e  # interning makes value equality structural here

    @given(_expr_strategy())
    @settings(max_examples=40, deadline=None)
    def test_rebuilt_simplify_preserves_value(self, e):
        s = simplify(e)
        checked = 0
        for pt in POINTS:
            try:
                v0 = _float_value(e, pt)
            except EvalError:
                continue
            v1 = _float_value(s, pt)
            assert abs(v1 - v0) <= 2.0 ** -128 * max(1.0, abs(float(v0)))
            checked += 1
        assume(checked > 0)

    @given(_expr_strategy(), _expr_strategy())
    @settings(max_examples=40, deadline=None)
    def test_constructor_rewrites_preserve_value(self, a, b):
        # each pair (recipe, reference) must agree wherever the recipe
        # inputs are defined; checked at 8 points
        recipes = [
            (add(a, neg(a)), lambda va, vb, ex: mpmath.mpf(0)),
            (mul(a, pow_(a, -1)), lambda va, vb, ex: mpmath.mpf(1)),
            (pow_(pow_(a, 2), 2), lambda va, vb, ex: va ** 4),
            (mul(a, b, exp_(X), exp_(neg(X))), lambda va, vb, ex: va * vb),
            (add(mul(a, exp_(X)), mul(b, exp_(X))),
             lambda va, vb, ex: (va + vb) * ex),
        ]
        checked = 0
        with mpmath.workprec(256):
            for pt in POINTS:
                try:
                    va = _float_value(a, pt)
                    vb = _float_value(b, pt)
                except EvalError:
                    continue
                ex = mpmath.exp(mpmath.mpf(pt["x"].numerator)
                                / pt["x"].denominator)
                for built, ref in recipes:
                    try:
                        got = _float_value(built, pt)
                    except EvalError:
                        continue  # recipe undefined at the point (e.g. 1/0)
                    want = ref(va, vb, ex)
                    assert abs(got - want) <= 2.0 ** -100 * max(
                        1.0, abs(float(want)))
                    checked += 1
        assume(checked > 0)

    @given(_expr_strategy())
    @settings(max_examples=30, deadline=None)
    def test_derivative_matches_finite_differences(self, e):
        # independent oracle: central difference at 300 bits
        pt = {"x": F(2, 5), "y": F(5, 7), "n": F(5, 2)}
        d = derive(e, "x")
        with mpmath.workprec(300):
            h = F(1, 2 ** 60)
            try:
                up = _hp_value(e, {**pt, "x": None}, F(2, 5) + h)
                dn = _hp_value(e, {**pt, "x": None}, F(2, 5) - h)
                want = (up - dn) / (2 * h)
                got = _hp_value(d, {**pt, "x": None}, F(2, 5))
            except EvalError:
                assume(False)
            assert abs(got - want) <= mpmath.mpf(2) ** -80 * max(
                1, abs(want), abs(got))


class TestOneEvaluator:
    @given(_expr_strategy())
    @settings(max_examples=60, deadline=None)
    def test_exact_mpf_and_grid_agree(self, e):
        # wherever the reference value is defined, 256-bit mpf agrees to
        # its precision and the compiled double grid to a double's, both
        # relative to the scale of the intermediates; the reference is the
        # exact value where the node mask allows exact evaluation, else
        # (exact evaluation refused) 1024-bit mpf
        exact = E.is_exactly_evaluable(e)
        checked = 0
        for pt in POINTS:
            try:
                if exact:
                    q = evaluate(e, pt)
                    with mpmath.workprec(1024):
                        ref = mpmath.mpf(q.numerator) / q.denominator
                else:
                    with pytest.raises(ExactnessError):
                        evaluate(e, pt)
                    ref = evaluate(e, pt, 1024)
            except EvalError:
                continue
            v, scale = evaluate_scaled(e, pt, 256)
            with mpmath.workprec(256):
                err = abs(v - ref)
            assert err <= 2.0 ** -200 * scale
            fn = grid_function(substitute(e, {"n": pt["n"]}))
            got = fn(float(pt["x"]), float(pt["y"]))
            assert got.shape == ()
            with mpmath.workprec(256):
                assert abs(float(got) - ref) <= 2.0 ** -30 * scale
            arr = fn(np.array([float(pt["x"])] * 2), float(pt["y"]))
            assert arr.shape == (2,) and (arr == float(got)).all()
            checked += 1
        assume(checked > 0)


def _outcome(e, c, store):
    """What evaluating e under c = (bindings, precision) gives, bit for bit:
    (value, scale) as exact Fractions or raw mpf tuples, or the class of the
    error raised."""
    try:
        v, scale = evaluate_scaled(e, *c, store=store)
    except EvalError as err:
        return type(err)
    if c[1] is None:
        return v, scale
    return v._mpf_, scale._mpf_


class TestSlotProgram:
    """Roots sharing one store read each other's slots, yet every root
    gives exactly what a one-root program gives."""

    @given(st.lists(_expr_strategy(), min_size=2, max_size=4),
           st.sampled_from(POINTS))
    @settings(max_examples=60, deadline=None)
    def test_shared_store_equals_lone_walk(self, base, pt):
        roots = base + [mul(base[0], base[1]), E.sub(base[1], base[0]),
                        pow_(add(base[0], 1), -1)]
        for precision in (None, 24, 40, 256):
            c = pt, precision
            store = E.Store(E.Program())
            for e in roots + roots[::-1]:
                assert _outcome(e, c, store) == _outcome(e, c, None)

    def test_first_failure_in_the_roots_own_order(self):
        # at x = 1/3, s is singular and b outgrows EXACT_BITS; whichever the
        # root's own order reaches first raises, also when another root
        # already left the other node's error in the shared store
        # (s sorts before b and the walk takes the last operand first, so
        # add(s, b) reaches b first and add(s, b*y) reaches s first)
        b = pow_(X, 300001)
        s = pow_(sub(mul(27, X), 9), -5)
        c = ctx(F(1, 3), 1)
        firsts = set()
        for root in (add(s, b), add(s, mul(b, Y)), mul(s, b, Y)):
            order = E.topo_order(root)
            first = (SingularSampleError if order.index(s) < order.index(b)
                     else ExactBudgetError)
            firsts.add(first)
            assert _outcome(root, c, None) is first
            for other in (s, b):
                store = E.Store()
                assert _outcome(other, c, store) in (SingularSampleError,
                                                     ExactBudgetError)
                assert _outcome(root, c, store) is first
                assert _outcome(root, c, store) is first  # memoized
        assert firsts == {SingularSampleError, ExactBudgetError}

    def test_compiling_interns_no_node(self):
        e = parse("x^3*exp(y) + sqrt(x + y)/(x - y)")
        d = derive(e, "x")
        size = len(E._table)
        store = E.Store()
        for root in (e, d, e):
            evaluate(root, *ctx(F(1, 3), F(1, 2), precision=256), store=store)
        assert len(E._table) == size
        assert len(store.program.instructions) == len(
            {n for r in (e, d) for n in E.topo_order(r)})

    def test_one_instruction_per_node_shared_by_every_root(self):
        e = parse("x^3*exp(y) + sqrt(x + y)/(x - y)")
        roots = (e, derive(e, "x"), derive(e, "y"))
        program = E.Program(roots)
        nodes = {n for r in roots for n in E.topo_order(r)}
        assert program.sealed and len(program.instructions) == len(nodes)
        for r in roots:
            code, _ = program.code(r)
            assert [ins[0] for ins in code] == [
                program.instructions[n][0] for n in E.topo_order(r)]
            # the instruction objects themselves, not copies
            assert all(ins is program.instructions[n]
                       for ins, n in zip(code, E.topo_order(r)))
        # a sealed program compiles nothing more
        with pytest.raises(E.ExprError, match="sealed"):
            program.code(mul(e, Y))
        assert len(program.instructions) == len(nodes)
        lazy = E.Program()
        for r in roots:
            assert _shape(lazy.code(r)) == _shape(program.code(r))

    def test_sum_and_product_getters_take_their_child_slots(self):
        e = parse("x^3*exp(y) + sqrt(x + y)/(x - y)")
        program = E.Program((e, derive(e, "y")))
        slots = list(range(len(program.instructions)))
        ops = [(arg, kids) for _, k, arg, kids
               in program.instructions.values() if k in (E.ADD, E.MUL)]
        assert ops and all(get(slots) == kids for get, kids in ops)
        for r in (e, derive(e, "y")):
            code, _ = program.code(r)
            assert program.slot_getter(r)(slots) == tuple(
                ins[0] for ins in code)
        # a tuple, always
        assert E.Program((X,)).slot_getter(X)([7]) == (7, 7)


def _shape(compiled):
    """A root's code and names with each sum's or product's getter
    replaced by the slots it takes."""
    code, names = compiled
    probe = list(range(max(ins[0] for ins in code) + 1))
    return [(s, k, arg(probe) if k in (E.ADD, E.MUL) else arg, kids)
            for s, k, arg, kids in code], names


_BIG = 10 ** 40
_NUMERATORS = (st.integers(-50, 50) | st.integers(-3 * _BIG, 3 * _BIG)
               | st.sampled_from([0, 1, -1, _BIG + 1, -_BIG - 7]))
_DENOMINATORS = (st.integers(1, 50) | st.integers(1, 3 * _BIG)
                 | st.sampled_from([1, _BIG, 2 * _BIG + 2]))


def _pair(q: Fraction) -> tuple[int, int]:
    return q.numerator, q.denominator


def _fraction_walk(e, bindings, memo=None):
    """The exact value of e by recursion over its tree in `Fraction`
    arithmetic, independent of the slot program."""
    memo = {} if memo is None else memo
    if e not in memo:
        kids = [_fraction_walk(c, bindings, memo) for c in e.children]
        if e.kind == E.CONST:
            v = e.value
        elif e.kind in (E.VAR, E.PARAM):
            v = bindings[e.name]
        elif e.kind == E.ADD:
            v = sum(kids, F(0))
        elif e.kind == E.MUL:
            v = F(1)
            for k in kids:
                v *= k
        elif e.kind == E.POW and kids[1].denominator == 1:
            v = kids[0] ** kids[1]
        else:
            raise AssertionError(f"not a rational node: {e.kind}")
        memo[e] = v
    return memo[e]


class TestPairArithmetic:
    """Exact evaluation runs on reduced (numerator, denominator > 0) int
    pairs; every operation gives the pair of the `Fraction` result."""

    @given(_NUMERATORS, _DENOMINATORS, _NUMERATORS, _DENOMINATORS,
           st.lists(st.tuples(_NUMERATORS, _DENOMINATORS, st.booleans()),
                    max_size=6),
           st.integers(1, 2 ** 2048), st.integers(1, 2 ** 2048))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_add_and_mul_equal_fraction_arithmetic(self, n1, d1, n2, d2,
                                                   more, big1, big2):
        a = F(n1, d1)
        # the second operand once on its own denominator, once on a's
        for b in (F(n2, d2), F(n2, a.denominator), -a, F(0)):
            for x, y in ((a, b), (b, a)):
                assert E._qadd(_pair(x), _pair(y)) == _pair(x + y)
                assert E._qprod([_pair(x), _pair(y)]) == _pair(x * y)
        # two large factors, which cancel across: each numerator shares a
        # factor of up to 2048 bits with the other's denominator, or none
        for x, y in ((F(n1 * big1, d1 * big2), F(n2 * big2, d2 * big1)),
                     (F(big1, d1), F(n2, big2)), (F(big1, big2), a)):
            for p, q in ((x, y), (y, x)):
                got = E._qprod([_pair(p), _pair(q)])
                assert got == _pair(p * q) and got[1] > 0
        # a product of 0 to 6 factors in one pass, some on a's denominator
        qs = [F(n, a.denominator if shared else d) for n, d, shared in more]
        want = F(1)
        for q in qs:
            want *= q
        got = E._qprod(tuple(map(_pair, qs)))  # operands come as a tuple
        assert got == _pair(want) and got[1] > 0

    @given(_NUMERATORS, _DENOMINATORS, st.integers(-7, 7))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_int_pow_equals_fraction_power(self, n, d, k):
        # the exact `pow` reads the integer constant exponent the walk
        # passes with the exponent's slot value
        a = F(n, d)
        if not a and k < 0:
            with pytest.raises(SingularSampleError):
                E._EXACT.pow(_pair(a), _pair(F(k)), F(k))
            return
        assert E._EXACT.pow(_pair(a), _pair(F(k)), F(k)) == _pair(a ** k)

    @given(st.integers(1, 3 * _BIG), _DENOMINATORS, st.integers(2, 5))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_root_equals_fraction_power(self, n, d, k):
        # the constant folding of `pow_` takes exact roots: (a^k)^(1/k) is
        # a for a > 0, and 2*a^k has no rational k-th root
        a = F(n, d)
        assert E._exact_root(*_pair(a ** k), k) == _pair(a)
        assert E._exact_root(*_pair(2 * a ** k), k) is None
        assert pow_(const(a ** k), F(1, k)) is const(a)

    def test_corpus_invariants_equal_a_fraction_walk(self):
        from weblin import corpus
        from weblin.calculus import sample_points
        from weblin.invariants import J_alpha, build_compatibility_pair

        values = nonzero = 0
        for case in (*corpus.CASES, corpus.LINEAR_FIVE_WEB):
            web = corpus.web_for(case)
            invariants = [*build_compatibility_pair(web),
                          *(J_alpha(web, a) for a in range(5, web.d + 1))]
            invariants = [e for e in invariants if E.is_exactly_evaluable(e)]
            for pt in sample_points(web, 8):
                store, memo = E.Store(), {}
                for e in invariants:
                    want = _fraction_walk(e, pt.bindings(), memo)
                    got = evaluate(e, pt.bindings(), store=store)
                    assert type(got) is Fraction and got == want
                    values += 1
                    nonzero += bool(want)
        # 21 invariants of 7 webs at 8 points, of YES and NO webs both
        assert values == 21 * 8 and 0 < nonzero < values


@st.composite
def _mpf_operands(draw):
    """A precision of 24 to 1100 bits and 1 to 6 raw mpf operands: zeros,
    powers of two, all-ones mantissas up to 8 bits wider than the
    precision (which round up to a power of two), odd mantissas of up to
    the precision's bits, exponents near each other or far apart (gaps past
    100 and past prec + 4), and, at random, one operand the negation of
    the one before it or of the libmp sum before it (exact cancellation)."""
    prec = draw(st.integers(24, 1100))

    def operand():
        kind = draw(st.sampled_from(["zero", "two", "ones", "odd"]))
        if kind == "zero":
            return libmp.fzero
        if kind == "two":
            man = 1
        elif kind == "ones":
            man = (1 << draw(st.integers(prec - 2, prec + 8))) - 1
        else:
            # short and near-full widths make products of prec + 1 bits,
            # the only width at which a product of odd mantissas can tie
            bits = draw(st.integers(1, 9) | st.integers(prec - 8, prec)
                        | st.integers(1, prec))
            man = draw(st.integers(0, (1 << bits) - 1)) | 1
        exp = draw(st.integers(-40, 40)
                   | st.integers(-3 * prec - 300, 3 * prec + 300))
        return libmp.from_man_exp(-man if draw(st.booleans()) else man, exp)

    ops = [operand() for _ in range(draw(st.integers(1, 6)))]
    if len(ops) > 1 and draw(st.booleans()):
        i = draw(st.integers(1, len(ops) - 1))
        sums = draw(st.booleans())
        ops[i] = libmp.mpf_neg(_libmp_fold(libmp.mpf_add, ops[:i], prec)
                               if sums else ops[i - 1])
    return prec, ops


def _libmp_fold(op, operands, prec):
    v = operands[0]
    for w in operands[1:]:
        v = op(v, w, prec, libmp.round_nearest)
    return v


class TestMpfKernel:
    """`_MpfArithmetic.mul` and `.add` round each step inline; every value
    is the tuple the left fold of libmp's `mpf_mul` or `mpf_add` gives."""

    @given(_mpf_operands())
    # 97 * 172961 = 2^24 + 1: halfway between two 24-bit mantissas
    @example((24, [libmp.from_man_exp(97, 0), libmp.from_man_exp(172961, -5)]))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_mul_and_add_equal_the_libmp_fold(self, drawn):
        prec, ops = drawn
        arith = E._MpfArithmetic(prec)
        assert arith.mul(iter(ops)) == _libmp_fold(libmp.mpf_mul, ops, prec)
        assert arith.add(iter(ops)) == _libmp_fold(libmp.mpf_add, ops, prec)

    @given(_mpf_operands())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_scale_is_the_largest_magnitude_at_least_one(self, drawn):
        _, ops = drawn
        want = libmp.fone  # the plain loop over libmp comparisons
        for v in ops:
            if libmp.mpf_gt(libmp.mpf_abs(v), want):
                want = libmp.mpf_abs(v)
        assert E._scale(tuple(ops)) == want
        # ties on exponent + bit count: a smaller value ahead of the largest
        _, man, exp, bc = want
        lead = libmp.from_man_exp(-(1 << (bc - 1)), exp)
        assert E._scale((lead, *ops, lead)) == want

    def test_walk_calls_no_libmp_mul_or_add(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("libmp called")

        e = parse("(x + y)^3 * exp(x) + 3*x*y - sqrt(x + 2) * log(y)")
        point = {"x": F(1, 3), "y": F(5, 7)}
        want = evaluate(e, point, 256)
        monkeypatch.setattr(libmp, "mpf_mul", refuse)
        monkeypatch.setattr(libmp, "mpf_add", refuse)
        assert evaluate(e, point, 256) == want


@st.composite
def _pow_cases(draw):
    """A precision, one to three positive p-bit bases and one to eight
    powers of them, so bases repeat: integer exponents, +-1/2, +-k/2 and
    general ones of up to 20 bits."""
    prec = draw(st.sampled_from([24, 53, 256, 1100]))
    bases = draw(st.lists(
        st.tuples(st.integers(1, (1 << prec) - 1),
                  st.integers(-2 * prec, prec)).map(
            lambda d: libmp.from_man_exp(d[0], d[1], prec)),
        min_size=1, max_size=3))
    exponent = st.one_of(
        st.integers(-40, 40).map(libmp.from_int),
        st.sampled_from([1, -1]).map(lambda s: libmp.from_man_exp(s, -1)),
        st.integers(-20, 20).map(lambda k: libmp.from_man_exp(2 * k + 1, -1)),
        st.tuples(st.integers(-(1 << 20), 1 << 20),
                  st.integers(-40, -2)).map(
            lambda d: libmp.from_man_exp(d[0], d[1])))
    powers = draw(st.lists(st.tuples(st.sampled_from(bases), exponent),
                           min_size=1, max_size=8))
    return prec, powers


class TestMpfPow:
    """`_MpfArithmetic.pow` takes `libmp.mpf_pow`'s branches, with each
    base's sqrt or log computed once per arithmetic object."""

    @given(_pow_cases())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_pow_equals_libmp(self, drawn):
        prec, powers = drawn
        arith = E._MpfArithmetic(prec)
        for b, t in powers * 2:  # the second round reads the kept values
            assert arith.pow(b, t, None) == libmp.mpf_pow(
                b, t, prec, libmp.round_nearest)
        bases = {b for b, _ in powers}
        assert set(arith.roots) <= bases and set(arith.logs) <= bases

    def test_one_sqrt_or_log_per_base(self, monkeypatch):
        arith = E._MpfArithmetic(256)
        calls = []
        for name in ("mpf_sqrt", "mpf_log"):
            def counted(*args, _f=getattr(libmp, name), _name=name):
                calls.append((_name, args[1]))
                return _f(*args)
            monkeypatch.setattr(libmp, name, counted)
        b = libmp.from_rational(7, 3, 256, libmp.round_nearest)
        for k in (-3, -1, 3, 5):
            arith.pow(b, libmp.from_man_exp(k, -1), None)
        n = libmp.from_rational(5, 7, 256, libmp.round_nearest)
        for t in (n, libmp.mpf_sub(n, libmp.fone)):  # x^n and x^(n - 1)
            arith.pow(b, t, None)
        assert calls == [("mpf_sqrt", 266), ("mpf_log", 266)]
        arith.pow(b, libmp.from_man_exp(1, -1), None)  # sqrt at p bits
        assert calls[2:] == [("mpf_sqrt", 256)]

    def test_zero_and_negative_bases(self):
        arith = E._MpfArithmetic(256)
        zero, minus = libmp.fzero, libmp.from_int(-2)
        half, general = libmp.from_man_exp(1, -1), libmp.from_man_exp(3, -3)
        for t in (libmp.from_int(-2), libmp.mpf_neg(half),
                  libmp.mpf_neg(general)):
            with pytest.raises(SingularSampleError, match="zero base"):
                arith.pow(zero, t, None)
        for t in (half, general, libmp.from_man_exp(3, -1)):
            assert arith.pow(zero, t, None) == libmp.fzero
            with pytest.raises(DomainEvalError, match="negative base"):
                arith.pow(minus, t, None)
        assert arith.pow(minus, libmp.from_int(3), None) == libmp.from_int(-8)
        assert not arith.roots and not arith.logs

    def test_exp_argument_bound(self):
        arith = E._MpfArithmetic(256)
        below = libmp.from_int((1 << E.EXP_ARGUMENT_BITS) - 1)
        assert arith.exp(below) == libmp.mpf_exp(below, 256,
                                                 libmp.round_nearest)
        for u in (libmp.from_int(1 << E.EXP_ARGUMENT_BITS),
                  libmp.from_int(-(1 << E.EXP_ARGUMENT_BITS))):
            with pytest.raises(E.MagnitudeError):
                arith.exp(u)
        # a general power is exp(t log x): 2^(2^33) has log 2^33 ln 2
        big = libmp.from_man_exp(1, 1 << 33)
        with pytest.raises(E.MagnitudeError):
            arith.pow(big, libmp.from_man_exp(3, -2), None)
        assert issubclass(E.MagnitudeError, EvalError)


class TestGridProgram:
    """Roots compiled together into one grid program share its slots, yet
    every root's array is, bit for bit, what the root compiled alone
    gives."""

    XX, YY = np.meshgrid(np.linspace(-2, 5, 15), np.linspace(-1, 3, 9),
                         indexing="ij")

    @given(st.lists(_expr_strategy(), min_size=2, max_size=4),
           st.sampled_from(POINTS))
    @settings(max_examples=60, deadline=None)
    def test_multi_root_equals_single_roots(self, base, pt):
        # besides shared nodes: a root a later root reads (exp of the
        # first), a repeated root, bare leaves and a constant, none of which
        # the release plan may drop; no output shares memory with another
        # output or with an input
        roots = base + [mul(base[0], base[1]), E.sub(base[1], base[0]),
                        pow_(add(base[0], 1), -1), const(3), exp_(base[0]),
                        base[0], X, Y, X]
        roots = [substitute(e, {"n": pt["n"]}) for e in roots]
        alone = []
        for e in roots:
            try:
                alone.append(grid_function(e)(self.XX, self.YY))
            except SingularSampleError:  # a constant 1/0 in the root
                with pytest.raises(SingularSampleError):
                    grid_function(*roots)
                return
        together = grid_function(*roots)(self.XX, self.YY)
        assert len(together) == len(roots)
        for got, want in zip(together, alone):
            assert got.shape == want.shape == self.XX.shape
            assert got.tobytes() == want.tobytes()
        for i, got in enumerate(together):
            assert got.flags.writeable and got.flags.owndata
            for other in (*together[i + 1:], self.XX, self.YY):
                assert not np.shares_memory(got, other)
        # a root that reads x alone, where y alone sets the shape
        only_x = grid_function(*roots)(self.XX[:, :1], self.YY)
        for got, want in zip(only_x, together):
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable and got.flags.owndata

    def test_a_call_holds_its_live_slots_not_its_program(self):
        # a chain of 80 array slots, each read only by the next: the call
        # holds two of them at a time, plus its output, whatever the length
        e = X
        for _ in range(40):
            e = exp_(neg(e))
        fn = grid_function(e)
        x = np.linspace(0, 1, 2 ** 16)
        want = fn(x, 0.0)
        tracemalloc.start()
        try:
            got = fn(x, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak <= 4 * x.nbytes
        # a computed root is returned as the walk made it, not copied
        fn = grid_function(exp_(X))
        tracemalloc.start()
        try:
            got = fn(x, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == np.exp(x).tobytes()
        assert peak <= 1.5 * x.nbytes

    def test_bindings_and_constants_checked_over_all_roots(self):
        with pytest.raises(MissingBindingError, match="q"):
            grid_function(X, add(Y, param("q")))
        with pytest.raises(SingularSampleError):
            grid_function(X, parse("y + 1/0"))
        fn = grid_function(X, substitute(add(Y, param("q")),
                                         {"q": F(1, 2)}))
        x, y = fn(np.array([1.0, 2.0]), 3.0)
        assert x.tolist() == [1.0, 2.0] and y.tolist() == [3.5, 3.5]


def _hp_value(e, pt, xval):
    bindings = {k: v for k, v in pt.items() if v is not None}
    bindings["x"] = xval
    return evaluate(e, bindings, 300)


class TestSubstitution:
    def test_substitute_variables(self):
        e = parse("x/y + x^2")
        s = substitute(e, {"x": parse("x^3 + x"), "y": exp_(Y)})
        want = parse("(x^3 + x)/exp(y) + (x^3 + x)^2")
        assert s is want

    def test_substitute_parameter(self):
        e = parse("x^n")
        assert substitute(e, {"n": const(3)}) is pow_(X, 3)


class _Lookups(dict):
    """A `done` dict that records every node looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.looked = []

    def __contains__(self, node):
        self.looked.append(node)
        return super().__contains__(node)


def _counting(rule=lambda n, done: n.kind):
    """A rule that records its nodes, and checks that each node's children
    are done before the node."""
    calls = []

    def counted(n, done):
        assert all(dict.__contains__(done, c) for c in n.children)
        calls.append(n)
        return rule(n, done)
    return counted, calls


class TestFold:
    """`_fold`, the one children-first DAG walk: `topo_order`, `simplify`,
    `substitute`, `derive` and `format_expr` run through it."""

    def test_a_done_node_is_never_entered(self):
        p, q = param("p"), param("q")
        below = exp_(add(mul(p, q), q))  # p and q occur only under it
        root = add(mul(below, X), pow_(Y, 3))
        hidden = set(E.topo_order(below)) - {below}
        rule, calls = _counting()
        done = E._fold((root,), rule, _Lookups({below: "kept"}))
        assert done[below] == "kept"
        assert not hidden & set(calls) and not hidden & set(done.looked)
        assert len(calls) == len(set(calls))
        assert set(calls) == set(E.topo_order(root)) - hidden - {below}

    def test_second_fold_enters_only_the_new_nodes(self):
        first = parse("x^2*y + sqrt(x + y) - exp(3*x)")
        second = mul(add(first, parse("y^5 - x")), first)
        rule, calls = _counting()
        done = E._fold((first,), rule, {})
        assert calls == E.topo_order(first)
        old = set(calls)
        calls.clear()
        E._fold((second,), rule, done)
        assert len(calls) == len(set(calls))
        assert set(calls) == set(E.topo_order(second)) - old
        assert list(done) == E.topo_order(first) + calls
        E._fold((first, second), rule, done)
        assert len(calls) == len(set(E.topo_order(second)) - old)

    def test_topo_order_is_children_first(self):
        e = parse("(x + y)^3*exp(x*y) + log(x + y)/(x - 2*y)")
        order = E.topo_order(e, derive(e, "y"))
        assert len(order) == len(set(order))
        index = {n: i for i, n in enumerate(order)}
        assert all(index[c] < index[n] for n in order for c in n.children)

    def test_derive_enters_only_nodes_not_differentiated(self, monkeypatch):
        e = parse("x^3*y/(x + y^2) + exp(x*y)")
        derive(e, "x")
        extended = add(mul(e, parse("x - 5*y")), log_(add(X, 7)))
        new = [n for n in E.topo_order(extended)
               if n not in E._derivative_cache["x"]]
        assert new
        cache = _Lookups(E._derivative_cache["x"])
        monkeypatch.setitem(E._derivative_cache, "x", cache)
        calls = []
        fold = E._fold

        def recording_fold(roots, rule, done):
            counted, seen = _counting(rule)
            out = fold(roots, counted, done)
            calls.extend(seen)
            return out

        monkeypatch.setattr(E, "_fold", recording_fold)
        d = derive(extended, "x")
        assert sorted(map(id, calls)) == sorted(map(id, new))
        # looked up: the root and the children of new nodes, nothing deeper
        assert set(cache.looked) <= {extended} | {c for n in new
                                                  for c in n.children}
        assert derive(extended, "x") is d and len(calls) == len(new)
        assert all(isinstance(v, str) and isinstance(c, dict)
                   for v, c in E._derivative_cache.items())


class TestDerivatives:
    def test_memoized_same_handle(self):
        e = parse("x^2*y + sqrt(x + y)")
        assert derive(e, "x") is derive(e, "x")

    def test_parameter_power_rule(self):
        n = param("n")
        assert derive(pow_(X, n), "x") is mul(n, pow_(X, sub(n, 1)))

    def test_undef_propagates(self):
        assert derive(parse("x/0"), "x").kind == "undef"

    def test_parameter_differentiation(self):
        n = param("n")
        assert derive(pow_(X, n), "n") is mul(pow_(X, n), log_(X))
        assert derive(parse("x*y"), "n").is_zero
        assert derive(mul(n, X), "n") is X

    def test_invalid_symbol_rejected(self):
        with pytest.raises(E.ExprError):
            derive(X, "2bad")


class TestLazyDerivative:
    """A product's derivative is cached as its product-rule terms until a
    consumer other than a sum needs it as a node."""

    @given(_expr_strategy())
    @settings(max_examples=40, deadline=None)
    def test_derive_returns_a_node(self, e):
        for v in ("x", "y"):
            d = derive(e, v)
            assert isinstance(d, E.Expr) and derive(e, v) is d
            assert all(isinstance(n, E.Expr) for n in E.topo_order(d))
            for n in E.topo_order(e):
                assert isinstance(derive(n, v), E.Expr)

    def test_shared_product_derivative_is_the_node_of_a_fresh_cache(
            self, monkeypatch):
        p = parse("x^2*y*(x + 3*y)*lazy_shared")
        s = add(p, X)
        base, arg = sqrt(p), exp_(p)  # p is a power base and an argument
        assert base.children[0] is p and arg.children[0] is p
        monkeypatch.setattr(E, "_derivative_cache", {})
        derive(s, "x")
        held = E._derivative_cache["x"][p]
        assert isinstance(held, tuple) and len(held) > 1
        got = [derive(base, "x"), derive(arg, "x"), derive(s, "x")]
        dp = E._derivative_cache["x"][p]
        assert isinstance(dp, E.Expr) and dp is add(*held)
        monkeypatch.setattr(E, "_derivative_cache", {})
        assert derive(p, "x") is dp
        assert [derive(base, "x"), derive(arg, "x"), derive(s, "x")] == got

    def test_threads_deriving_one_fresh_web_get_the_same_nodes(self):
        from weblin import corpus
        from weblin.calculus import reparameterized
        from weblin.invariants import build_compatibility_pair

        case = next(c for c in corpus.CASES if c.name == "two-pencils")
        assert (E.CONST, 1000033, 1000037) not in E._table  # fresh
        p, q = parse("x + 1000033/1000037*x^3"), parse("y + 7/1000039*y^2")
        barrier = threading.Barrier(8)
        results = []

        def build():
            barrier.wait(timeout=60)
            web = reparameterized(corpus.web_for(case), p, q, case.domain)
            results.append(build_compatibility_pair(web))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        assert all(isinstance(r, E.Expr) for pair in results for r in pair)
        assert all(a is b for pair in results for a, b in zip(pair, results[0]))

    def test_exp_terms_of_a_product_are_summed_at_once(self):
        # x*exp(x) differentiates to exp(x) + x*exp(x), which `add` turns
        # into exp(x)*(1 + x); spliced into the sum with 2*x instead, the
        # common exp would not be factored out
        e = parse("x*exp(x) + x^2")
        want = add(mul(exp_(X), add(1, X)), mul(2, X))
        assert derive(e, "x") is want
        assert derive(parse("x*exp(x)"), "x") is mul(exp_(X), add(1, X))

    def test_sum_of_products_interns_no_sum_per_term(self):
        products = [parse(f"x^{i + 2}*(y + x)^2*lazy_sum_{i}")
                    for i in range(3)]
        d = derive(add(*products), "x")
        assert d.kind == E.ADD and len(d.children) == 6
        held = E._derivative_cache["x"]
        assert all(isinstance(held[p], tuple) for p in products)
        sums = {n for n in E._table.values() if n.kind == E.ADD}
        for p in products:
            dp = derive(p, "x")
            assert dp.kind == E.ADD and dp not in sums
