"""Weighted covariant derivatives, prolongations of the basic invariant, and
the closed-form fourth-order linearizability conditions.

A scalar of weight k transforms with s^-k under coframe renormalization; its
covariant derivatives with respect to the canonical connection of the
3-subweb are

    delta_i^(k)(u) = d_i(u) - k H u,

of weight k+1, and satisfy the commutator relation

    delta_2^(s+1) o delta_1^(s) - delta_1^(s+1) o delta_2^(s) = s K.

The closed-form conditions express the weight-2 derivatives K1, K2 of the
curvature through the basic invariant's symmetrized covariant derivatives;
their vanishing is equivalent to the vanishing of the two compatibility
operators.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .expr import Expr, add, div, mul, neg, pow_, sub
from .calculus import WebSpec, basic_invariant

__all__ = [
    "WeightedScalar", "delta", "commutator_residual", "prolong_a",
    "tilde_a", "curvature_derivatives", "K1_closed_residual",
    "K2_closed_residual",
]

_THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class WeightedScalar:
    """An expression together with its renormalization weight k >= 0."""
    expr: Expr
    weight: int

    def __post_init__(self):
        if self.weight < 0:
            raise ex.ExprError("weight must be a non-negative integer")


def delta(u: WeightedScalar, i: int, web: WebSpec) -> WeightedScalar:
    """Covariant derivative delta_i^(k): d_i(u) - k H u, weight k+1."""
    if i not in (1, 2):
        raise ex.ExprError("frame index must be 1 or 2")
    du = web.d1(u.expr) if i == 1 else web.d2(u.expr)
    e = du if u.weight == 0 else sub(du, mul(u.weight, web.H, u.expr))
    return WeightedScalar(e, u.weight + 1)


def commutator_residual(u: WeightedScalar, web: WebSpec) -> Expr:
    """delta2^(s+1)(delta1^(s)(u)) - delta1^(s+1)(delta2^(s)(u)) - s K u.

    Vanishes identically for every scalar u of weight s.
    """
    s = u.weight
    lhs = sub(delta(delta(u, 1, web), 2, web).expr,
              delta(delta(u, 2, web), 1, web).expr)
    if s == 0:
        return lhs
    return sub(lhs, mul(s, web.K, u.expr))


def _prolongation(web: WebSpec, alpha: int
                  ) -> tuple[list[WeightedScalar], dict[str, Expr]]:
    """The basic invariant and its covariant derivatives up to second order
    (a, a1, a2, a11, a12, a22), each built once, and the unsymmetrized third
    derivatives keyed as in `tilde_a`."""
    a0 = WeightedScalar(basic_invariant(web, alpha), 0)
    a1 = delta(a0, 1, web)
    a2 = delta(a0, 2, web)
    a11 = delta(a1, 1, web)
    a12 = delta(a1, 2, web)  # equals delta(a2, 1): weight-0 commutator
    a22 = delta(a2, 2, web)
    t = {
        "t111": delta(a11, 1, web).expr,
        "t112": delta(a11, 2, web).expr,
        "t121": delta(a12, 1, web).expr,
        "t122": delta(a12, 2, web).expr,
        "t221": delta(a22, 1, web).expr,
        "t222": delta(a22, 2, web).expr,
    }
    return [a0, a1, a2, a11, a12, a22], t


def tilde_a(web: WebSpec, alpha: int = 4) -> dict[str, Expr]:
    """Unsymmetrized third covariant derivatives of the basic invariant,
    delta_k^(2) delta_j^(1) delta_i^(0) a, keyed 't111'..'t222'."""
    return _prolongation(web, alpha)[1]


def prolong_a(web: WebSpec, alpha: int = 4) -> dict[str, Expr]:
    """Covariant derivatives of the basic invariant up to symmetrized third
    order: a1, a2, a11, a12, a22, a111, a112, a122, a222."""
    lower, t = _prolongation(web, alpha)
    out = {key: u.expr for key, u in
           zip(("a", "a1", "a2", "a11", "a12", "a22"), lower)}
    out.update({
        "a111": t["t111"],
        "a112": div(add(t["t112"], mul(2, t["t121"])), 3),
        "a122": div(add(mul(2, t["t122"]), t["t221"]), 3),
        "a222": t["t222"],
    })
    return out


def curvature_derivatives(web: WebSpec) -> tuple[Expr, Expr]:
    """K1 = d1(K) - 2HK and K2 = d2(K) - 2HK (K has weight two)."""
    Kw = WeightedScalar(web.K, 2)
    return delta(Kw, 1, web).expr, delta(Kw, 2, web).expr


def _closed_rhs(web: WebSpec, alpha: int, which: int) -> Expr:
    p = prolong_a(web, alpha)
    a = p["a"]
    a1, a2 = p["a1"], p["a2"]
    a11, a12, a22 = p["a11"], p["a12"], p["a22"]
    a111, a112, a122, a222 = p["a111"], p["a112"], p["a122"], p["a222"]
    K = web.K
    den = sub(a, pow_(a, 2))
    inv1 = pow_(den, -1)
    inv2 = pow_(den, -2)
    inv3 = pow_(den, -3)
    if which == 1:
        first = add(mul(_THIRD, add(mul(sub(1, a), a1), mul(a, a2)), K),
                    neg(a111), mul(add(2, a), a112), mul(-2, a, a122))
        second = add(
            mul(add(mul(sub(4, mul(6, a)), a1),
                    mul(add(pow_(a, 2), mul(3, a), -2), a2)), a11),
            mul(add(mul(add(mul(2, pow_(a, 2)), mul(7, a), -6), a1),
                    mul(sub(mul(2, a), mul(3, pow_(a, 2))), a2)), a12),
            mul(add(mul(2, den, a1), mul(-2, pow_(a, 2), a2)), a22))
        third = add(
            mul(add(mul(-6, pow_(a, 2)), mul(8, a), -3), pow_(a1, 3)),
            mul(-2, pow_(a, 3), pow_(a2, 3)),
            mul(add(mul(2, pow_(a, 3)), mul(9, pow_(a, 2)),
                    mul(-15, a), 6), pow_(a1, 2), a2),
            mul(add(mul(-3, pow_(a, 3)), mul(6, pow_(a, 2)), mul(-2, a)),
                a1, pow_(a2, 2)))
    else:
        first = add(mul(_THIRD, add(a1, mul(sub(a, 1), a2)), K),
                    mul(2, a112), neg(mul(add(mul(2, a), 1), a122)),
                    mul(a, a222))
        second = add(
            mul(add(mul(2, a1), mul(sub(mul(2, a), 2), a2)), a11),
            mul(add(mul(sub(mul(6, a), 5), a1),
                    mul(add(mul(-2, pow_(a, 2)), mul(-3, a), 2), a2)), a12),
            mul(add(mul(add(1, neg(a), mul(-2, pow_(a, 2))), a1),
                    mul(2, pow_(a, 2), a2)), a22))
        third = add(
            mul(sub(mul(4, a), 2), pow_(a1, 3)),
            mul(pow_(a, 3), pow_(a2, 3)),
            mul(add(mul(6, pow_(a, 2)), mul(-12, a), 5), pow_(a1, 2), a2),
            mul(add(mul(-2, pow_(a, 3)), mul(-3, pow_(a, 2)),
                    mul(5, a), -2), a1, pow_(a2, 2)))
    return add(mul(first, inv1), mul(second, inv2), mul(third, inv3))


def K1_closed_residual(web: WebSpec, alpha: int = 4) -> Expr:
    """K1 minus its closed-form expression in a and its prolongations;
    together with the K2 residual, vanishes exactly on linearizable
    4-subwebs."""
    K1, _ = curvature_derivatives(web)
    return sub(K1, _closed_rhs(web, alpha, 1))


def K2_closed_residual(web: WebSpec, alpha: int = 4) -> Expr:
    """K2 minus its closed-form expression; see K1_closed_residual."""
    _, K2 = curvature_derivatives(web)
    return sub(K2, _closed_rhs(web, alpha, 2))
