"""Linearizability invariants and the sound vanishing test.

A 4-web (x, y, f, g) is linearizable iff the two fourth-order compatibility
operators applied to the deformation scalar mu vanish identically; a d-web
additionally needs the d-4 second-order differences J_alpha between the
deformation scalars of its 4-subwebs to vanish.  Vanishing is decided by
random evaluation: exact rational arithmetic whenever the expression allows
it, p-bit (default 256) floating arithmetic with a scale-aware threshold
otherwise.  The invariants of one web share their sample points.
"""
from __future__ import annotations

import decimal
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from . import expr as ex
from .expr import (Expr, EvalError, ExactBudgetError, add, div, mul, neg,
                   pow_, sub, evaluate, evaluate_scaled, is_exactly_evaluable)
from .calculus import (WebSpec, SamplePoint, PARAM_RANGE,
                       DomainTooSingularError, mu as web_mu, random_rational,
                       sample_points)

__all__ = [
    "ZeroTestPolicy", "Evidence", "InvariantReport", "SampleMemo",
    "DegenerateDirectionError", "zero_test", "I1_of_mu", "I2_of_mu", "I_fp",
    "J_alpha", "build_compatibility_pair", "check_dweb",
]

ZERO = "ZERO"
NONZERO = "NONZERO"
INCONCLUSIVE = "INCONCLUSIVE"

YES = "YES"
NO = "NO"

PARAM_DRAWS = 3            # parameter draws per test of a web with parameters
NONZERO_CONFIRMATIONS = 2  # float-mode witnesses required for NONZERO


class DegenerateDirectionError(ex.ExprError):
    """p defines the same foliation direction as the f-foliation."""


@dataclass(frozen=True)
class ZeroTestPolicy:
    """Sampling schedule and thresholds for the vanishing test."""
    points: int = 8
    precision: int = 256

    def __post_init__(self):
        if self.points < 1:  # with no points every expression would pass
            raise ValueError("a vanishing test needs at least one point")

    @property
    def threshold_scale(self) -> float:
        # |value| < 2^-(precision/2) * max(1, magnitude) counts as vanishing
        return 2.0 ** -(self.precision // 2)


@dataclass(frozen=True)
class Evidence:
    point: SamplePoint
    residual: str
    mode: str

    def to_json(self) -> dict:
        return {
            "point": [str(self.point.x), str(self.point.y)],
            "params": {k: str(v) for k, v in sorted(self.point.params.items())},
            "residual": self.residual,
            "mode": self.mode,
        }


@dataclass
class InvariantReport:
    name: str
    expr: Expr
    dag_size: int
    verdict: str
    evidence: list[Evidence]
    elapsed: float
    mode: str
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "dag_size": self.dag_size,
            "evidence": [e.to_json() for e in self.evidence],
        }


# ---------------------------------------------------------------------------
# the two fourth-order operators


def I1_of_mu(mu_expr: Expr, web: WebSpec) -> Expr:
    """First compatibility operator applied to mu (mixed term d1atop d2)."""
    H, K = web.H, web.K
    m1, m2 = web.d1(mu_expr), web.d2(mu_expr)
    return add(
        neg(web.d1(m1)),
        mul(2, web.d1(m2)),
        mul(add(mu_expr, H), m1),
        mul(-2, add(mul(2, H), mu_expr), m2),
        mul(H, pow_(mu_expr, 2)),
        mul(add(mul(2, pow_(H, 2)), neg(web.d2(H))), mu_expr),
        neg(web.d1(K)),
        mul(2, H, K),
    )


def I2_of_mu(mu_expr: Expr, web: WebSpec) -> Expr:
    """Second compatibility operator applied to mu (same mixed term)."""
    H, K = web.H, web.K
    m1, m2 = web.d1(mu_expr), web.d2(mu_expr)
    return add(
        neg(web.d2(m2)),
        mul(2, web.d1(m2)),
        mul(2, sub(mu_expr, H), m1),
        neg(mul(add(H, mu_expr), m2)),
        neg(mul(H, pow_(mu_expr, 2))),
        mul(add(mul(2, pow_(H, 2)), neg(web.d1(H))), mu_expr),
        neg(web.d2(K)),
        mul(2, H, K),
    )


def build_compatibility_pair(web: WebSpec, alpha: int = 4
                             ) -> tuple[Expr, Expr]:
    """I1, I2 for the 4-subweb (x, y, f, g_alpha)."""
    m = web_mu(web, alpha)
    return I1_of_mu(m, web), I2_of_mu(m, web)


def I_fp(web: WebSpec, p: Expr) -> Expr:
    """Second-order invariant of the direction field of p against the frame:

        I(f, p) = [p1^2 d2(p2) - 2 p1 p2 m + p2^2 d1(p1)] / [p1 p2 (p2 - p1)]

    with p_i the frame derivatives of p and m the symmetrized mixed
    derivative (d1(p2) + d2(p1))/2.  With the symmetrized middle term this
    equals the deformation scalar mu of the 4-subweb of p exactly, so
    differences of I values coincide with differences of mu values with
    constant +1 (no extra sign or factor).
    """
    p1, p2 = web.d1(p), web.d2(p)
    if p1 is p2:
        raise DegenerateDirectionError(
            "p has the same foliation direction as f (d1(p) == d2(p))")
    m = div(add(web.d1(p2), web.d2(p1)), 2)
    num = add(mul(pow_(p1, 2), web.d2(p2)),
              mul(-2, p1, p2, m),
              mul(pow_(p2, 2), web.d1(p1)))
    den = mul(p1, p2, sub(p2, p1))
    return div(num, den)


def J_alpha(web: WebSpec, alpha: int) -> Expr:
    """Relative invariant J_alpha = I(f, g_alpha) - I(f, g4), alpha >= 5."""
    if alpha < 5:
        raise ex.ExprError("J_alpha is defined for alpha >= 5")
    return sub(I_fp(web, web.g(alpha)), I_fp(web, web.g(4)))


# ---------------------------------------------------------------------------
# vanishing test


def _fmt_residual(v) -> str:
    if isinstance(v, Fraction):
        # str() fails past ex._STR_DIGITS digits
        size = max(abs(v.numerator), v.denominator)
        if size.bit_length() <= ex._STR_BITS or size < 10 ** ex._STR_DIGITS:
            return str(v)
        # bounded length: 25 significant digits, marked as approximate
        return "~" + str(decimal.Context(prec=25).divide(v.numerator,
                                                        v.denominator))
    return mpmath.nstr(v, 25)


@dataclass
class SampleMemo:
    """The accepted sample points of one web.  A point depends only on the
    generator state, the parameter values and the validation precision, so
    it is drawn and validated once under those and kept with the state
    after it (each distinct state held once) and a `Store` of `program`,
    the slot program of the web's validity checks and invariants."""
    program: ex.Program = field(default_factory=ex.Program)
    points: dict = field(default_factory=dict)  # key -> (point, after, store)
    states: dict = field(default_factory=dict)  # generator states, by value


def _draw(web: WebSpec, rng: random.Random, params: dict[str, Fraction],
          precision: int, memo: SampleMemo) -> tuple[SamplePoint, ex.Store]:
    """The next accepted point of `rng` and its store, drawn once per memo:
    a later walk reaching the same state replays them."""
    intern = memo.states.setdefault
    state = rng.getstate()
    key = (intern(state, state), tuple(sorted(params.items())), precision)
    hit = memo.points.get(key)
    if hit is None:
        store = ex.Store(memo.program)
        pt = sample_points(web, 1, rng, params=params, precision=precision,
                           stores=[store])[0]
        state = rng.getstate()
        hit = memo.points[key] = pt, intern(state, state), store
    rng.setstate(hit[1])
    return hit[0], hit[2]


def zero_test(e: Expr, web: WebSpec,
              policy: ZeroTestPolicy | None = None,
              memo: SampleMemo | None = None
              ) -> tuple[str, list[Evidence], str, str | None]:
    """Sound vanishing verdict for e over the web domain.

    Returns (verdict, evidence, mode, reason).  Exact arithmetic when the
    expression is free of radicals/transcendentals, else high-precision
    floats; in float mode a NONZERO verdict needs confirmation at two
    independent points.  Sampling failures, and exact values outgrowing
    EXACT_BITS, yield INCONCLUSIVE, never a guess (a float fallback could
    call a tiny but nonzero exact value zero).  A `memo` shared by the
    tests of one web draws each sample point once and evaluates each shared
    node once per point; the evidence does not depend on it.
    """
    policy = policy or ZeroTestPolicy()
    memo = SampleMemo() if memo is None else memo
    rng = random.Random(web.seed)
    exact = is_exactly_evaluable(e)
    mode = "exact" if exact else "float"
    witnesses = 1 if exact else NONZERO_CONFIRMATIONS
    draws = PARAM_DRAWS if web.params else 1
    evidence: list[Evidence] = []
    hits = 0

    try:
        for _ in range(draws):
            params = {name: random_rational(rng, *PARAM_RANGE)
                      for name in web.params}
            passes = failures = 0
            for _ in range(3 * policy.points):
                pt, store = _draw(web, rng, params, policy.precision, memo)
                try:
                    if exact:
                        v = evaluate(e, pt.bindings(), store=store)
                        vanishes = not v
                    else:
                        v, scale = evaluate_scaled(e, pt.bindings(),
                                                   policy.precision,
                                                   store=store)
                        # in mpf: a scale past the double range stays finite
                        vanishes = (abs(v) < policy.threshold_scale
                                    * max(1, scale))
                except ExactBudgetError:
                    raise  # not a singular sample: INCONCLUSIVE below
                except EvalError:
                    failures += 1
                    if failures > 2 * policy.points:
                        return (INCONCLUSIVE, evidence, mode,
                                "too many singular samples")
                    continue
                evidence.append(Evidence(pt, _fmt_residual(v), mode))
                if vanishes:
                    passes += 1
                    if passes == policy.points:
                        break
                else:
                    hits += 1
                    if hits >= witnesses:
                        return NONZERO, evidence, mode, None
            else:
                # 3*points samples with at most 2*points failures and fewer
                # than `points` passes: one was an unconfirmed outlier
                return (INCONCLUSIVE, evidence, mode,
                        "sampling budget exhausted with an unconfirmed outlier")
    except (DomainTooSingularError, ExactBudgetError) as err:
        return INCONCLUSIVE, evidence, mode, str(err)
    if hits:
        return (INCONCLUSIVE, evidence, mode,
                "a single sample exceeded the threshold without confirmation")
    return ZERO, evidence, mode, None


def check_dweb(web: WebSpec, policy: ZeroTestPolicy | None = None
               ) -> tuple[str, list[InvariantReport]]:
    """Decide linearizability of the web: YES iff every invariant is ZERO.

    For d = 4 this is exactly the two-invariant test; for d > 4 the
    second-order J invariants of the extra foliations join the list.  The
    tests share their sample points and one slot program, so at each point
    a node of an invariant or validity check is computed once, and a
    report's `elapsed` counts validating a point, and each shared node, only
    for the first invariant that reaches it.
    """
    policy = policy or ZeroTestPolicy()
    memo = SampleMemo()

    def report(name: str, e: Expr) -> InvariantReport:
        t0 = time.perf_counter()
        verdict, evidence, mode, reason = zero_test(e, web, policy, memo)
        # the compiled root holds one instruction per node of its DAG
        return InvariantReport(
            name=name, expr=e, dag_size=len(memo.program.code(e)[0]),
            verdict=verdict, evidence=evidence,
            elapsed=time.perf_counter() - t0, mode=mode, reason=reason)

    I1, I2 = build_compatibility_pair(web, 4)
    reports = [report("I1", I1), report("I2", I2)]
    reports += [report(f"J{alpha}", J_alpha(web, alpha))
                for alpha in range(5, web.d + 1)]
    verdicts = {r.verdict for r in reports}
    if verdicts == {ZERO}:
        return YES, reports
    if NONZERO in verdicts:
        return NO, reports
    return INCONCLUSIVE, reports

