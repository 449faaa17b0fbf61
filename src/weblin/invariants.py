"""Linearizability invariants and the sound vanishing test.

A 4-web (x, y, f, g) is linearizable iff the two fourth-order compatibility
operators applied to the deformation scalar mu vanish identically; a d-web
additionally needs the d-4 second-order differences J_alpha = mu_alpha - mu_4
between the deformation scalars of its 4-subwebs to vanish.  One formula,
`calculus.mu`, gives every deformation scalar: that of I1 and I2, of the J
and of the linearizer.  Vanishing is decided by random evaluation: exact
rational arithmetic whenever the expression allows it, p-bit (default 256)
floating arithmetic with a scale-aware threshold otherwise.  The invariants
of one web share their sample points.  The invariants, and the slot program
that evaluates them, are built once per tuple of web functions and reused
by later checks of the same functions, within count and slot bounds;
values are never reused across checks.
"""
from __future__ import annotations

import decimal
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import libmp

from . import expr as ex
from .expr import (Expr, EvalError, ExactBudgetError, add, mul, neg,
                   pow_, sub, evaluate, evaluate_scaled, is_exactly_evaluable)
from . import calculus
from .calculus import (WebSpec, SamplePoint, PARAM_RANGE, MAX_BUILT,
                       BoundedMemo, DomainTooSingularError, mu as web_mu,
                       random_rational, sample_points)

__all__ = [
    "ZeroTestPolicy", "Evidence", "InvariantReport", "SampleMemo",
    "zero_test", "I1_of_mu", "I2_of_mu", "J_alpha", "build_compatibility_pair",
    "check_dweb",
]

ZERO = "ZERO"
NONZERO = "NONZERO"
INCONCLUSIVE = "INCONCLUSIVE"

YES = "YES"
NO = "NO"

PARAM_DRAWS = 3            # parameter draws per test of a web with parameters
NONZERO_CONFIRMATIONS = 2  # float-mode witnesses required for NONZERO
MIN_PRECISION = 24       # float bits; at 2 bits a YES web was answered NO
MAX_PRECISION = 2 ** 16  # a bound on the cost of one float evaluation
MAX_POINTS = 2 ** 10     # the draw memo holds about 50 KB per point
MAX_SIGHTED = 2 ** 8     # roots tuples seen once, waiting for a second check
# slots of the published programs together, about 2 MB: the 19 corpus
# benchmark webs need 6345
MAX_PROGRAM_SLOTS = 2 ** 13


@dataclass(frozen=True)
class ZeroTestPolicy:
    """Sampling schedule and thresholds for the vanishing test.  A point
    count or precision out of range raises ExprError, as an input does."""
    points: int = 8
    precision: int = 256

    def __post_init__(self):
        need = f"sample points per test must be 1 to {MAX_POINTS}"
        if self.points < 1:  # with no points every expression would pass
            raise ex.ExprError(
                f"{need}: a vanishing test needs at least one point")
        if self.points > MAX_POINTS:
            raise ex.ExprError(
                f"{need}: more than {MAX_POINTS} would outgrow the draw memo")
        if not MIN_PRECISION <= self.precision <= MAX_PRECISION:
            raise ex.ExprError(f"precision outside {MIN_PRECISION}.."
                               f"{MAX_PRECISION} bits")

    def threshold(self, scale: mpmath.mpf) -> mpmath.mpf:
        """|value| below 2^-(precision/2) * scale, with scale = max(1,
        magnitude), counts as vanishing; the power of two is applied
        exactly, so it never underflows."""
        return mpmath.ldexp(scale, -(self.precision // 2))

    def vanishes(self, v: tuple, scale: tuple) -> bool:
        """|v| < threshold(scale), exactly, on libmp tuples: the exponent
        of the scale shifted, then one libmp comparison."""
        return libmp.mpf_lt((0,) + v[1:],
                            libmp.mpf_shift(scale, -(self.precision // 2)))


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


def build_compatibility_pair(web: WebSpec) -> tuple[Expr, Expr]:
    """I1, I2 for the 4-subweb (x, y, f, g4).  They depend on f and g4
    alone, so they are built once per (f, g4): the last MAX_BUILT pairs
    are kept, and a later web with the same functions gets the same nodes
    whatever its domain and seed."""
    key = web.f, web.g(4)
    hit = _PAIRS.get(key)
    if hit is None:
        m = web_mu(web, 4)
        hit = _PAIRS.keep(key, (I1_of_mu(m, web), I2_of_mu(m, web)))
    return hit


def J_alpha(web: WebSpec, alpha: int) -> Expr:
    """Relative invariant J_alpha = mu_alpha - mu_4, alpha >= 5: the
    deformation scalar of the 4-subweb (x, y, f, g_alpha) less that of
    (x, y, f, g4).  A g_alpha with the direction of f or of g4 makes every
    sample point invalid (a_alpha = 1 or a_alpha = a_4), so the test of
    such a web ends INCONCLUSIVE.  Built once per (f, g4, g_alpha), as
    `build_compatibility_pair` is."""
    if alpha < 5:
        raise ex.ExprError("J_alpha is defined for alpha >= 5")
    key = web.f, web.g(4), web.g(alpha)
    hit = _JS.get(key)
    if hit is None:
        hit = _JS.keep(key, sub(web_mu(web, alpha), web_mu(web, 4)))
    return hit


# Built invariants and published slot programs, shared by every check in
# the process.  They hold interned nodes and the code compiled from them,
# never a value: what depends on a seed, point or precision stays in the
# check's SampleMemo.
_PAIRS = BoundedMemo(MAX_BUILT)  # (f, g4) -> (I1, I2)
_JS = BoundedMemo(MAX_BUILT)  # (f, g4, g_alpha) -> J_alpha
_SIGHTED = BoundedMemo(MAX_SIGHTED)  # roots tuples seen once
# check roots -> sealed program, weighed by its slots
_PROGRAMS = BoundedMemo(MAX_PROGRAM_SLOTS, lambda p: len(p.instructions))


def _program(roots: tuple[Expr, ...]) -> ex.Program:
    """The slot program of a check's roots.  The first sighting of a roots
    tuple gets a fresh program, compiled as its check evaluates; a later
    one gets a sealed program, compiled completely and then published, so
    the checks after it compile nothing.  Published programs hold at most
    MAX_PROGRAM_SLOTS slots together, the oldest evicted first, and a
    larger one is never held."""
    hit = _PROGRAMS.get(roots)
    if hit is not None:
        return hit
    if roots not in _SIGHTED:
        _SIGHTED.keep(roots, None)
        return ex.Program()
    return _PROGRAMS.keep(roots, ex.Program(roots))


def clear_caches() -> None:
    """Forget every built invariant, validity check and slot program; no
    output depends on them."""
    for memo in (_PAIRS, _JS, _SIGHTED, _PROGRAMS, calculus._CHECKS):
        memo.clear()


# ---------------------------------------------------------------------------
# vanishing test


def _fmt_residual(v: tuple, exact: bool) -> str:
    """The residual string of a raw value: a reduced (numerator,
    denominator) pair as `str(Fraction)` writes it, a libmp tuple as
    `mpmath.nstr(v, 25)` does."""
    if not exact:
        return libmp.to_str(v, 25)
    p, q = v
    size = max(abs(p), q)
    # str() fails past ex._STR_DIGITS digits
    if size.bit_length() <= ex._STR_BITS or size < 10 ** ex._STR_DIGITS:
        return str(p) if q == 1 else f"{p}/{q}"
    # bounded length: 25 significant digits, marked as approximate
    return "~" + str(decimal.Context(prec=25).divide(p, q))


class SampleMemo:
    """The accepted sample points of one web, which it records (f, gs,
    domain and seed; a memo made without a web records the first web it
    serves): `zero_test` refuses the memo for any other web.  The
    points of a test are a walk of `Random(web.seed)`, and each is keyed by
    its position in that stream: the draw counts of the finished parameter
    rounds, the index in the current round and the validation precision.
    The same web gives the same point at the same position, so a point is
    drawn and validated once and kept with the generator state after it
    and a `Store` of `program`, the slot program of the web's validity
    checks and invariants; the stores share one `shared` dict, so each
    constant is converted once per precision."""

    def __init__(self, web: WebSpec | None = None,
                 program: ex.Program | None = None):
        self.web = None if web is None else _identity(web)
        self.program = program or ex.Program()
        self.shared: dict = {}  # precision -> arithmetic and constants
        self.points: dict = {}  # position -> (point, store, state after)


def _identity(web: WebSpec) -> tuple:
    """What the points of a web's tests depend on."""
    return web.f, web.gs, web.domain, web.seed


def _draw(web: WebSpec, rng: random.Random, params: dict[str, Fraction],
          precision: int, memo: SampleMemo, key: tuple) -> tuple:
    """Draw the next accepted point of `rng` and validate it into a new
    store; keep them in `memo` at stream position `key`, with the state
    after the draw, which is read there once (`getstate`)."""
    store = ex.Store(memo.program, memo.shared)
    pt = sample_points(web, 1, rng, params=params, precision=precision,
                       stores=[store])[0]
    hit = memo.points[key] = pt, store, rng.getstate()
    return hit


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
    call a tiny but nonzero exact value zero).  Values are decided as raw
    tuples (`ZeroTestPolicy.vanishes`).

    A `memo` of this web (else ExprError), shared by the tests of one web,
    draws each sample point once and evaluates each shared node once per
    point; the evidence does not depend on it.  A point the memo holds is
    replayed with no generator call; the generator is set to the state
    after the last point only when it has to draw again after a replay.
    """
    policy = policy or ZeroTestPolicy()
    if memo is None:
        memo = SampleMemo(web)
    elif memo.web is None:
        memo.web = _identity(web)
    elif memo.web != _identity(web):
        raise ex.ExprError("the sample memo belongs to another web")
    points, precision = memo.points, policy.precision
    rng, synced, last = random.Random(web.seed), True, None
    exact = is_exactly_evaluable(e)
    mode = "exact" if exact else "float"
    witnesses = 1 if exact else NONZERO_CONFIRMATIONS
    draws = PARAM_DRAWS if web.params else 1
    evidence: list[Evidence] = []
    hits = 0
    finished = ()  # draw counts of the finished parameter rounds

    try:
        for _ in range(draws):
            passes = failures = 0
            for i in range(3 * policy.points):
                key = finished, i, precision
                hit = points.get(key)
                if hit is None:
                    if not synced:
                        rng.setstate(last[2])
                        synced = True
                    params = (last[0].params if i else
                              {name: random_rational(rng, *PARAM_RANGE)
                               for name in web.params})
                    hit = _draw(web, rng, params, precision, memo, key)
                else:
                    synced = False
                last = hit
                pt, store = hit[0], hit[1]
                try:
                    if exact:
                        v = evaluate(e, pt.bindings(), store=store, raw=True)
                        vanishes = not v[0]
                    else:
                        v, scale = evaluate_scaled(e, pt.bindings(),
                                                   precision, store=store,
                                                   raw=True)
                        vanishes = policy.vanishes(v, scale)
                except ExactBudgetError:
                    raise  # not a singular sample: INCONCLUSIVE below
                except EvalError:
                    failures += 1
                    if failures > 2 * policy.points:
                        return (INCONCLUSIVE, evidence, mode,
                                "too many singular samples")
                    continue
                evidence.append(Evidence(pt, _fmt_residual(v, exact), mode))
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
            finished += (i + 1,)
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
    for the first invariant that reaches it.  The invariants come from the
    memoized builders, and the program of web functions checked before is
    the published one (`_program`); sample points and values are never
    reused across checks.
    """
    policy = policy or ZeroTestPolicy()
    I1, I2 = build_compatibility_pair(web)
    invariants = [("I1", I1), ("I2", I2)]
    invariants += [(f"J{alpha}", J_alpha(web, alpha))
                   for alpha in range(5, web.d + 1)]
    memo = SampleMemo(web, _program((*web.validity_checks,
                                     *(e for _, e in invariants))))

    def report(name: str, e: Expr) -> InvariantReport:
        t0 = time.perf_counter()
        verdict, evidence, mode, reason = zero_test(e, web, policy, memo)
        # the compiled root holds one instruction per node of its DAG
        return InvariantReport(
            name=name, dag_size=len(memo.program.code(e)[0]),
            verdict=verdict, evidence=evidence,
            elapsed=time.perf_counter() - t0, mode=mode, reason=reason)

    reports = [report(name, e) for name, e in invariants]
    verdicts = {r.verdict for r in reports}
    if verdicts == {ZERO}:
        return YES, reports
    if NONZERO in verdicts:
        return NO, reports
    return INCONCLUSIVE, reports
