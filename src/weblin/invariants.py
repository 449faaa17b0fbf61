"""Linearizability invariants and the sound vanishing test.

A 4-web (x, y, f, g) is linearizable iff the two fourth-order compatibility
operators applied to the deformation scalar mu vanish identically; a d-web
additionally needs the d-4 second-order differences J_alpha = mu_alpha - mu_4
between the deformation scalars of its 4-subwebs to vanish.  One formula,
`calculus.mu`, gives every deformation scalar: that of I1 and I2, of the J
and of the linearizer.  Vanishing is decided by random evaluation: exact
rational arithmetic whenever the expression allows it, p-bit (default 256)
floating arithmetic otherwise, chosen once per test; the arithmetic
decides each value (`expr.arithmetic`).  The invariants of one web share
their sample points.  What a check builds from the web functions (the
validity checks, the invariants and their slot program) is kept for later
checks of the same functions, one memo entry per tuple (f, g4..gd) within
one slot bound; values are never reused across checks.
"""
from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

from . import expr as ex
from .expr import (Expr, EvalError, ExactBudgetError, add, mul, neg,
                   pow_, sub, evaluate, evaluate_scaled, is_exactly_evaluable)
from .calculus import (WebSpec, SamplePoint, PARAM_RANGE,
                       DomainTooSingularError, mu as web_mu, random_rational,
                       sample_points)

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
MIN_PRECISION = 24       # float bits; at 2 bits a YES web was answered NO
MAX_PRECISION = 2 ** 16  # a bound on the cost of one float evaluation
MAX_POINTS = 2 ** 10     # the draw memo holds about 50 KB per point
# slots of the memo's entries together, about 2 MB with their programs
# published: the 19 corpus benchmark webs need 6345
MAX_PROGRAM_SLOTS = 2 ** 13


@dataclass(frozen=True)
class ZeroTestPolicy:
    """Sampling schedule and float bits of the vanishing test.  A point
    count or precision that is not an int or out of range raises
    ExprError, as an input does."""
    points: int = 8
    precision: int = 256

    def __post_init__(self):
        for name in ("points", "precision"):
            v = getattr(self, name)
            if type(v) is not int:  # a float, or a bool
                raise ex.ExprError(f"{name} must be an int, not {v!r}")
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
    """I1, I2 for the 4-subweb (x, y, f, g4): those of the memo entry of
    the web's functions (`_BUILT`) if it has one, else built anew."""
    hit = _BUILT.get((web.f, web.gs))
    if hit is not None:
        return hit.invariants[:2]
    m = web_mu(web, 4)
    return I1_of_mu(m, web), I2_of_mu(m, web)


def J_alpha(web: WebSpec, alpha: int) -> Expr:
    """Relative invariant J_alpha = mu_alpha - mu_4, alpha >= 5: the
    deformation scalar of the 4-subweb (x, y, f, g_alpha) less that of
    (x, y, f, g4).  A g_alpha with the direction of f or of g4 makes every
    sample point invalid (a_alpha = 1 or a_alpha = a_4), so the test of
    such a web ends INCONCLUSIVE.  Taken from the memo entry as in
    `build_compatibility_pair`."""
    if alpha < 5:
        raise ex.ExprError("J_alpha is defined for alpha >= 5")
    web.g(alpha)  # an alpha past d raises ExprError, entry or not
    hit = _BUILT.get((web.f, web.gs))
    if hit is not None:
        return hit.invariants[alpha - 3]
    return sub(web_mu(web, alpha), web_mu(web, 4))


class BoundedMemo(dict):
    """A dict whose values weigh at most `bound` together, by `weight`;
    one that alone outweighs it is never held.  Reads take no lock; `keep`
    inserts under the memo's lock, evicting the oldest entries first."""

    def __init__(self, bound: int, weight):
        super().__init__()
        self.bound, self.weight, self.held = bound, weight, 0
        self.lock = threading.Lock()

    def keep(self, key, value):
        """The value held for `key`: the one another thread stored first,
        else `value`, which is held unless it alone outweighs the bound."""
        w = self.weight(value)
        with self.lock:
            if key in self:
                return self[key]
            if w > self.bound:
                return value
            while self.held + w > self.bound:
                self.held -= self.weight(self.pop(next(iter(self))))
            self[key] = value
            self.held += w
        return value

    def clear(self) -> None:
        with self.lock:
            super().clear()
            self.held = 0


@dataclass
class _Built:
    """A memo entry: the validity checks and invariants (I1, I2, J5..Jd)
    of one tuple of web functions, the slot count of their program, and
    the program, None until the second check publishes it sealed."""
    checks: tuple[Expr, ...]
    invariants: tuple[Expr, ...]
    slots: int
    program: ex.Program | None = None


# (f, gs) -> _Built for every check in the process: interned nodes and
# compiled code only, never a value (those stay in a check's SampleMemo)
_BUILT = BoundedMemo(MAX_PROGRAM_SLOTS, lambda built: built.slots)


def clear_caches() -> None:
    """Forget every built invariant, validity check and slot program; no
    output depends on them."""
    _BUILT.clear()


# ---------------------------------------------------------------------------
# vanishing test


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
    constant is converted once per precision.  A point is validated by
    `checks`, the web's validity checks (else `web.validity_checks`)."""

    def __init__(self, web: WebSpec | None = None,
                 program: ex.Program | None = None,
                 checks: tuple[Expr, ...] | None = None):
        self.web = None if web is None else _identity(web)
        self.program = program or ex.Program()
        self.checks = checks
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
                       stores=[store], checks=memo.checks)[0]
    hit = memo.points[key] = pt, store, rng.getstate()
    return hit


def zero_test(e: Expr, web: WebSpec,
              policy: ZeroTestPolicy | None = None,
              memo: SampleMemo | None = None
              ) -> tuple[str, list[Evidence], str, str | None]:
    """Sound vanishing verdict for e over the web domain.

    Returns (verdict, evidence, mode, reason).  Exact arithmetic when the
    expression is free of radicals/transcendentals, else high-precision
    floats, chosen once (`expr.arithmetic`): it decides each raw value
    (`vanishes`), writes its residual, and says how many independent
    nonzero points make NONZERO (`witnesses`, two in float mode).
    Sampling failures, and exact values outgrowing EXACT_BITS, yield
    INCONCLUSIVE, never a guess (a float fallback could call a tiny but
    nonzero exact value zero).

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
    bits = None if is_exactly_evaluable(e) else precision
    arith = ex.arithmetic(bits)
    mode, witnesses, vanishes = arith.mode, arith.witnesses, arith.vanishes
    # the benchmark tracer spans exact and float evaluation by these two
    # module attributes, so each mode calls its own; only float has a scale
    if mode == "float":
        def value(bindings, store):
            return evaluate_scaled(e, bindings, bits, store=store, raw=True)
    else:
        def value(bindings, store):
            return evaluate(e, bindings, bits, store=store, raw=True), None
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
                    v, scale = value(pt.bindings(), store)
                except ExactBudgetError:
                    raise  # not a singular sample: INCONCLUSIVE below
                except EvalError:
                    failures += 1
                    if failures > 2 * policy.points:
                        return (INCONCLUSIVE, evidence, mode,
                                "too many singular samples")
                    continue
                evidence.append(Evidence(pt, arith.residual(v), mode))
                if vanishes(v, scale):
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
    for the first invariant that reaches it.  The builders give the nodes
    of the memo entry of the web's functions (`_BUILT`).  A first check
    keeps the entry, weighed by its program's slots but without it, and the
    second publishes the sealed program, so later checks build and compile
    nothing; sample points and values are never reused across checks.
    """
    policy = policy or ZeroTestPolicy()
    alphas = range(5, web.d + 1)
    exprs = (*build_compatibility_pair(web), *(J_alpha(web, a)
                                               for a in alphas))
    key = web.f, web.gs
    built = _BUILT.get(key)
    if built is None:
        checks, program = web.validity_checks, ex.Program()
    else:
        checks = built.checks
        if built.program is None:  # racing threads publish equal programs
            built.program = ex.Program((*checks, *exprs))
        program = built.program
    memo = SampleMemo(web, program, checks)

    def report(name: str, e: Expr) -> InvariantReport:
        t0 = time.perf_counter()
        verdict, evidence, mode, reason = zero_test(e, web, policy, memo)
        # the compiled root holds one instruction per node of its DAG
        return InvariantReport(
            name=name, dag_size=len(memo.program.code(e)[0]),
            verdict=verdict, evidence=evidence,
            elapsed=time.perf_counter() - t0, mode=mode, reason=reason)

    names = ("I1", "I2", *(f"J{alpha}" for alpha in alphas))
    reports = [report(name, e) for name, e in zip(names, exprs)]
    if built is None:
        for root in (*checks, *exprs):  # those the reports did not reach
            program.code(root)
        _BUILT.keep(key, _Built(checks, exprs, len(program.instructions)))
    verdicts = {r.verdict for r in reports}
    if verdicts == {ZERO}:
        return YES, reports
    if NONZERO in verdicts:
        return NO, reports
    return INCONCLUSIVE, reports
