"""A planar d-web, its frame operators and fundamental scalars, and sampling.

The first two foliations are the coordinate lines, the third is the level
family of the web function f.  The frame vector fields dual to the
normalized coframe act on scalars as

    d1(e) = -e_x / f_x,        d2(e) = -e_y / f_y,

and everything else here (H, K, the basic invariants a_alpha and the
deformation scalar mu) is built from them.  `WebSpec` holds the frame:
f_x, f_y, their inverses, H and K are built once per web, and the
operators d1, d2 build their product anew on each call.
"""
from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping

from . import expr as ex
from .expr import (Expr, EvalError, ExactBudgetError, Store, derive, div,
                   mul, pow_, sub, log_, evaluate, is_exactly_evaluable,
                   topo_order)

__all__ = [
    "Rect", "WebSpec", "DomainTooSingularError", "web_K",
    "basic_invariant", "mu", "SamplePoint", "sample_points",
    "random_rational", "reparameterized", "BoundedMemo", "DEFAULT_GRID_N",
    "MIN_GRID", "MAX_GRID", "MAX_BUILT",
]

DEFAULT_DOMAIN = (Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(3, 4))
# linearization grid nodes per axis, here so the CLI reads them without numpy
DEFAULT_GRID_N = 41
# an x- or y-leaf has a point per node; straightness measures leaves of 5
MIN_GRID = 5
MAX_GRID = 513  # a memory bound: there the coefficient arrays take ~67 MB
PARAM_RANGE = (Fraction(2), Fraction(7))  # every parameter is drawn from it
MAX_REJECTIONS = 100
RATIONAL_DENOMINATOR_BOUND = 10 ** 4
# web functions whose built expressions a memo keeps (validity checks here,
# invariants in `invariants`); each entry holds interned nodes only
MAX_BUILT = 2 ** 8
# float-mode guard band for the "not 0, not 1, pairwise distinct" checks:
# a p-bit value (sign, mantissa, exponent, bit count) has |v| < 2^-100
# exactly when its mantissa is 0 or exponent + bit count <= -100, since
# 2^(bit count - 1) <= mantissa < 2^(bit count)
_DISTINCT_EXP = -100


class DomainTooSingularError(ex.ExprError):
    """Rejection sampling could not find enough valid points."""


class BoundedMemo(dict):
    """A dict whose values weigh at most `bound` together, each weighing 1
    unless `weight` says otherwise.  Reads take no lock; `keep` inserts
    under the memo's lock, evicting the oldest entries first."""

    def __init__(self, bound: int, weight=lambda value: 1):
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


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle with exact rational corners."""
    x_lo: Fraction
    x_hi: Fraction
    y_lo: Fraction
    y_hi: Fraction

    def __post_init__(self):
        for name in ("x_lo", "x_hi", "y_lo", "y_hi"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ex.ExprError("rectangle must have positive extent")

    def __str__(self) -> str:
        return f"[{self.x_lo}, {self.x_hi}] x [{self.y_lo}, {self.y_hi}]"

    @property
    def center(self) -> tuple[Fraction, Fraction]:
        return ((self.x_lo + self.x_hi) / 2, (self.y_lo + self.y_hi) / 2)

    def as_floats(self) -> tuple[float, float, float, float]:
        return (float(self.x_lo), float(self.x_hi),
                float(self.y_lo), float(self.y_hi))


@dataclass(frozen=True)
class WebSpec:
    """A validated d-web: f plus g4..gd, with a sampling domain and seed.

    The web has d = 2 + (number of web functions) foliations: coordinate
    lines, levels of f, and levels of each g.  Validity of sample points
    (nonzero first partials, basic invariants away from 0 and 1 and pairwise
    distinct) is enforced by rejection at sampling time, not at construction.
    """
    f: Expr
    gs: tuple[Expr, ...]
    domain: Rect = Rect(*DEFAULT_DOMAIN)
    seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "gs", tuple(self.gs))
        if not self.gs:
            raise ex.ExprError("a d-web needs at least one g (d >= 4)")

    @property
    def d(self) -> int:
        return 3 + len(self.gs)

    @cached_property
    def params(self) -> tuple[str, ...]:
        """The free parameter names of the web functions, sorted."""
        return tuple(sorted(n.name for n in topo_order(self.f, *self.gs)
                            if n.kind == ex.PARAM))

    def g(self, alpha: int) -> Expr:
        """Web function of foliation alpha, 4 <= alpha <= d."""
        if not 4 <= alpha <= self.d:
            raise ex.ExprError(f"foliation index {alpha} out of range 4..{self.d}")
        return self.gs[alpha - 4]

    @cached_property
    def is_rational(self) -> bool:
        return all(is_exactly_evaluable(e) for e in (self.f, *self.gs))

    @cached_property
    def validity_checks(self) -> tuple[Expr, ...]:
        """What must not vanish at a valid sample point: the first partials
        of every web function, each a_alpha and a_alpha - 1, and the
        pairwise differences of the a_alpha.  They depend on the web
        functions alone, and are built once per (f, gs) in `_CHECKS`."""
        key = self.f, self.gs
        hit = _CHECKS.get(key)
        if hit is not None:
            return hit
        checks = [self.fx, self.fy]
        for g in self.gs:
            checks += [derive(g, "x"), derive(g, "y")]
        a_list = [basic_invariant(self, alpha) for alpha in range(4, self.d + 1)]
        for a in a_list:
            checks += [a, sub(a, 1)]
        for i, a in enumerate(a_list):
            checks += [sub(a, b) for b in a_list[i + 1:]]
        return _CHECKS.keep(key, tuple(checks))

    # -- the frame --------------------------------------------------------

    @cached_property
    def fx(self) -> Expr:
        return derive(self.f, "x")

    @cached_property
    def fy(self) -> Expr:
        return derive(self.f, "y")

    @cached_property
    def _inverses(self) -> tuple[Expr, Expr]:
        """1/f_x and 1/f_y, built once: each `pow_` call distributes anew."""
        return pow_(self.fx, -1), pow_(self.fy, -1)

    def d1(self, e: Expr) -> Expr:
        """First frame operator: -e_x / f_x."""
        return mul(-1, derive(e, "x"), self._inverses[0])

    def d2(self, e: Expr) -> Expr:
        """Second frame operator: -e_y / f_y."""
        return mul(-1, derive(e, "y"), self._inverses[1])

    @cached_property
    def H(self) -> Expr:
        """H = f_xy / (f_x f_y), the connection scalar of the 3-subweb."""
        return div(derive(self.fx, "y"), mul(self.fx, self.fy))

    @cached_property
    def K(self) -> Expr:
        """K = d1(H) - d2(H), the curvature of the 3-subweb."""
        return sub(self.d1(self.H), self.d2(self.H))


_CHECKS = BoundedMemo(MAX_BUILT)  # (f, gs) -> validity checks


def web_K(web: WebSpec, mode: str = "structure") -> Expr:
    """Web curvature of the 3-subweb (x, y, f).

    mode "structure": K = d1(H) - d2(H);
    mode "log":       K = -(log(f_x/f_y))_xy / (f_x f_y).
    The two agree as functions; keeping both gives a cross-formula oracle.
    """
    if mode == "structure":
        return web.K
    if mode == "log":
        inner = log_(div(web.fx, web.fy))
        return mul(-1, pow_(mul(web.fx, web.fy), -1),
                   derive(derive(inner, "x"), "y"))
    raise ex.ExprError(f"unknown curvature mode {mode!r}")


def basic_invariant(web: WebSpec, alpha: int = 4) -> Expr:
    """a_alpha = f_y (g_alpha)_x / (f_x (g_alpha)_y).

    Identical (already at DAG level) to d1(g_alpha)/d2(g_alpha).
    """
    g = web.g(alpha)
    return div(mul(web.fy, derive(g, "x")), mul(web.fx, derive(g, "y")))


def mu(web: WebSpec, alpha: int = 4) -> Expr:
    """Deformation scalar of the 4-subweb (x, y, f, g_alpha):

        mu_alpha = (d1(a) - a d2(a)) / (a - a^2).

    The denominator is fixed as (a - a^2); flipping it to (a^2 - a) negates
    the value but not any vanishing verdict.
    """
    a = basic_invariant(web, alpha)
    num = sub(web.d1(a), mul(a, web.d2(a)))
    return div(num, sub(a, pow_(a, 2)))


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SamplePoint:
    x: Fraction
    y: Fraction
    params: Mapping[str, Fraction] = field(default_factory=dict)

    def bindings(self) -> dict[str, Fraction]:
        return {"x": self.x, "y": self.y, **self.params}


def random_rational(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """Uniform-ish rational in [lo, hi], numerator and denominator <= 10^4."""
    lo, hi = Fraction(lo), Fraction(hi)
    span = max(abs(lo), abs(hi))
    q_max = max(1, min(RATIONAL_DENOMINATOR_BOUND,
                       int(RATIONAL_DENOMINATOR_BOUND / max(1, span))))
    for _ in range(64):
        q = rng.randint(1, q_max)
        p_lo = -((-lo.numerator * q) // lo.denominator)  # ceil(lo*q)
        p_hi = (hi.numerator * q) // hi.denominator      # floor(hi*q)
        if p_lo <= p_hi:
            return Fraction(rng.randint(p_lo, p_hi), q)
    raise DomainTooSingularError("interval too narrow for rational sampling")


def _point_is_valid(web: WebSpec, point: SamplePoint, precision: int,
                    store: Store | None = None) -> bool:
    """Whether every validity check of the web is nonzero at the point:
    exactly for a rational web, else with |v| >= 2^-100 at `precision`
    bits.  Decided on the raw values (see `expr.evaluate`), so no number
    object is made."""
    exact = web.is_rational
    bindings = point.bindings()
    for chk in web.validity_checks:
        try:
            v = evaluate(chk, bindings, None if exact else precision,
                         store=store, raw=True)
        except ExactBudgetError:
            raise  # not a property of the point: the zero test reports it
        except EvalError:
            return False
        if not v[0] if exact else _negligible(v):
            return False
    return True


def _negligible(v: tuple) -> bool:
    """|v| < 2^-100 for a p-bit value as a libmp tuple, decided exactly."""
    return not v[1] or v[2] + v[3] <= _DISTINCT_EXP


def sample_points(web: WebSpec, count: int, rng: random.Random | None = None,
                  params: Mapping[str, Fraction] | None = None,
                  precision: int = 256,
                  stores: list[Store] | None = None) -> list[SamplePoint]:
    """Draw `count` accepted sample points inside the web domain.

    Points violating the web validity constraints are rejected; after
    MAX_REJECTIONS consecutive rejections the domain is declared too
    singular.  A candidate's validity checks share one store: with
    `stores`, one per point, that of the point it would become.
    """
    rng = rng if rng is not None else random.Random(web.seed)
    if params is None:
        params = {name: random_rational(rng, *PARAM_RANGE)
                  for name in web.params}
    out: list[SamplePoint] = []
    rejects = 0
    dom = web.domain
    while len(out) < count:
        pt = SamplePoint(random_rational(rng, dom.x_lo, dom.x_hi),
                         random_rational(rng, dom.y_lo, dom.y_hi),
                         dict(params))
        store = stores[len(out)] if stores else Store()
        if _point_is_valid(web, pt, precision, store):
            out.append(pt)
            rejects = 0
        else:
            store.clear()
            rejects += 1
            if rejects > MAX_REJECTIONS:
                raise DomainTooSingularError(
                    f"domain too singular: {MAX_REJECTIONS} consecutive "
                    f"rejected samples in {dom}")
    return out


def reparameterized(web: WebSpec, p_of_x: Expr, q_of_y: Expr,
                    domain: Rect) -> WebSpec:
    """The equivalent web with f(p(x), q(y)), g(p(x), q(y)).

    `domain` must be chosen so that (p, q) maps it into a valid domain of
    the original web.
    """
    mapping = {"x": p_of_x, "y": q_of_y}
    return WebSpec(
        f=ex.substitute(web.f, mapping),
        gs=tuple(ex.substitute(g, mapping) for g in web.gs),
        domain=domain,
        seed=web.seed,
    )
