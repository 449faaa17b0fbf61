"""Built-in regression corpus: nine webs with known linearizability verdicts.

Each case stores the function strings in this package's grammar
(`functions`), its expected verdict, a sampling rectangle that avoids the
web's singular lines, and (where the numerical pipeline is exercised) a
rectangle on which the basic invariant stays away from 0 and 1 everywhere.

The equivalence transform x -> x^3 + x, y -> exp(y) produces, for every
case, an equivalent web whose verdict must not change; `substituted_web`
builds it together with a preimage domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .expr import parse
from .calculus import Rect, WebSpec, reparameterized, DEFAULT_DOMAIN

__all__ = [
    "CorpusCase", "CASES", "LINEAR_FIVE_WEB", "case_by_name", "web_for",
    "linearization_web", "substituted_web", "SUBSTITUTION_P", "SUBSTITUTION_Q",
]

SUBSTITUTION_P = "x^3 + x"
SUBSTITUTION_Q = "exp(y)"

_DEFAULT = Rect(*DEFAULT_DOMAIN)
_OFF_DIAGONAL = Rect(Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(3, 4))


@dataclass(frozen=True)
class CorpusCase:
    name: str
    functions: tuple[str, ...]
    expected: str
    domain: Rect = _DEFAULT
    lin_domain: Rect | None = None
    note: str = ""


CASES: tuple[CorpusCase, ...] = (
    CorpusCase(
        name="pencil-with-parallels",
        functions=("x/y", "x + y"),
        expected="YES",
        lin_domain=_DEFAULT,
        note="third foliation: the line pencil through the origin; fourth: "
             "parallel lines at 135 degrees; linear as given",
    ),
    CorpusCase(
        name="two-pencils",
        functions=("x/y", "(1 - y)/(1 - x)"),
        expected="YES",
        lin_domain=_OFF_DIAGONAL,  # basic invariant hits 1 on x == y
        note="line pencils centered at (0,0) and (1,1); linear as given",
    ),
    CorpusCase(
        name="parabola-tangents",
        functions=("x + sqrt(x^2 - y)", "x + y"),
        expected="YES",
        domain=Rect(Fraction(5, 4), Fraction(7, 4), Fraction(1, 8), Fraction(3, 8)),
        lin_domain=Rect(Fraction(5, 4), Fraction(7, 4), Fraction(1, 8), Fraction(3, 8)),
        note="third foliation: tangent lines of y = x^2 (needs x^2 > y); "
             "linear although not obviously so",
    ),
    CorpusCase(
        name="double-parabola-tangents",
        functions=("x + sqrt(x^2 - y)", "y + sqrt(y^2 - x)"),
        expected="YES",
        domain=Rect(Fraction(2), Fraction(11, 5), Fraction(8, 5), Fraction(2)),
        lin_domain=Rect(Fraction(2), Fraction(11, 5), Fraction(8, 5), Fraction(2)),
        note="tangent lines of two parabolas (needs x^2 > y and y^2 > x)",
    ),
    CorpusCase(
        name="exponential-twist",
        functions=("x/y", "(x + y)*exp(-x)"),
        expected="NO",
        lin_domain=Rect(Fraction(11, 10), Fraction(13, 10),
                        Fraction(1, 5), Fraction(2, 5)),  # negative control
        note="every 3-subweb is nice, the 4-web is not linearizable; "
             "the line x + y = 1 is singular for the fourth foliation",
    ),
    CorpusCase(
        name="power-web",
        functions=("x/y", "x^n + y^n"),
        expected="YES",
        lin_domain=_DEFAULT,
        note="equivalent to pencil-with-parallels for generic exponent; "
             "linearizable but not linear",
    ),
    CorpusCase(
        name="bol-five-web",
        functions=("y/x", "(1 - y)/(1 - x)", "(x - x*y)/(y - x*y)"),
        expected="NO",
        lin_domain=_OFF_DIAGONAL,
        note="four line pencils plus the conics through their centers; "
             "maximum rank yet not linearizable",
    ),
    CorpusCase(
        name="bol-four-subweb",
        functions=("y/x", "(x - x*y)/(y - x*y)"),
        expected="YES",
        lin_domain=_OFF_DIAGONAL,
        note="drop one pencil from the five-web and it becomes linearizable "
             "(e.g. by x -> 1/x, y -> 1/y)",
    ),
    CorpusCase(
        name="spence-kummer-nine-web",
        functions=("x/y", "(1 - y)/(1 - x)", "(x - x*y)/(y - x*y)", "x*y",
                   "(x - x*y)/(x - 1)", "(1 - y)/(x*y - y)",
                   "x*(1 - y)^2/(y*(1 - x)^2)"),
        expected="NO",
        lin_domain=_OFF_DIAGONAL,
        note="nine foliations: four pencils, four conic families and a cubic "
             "family; maximum rank yet not linearizable",
    ),
)

# constructed fixture: an already-linear 5-web (pencil, two parallel
# families, coordinate lines); every 4-subweb of it must test YES
LINEAR_FIVE_WEB = CorpusCase(
    name="linear-five-web",
    functions=("x/y", "x + y", "2*x + y"),
    expected="YES",
    lin_domain=_DEFAULT,
    note="pencil-with-parallels extended by a second family of parallels",
)


def case_by_name(name: str) -> CorpusCase:
    for c in (*CASES, LINEAR_FIVE_WEB):
        if c.name == name:
            return c
    raise KeyError(f"no corpus case named {name!r}")


def web_for(case: CorpusCase, seed: int = 1) -> WebSpec:
    exprs = tuple(parse(s) for s in case.functions)
    return WebSpec(f=exprs[0], gs=exprs[1:], domain=case.domain, seed=seed)


def linearization_web(case: CorpusCase, seed: int = 1) -> WebSpec:
    exprs = tuple(parse(s) for s in case.functions)
    return WebSpec(f=exprs[0], gs=exprs[1:],
                   domain=case.lin_domain or case.domain, seed=seed)


def _inverse_cubic(target: float) -> float:
    """Inverse of t -> t^3 + t (strictly increasing) by bisection."""
    lo, hi = -16.0, 16.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 + mid < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _shrunk_interval(lo: float, hi: float) -> tuple[Fraction, Fraction]:
    pad = 0.01 * (hi - lo)
    return (Fraction(lo + pad).limit_denominator(10 ** 6),
            Fraction(hi - pad).limit_denominator(10 ** 6))


def substituted_web(case: CorpusCase, seed: int = 1) -> WebSpec:
    """The equivalent web f(x^3 + x, exp(y)) on a preimage rectangle.

    The case's y-domain must be positive (exp cannot reach non-positive
    values); every corpus rectangle satisfies this.
    """
    if case.domain.y_lo <= 0:
        raise ValueError(f"case {case.name} has a non-positive y-domain; "
                         "the exp substitution cannot reach it")
    web = web_for(case, seed)
    x_lo = _inverse_cubic(float(case.domain.x_lo))
    x_hi = _inverse_cubic(float(case.domain.x_hi))
    y_lo = math.log(float(case.domain.y_lo))
    y_hi = math.log(float(case.domain.y_hi))
    xs = _shrunk_interval(x_lo, x_hi)
    ys = _shrunk_interval(y_lo, y_hi)
    dom = Rect(xs[0], xs[1], ys[0], ys[1])
    return reparameterized(web, parse(SUBSTITUTION_P), parse(SUBSTITUTION_Q), dom)
