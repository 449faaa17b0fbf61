"""Inputs of the benchmark workloads, made from the workload seed.

An operation is the argument list of one `weblin` command plus what its
output is checked against.  Inputs are generated in the benchmark's parent
process, so the measured weblin process receives only argument lists and
its expression tables start empty.

    python3 perfbench/workloads.py     # self-check of the generators
"""
from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from weblin import corpus  # noqa: E402
from weblin.calculus import Rect, reparameterized  # noqa: E402
from weblin.expr import format_expr, parse  # noqa: E402

# weblin --seed values on corpus-warm cycle through 1..REFERENCE_SEEDS; the
# reference file holds a fingerprint for every corpus web at each of them
REFERENCE_SEEDS = 32
LINEARIZE_GRIDS = ((41, tuple(c.name for c in corpus.CASES
                              if c.expected == "YES")),
                   (81, ("two-pencils", "parabola-tangents")))
SVG_PATH = "perfbench/out/linearize.svg"
_PARAMS = {"power-web": ("n=2",)}
_DENOMINATOR_BOUND = 10 ** 4


def _rect_args(rect: Rect) -> list[str]:
    return ["--domain", f"{rect.x_lo},{rect.x_hi},{rect.y_lo},{rect.y_hi}"]


def _function_args(functions) -> list[str]:
    args = ["--f", functions[0]]
    for g in functions[1:]:
        args += ["--g", g]
    return args


def _web_args(web) -> list[str]:
    return (_function_args([format_expr(e) for e in (web.f, *web.gs)])
            + _rect_args(web.domain))


def _check_op(key, case, args, seed, ref=None, echo=False) -> dict:
    return {"key": key, "kind": "check", "expected": case.expected,
            "args": ["check", "--json", *args, "--seed", str(seed)],
            "ref": ref, "seed": seed, "echo": echo}


def corpus_webs() -> list[tuple[str, object, list[str]]]:
    """The 19 corpus-warm webs: nine plain corpus webs, LINEAR_FIVE_WEB and
    the nine `substituted_web` variants, as (reference key, case, args)."""
    out = []
    for case in (*corpus.CASES, corpus.LINEAR_FIVE_WEB):
        out.append((f"plain/{case.name}", case,
                    _function_args(case.functions) + _rect_args(case.domain)))
    for case in corpus.CASES:
        out.append((f"substituted/{case.name}", case,
                    _web_args(corpus.substituted_web(case))))
    return out


def corpus_warm(seed: int, passes: int) -> tuple[list[dict], list[list[dict]]]:
    """An untimed cache-filling pass and `passes` timed passes.

    Every pass checks all 19 webs in a seeded order.  The weblin --seed
    rotates 1, 2, 3, ... from pass to pass, so sample points change while
    the expressions repeat; it does not depend on the workload seed, because
    the cost of a pass depends on its sample points and runs of equal
    length should do the same work.
    """
    rng = random.Random(f"corpus-warm/{seed}")
    webs = corpus_webs()

    def one_pass(k: int) -> list[dict]:
        wseed = 1 + k % REFERENCE_SEEDS
        order = list(webs)
        rng.shuffle(order)
        return [_check_op(key, case, args, wseed, ref=key)
                for key, case, args in order]

    warm = one_pass(-1)
    return warm, [one_pass(k) for k in range(passes)]


def _inverse_increasing(fn, target: Fraction, hi: Fraction) -> float:
    lo, hi = 0.0, float(hi)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def preimage_rect(rect: Rect, c: Fraction, d: Fraction) -> Rect:
    """A rectangle that x -> x + c x^3, y -> y + d y^2 maps inside `rect`.

    Both maps increase on the positive axis, so the float preimage of the
    corners, shrunk by 1% and rounded to rationals, is checked exactly.
    """
    if rect.x_lo <= 0 or rect.y_lo <= 0:
        raise ValueError("the reparameterization needs a positive rectangle")
    p = lambda t: t + c * t ** 3  # noqa: E731
    q = lambda t: t + d * t ** 2  # noqa: E731
    xs = [_inverse_increasing(p, v, rect.x_hi) for v in (rect.x_lo, rect.x_hi)]
    ys = [_inverse_increasing(q, v, rect.y_hi) for v in (rect.y_lo, rect.y_hi)]
    corners = []
    for lo, hi in (xs, ys):
        pad = 0.01 * (hi - lo)
        corners += [Fraction(lo + pad).limit_denominator(_DENOMINATOR_BOUND),
                    Fraction(hi - pad).limit_denominator(_DENOMINATOR_BOUND)]
    out = Rect(*corners)
    if not (p(out.x_lo) >= rect.x_lo and p(out.x_hi) <= rect.x_hi
            and q(out.y_lo) >= rect.y_lo and q(out.y_hi) <= rect.y_hi):
        raise ValueError(f"preimage {out} does not map inside {rect}")
    return out


def fresh_web(case, c: Fraction, d: Fraction, wseed: int, index: int) -> dict:
    """The corpus web `case` under x -> x + c x^3, y -> y + d y^2, checked on
    the preimage of its sampling rectangle; the verdict is the case's."""
    dom = preimage_rect(case.domain, c, d)
    web = reparameterized(corpus.web_for(case), parse(f"x + {c}*x^3"),
                          parse(f"y + {d}*y^2"), dom)
    for e in (web.f, *web.gs):
        if parse(format_expr(e)) is not e:
            raise ValueError(f"{format_expr(e)!r} does not parse back to "
                             "the same expression")
    return _check_op(f"fresh/{case.name}#{index}", case, _web_args(web),
                     wseed, echo=True)


def _small_rational(rng: random.Random, denominator: int) -> Fraction:
    # a prime denominator keeps every coefficient the same bit size, so the
    # cost of exact evaluation varies little from seed to seed
    return Fraction(rng.randint(10, denominator - 1), denominator)


def webs_fresh(seed: int, passes: int) -> tuple[list[dict], list[list[dict]]]:
    """`passes` passes of nine webs no process has seen: each pass holds
    every plain corpus case once, in a seeded order, under its own
    random polynomial reparameterization."""
    rng = random.Random(f"webs-fresh/{seed}")
    out = []
    index = 0
    for _ in range(passes):
        order = list(corpus.CASES)
        rng.shuffle(order)
        one = []
        for case in order:
            c, d = _small_rational(rng, 97), _small_rational(rng, 89)
            one.append(fresh_web(case, c, d, rng.randint(1, 10 ** 6), index))
            index += 1
        out.append(one)
    return [], out


def linearize(seed: int, passes: int) -> tuple[list[dict], list[list[dict]]]:
    """Each pass runs the six linearizable corpus webs on their lin_domain
    at 41x41, and two-pencils (exact verdict) and parabola-tangents (float
    verdict) at 81x81, in a seeded order; --seed rotates as on corpus-warm."""
    rng = random.Random(f"linearize/{seed}")
    ops = []
    for grid, names in LINEARIZE_GRIDS:
        for name in names:
            case = corpus.case_by_name(name)
            args = (["linearize", "--json", "--svg", SVG_PATH,
                     "--grid", str(grid)]
                    + _function_args(case.functions)
                    + _rect_args(case.lin_domain))
            for p in _PARAMS.get(name, ()):
                args += ["--param", p]
            ops.append({"key": f"linearize/{name}@{grid}", "kind": "linearize",
                        "expected": case.expected, "args": args,
                        "grid": grid, "svg": SVG_PATH, "ref": None,
                        "echo": False})
    out = []
    for k in range(passes):
        order = [dict(op) for op in ops]
        rng.shuffle(order)
        wseed = 1 + k % REFERENCE_SEEDS
        for op in order:
            op["seed"] = wseed
            op["args"] = op["args"] + ["--seed", str(wseed)]
        out.append(order)
    return [], out


GENERATORS = {"corpus-warm": corpus_warm, "webs-fresh": webs_fresh,
              "linearize": linearize}


def passes_for(workload: str, seconds: float) -> int:
    """Timed passes to generate: about twice what a run uses at this commit.

    A run stops early, and says so, if it uses them all up.  Fresh webs cost
    generation time, which counts in setup_s, so they get the least spare.
    """
    per_second = {"corpus-warm": 8, "webs-fresh": 0.6, "linearize": 1}
    return max(2, int(seconds * per_second[workload]))


def _self_check() -> None:
    a = webs_fresh(1, 2)
    if a != webs_fresh(1, 2):
        raise SystemExit("webs-fresh: the same seed gave different inputs")
    if a == webs_fresh(2, 2):
        raise SystemExit("webs-fresh: two seeds gave the same inputs")
    by_name = {c.name: c for c in corpus.CASES}
    for op in a[1][0] + a[1][1]:
        name = op["key"].split("/", 1)[1].split("#")[0]
        if op["expected"] != by_name[name].expected:
            raise SystemExit(f"{op['key']}: verdict not inherited")
    for gen in (corpus_warm, linearize):
        if gen(3, 2) != gen(3, 2) or gen(3, 2) == gen(4, 2):
            raise SystemExit(f"{gen.__name__}: not a function of the seed")
    print("workload generators: deterministic, seed-dependent, "
          "rectangles inside, verdicts inherited")


if __name__ == "__main__":
    sys.exit(_self_check())
