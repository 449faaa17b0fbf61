"""Command-line front end.

    weblin check      --f EXPR --g EXPR [...]    linearizability verdict
    weblin invariants --f EXPR --g EXPR [...]    per-invariant evidence
    weblin linearize  --f EXPR --g EXPR [...]    flat coordinates + residuals
    weblin selftest   [--equivalence]            built-in corpus regression

Exit codes for check/invariants: 0 = YES, 1 = NO, 2 = INCONCLUSIVE,
3 = usage or expression error.  A run that exhausts memory or the
recursion limit prints one line and exits 2, as INCONCLUSIVE: no
exception exits 1, the code of NO.  A reader that closes the output early
(`weblin check --json ... | head -1`) leaves the exit code as it was.  All
randomness is controlled by --seed; JSON output is byte-identical across
runs with the same configuration.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import sys
import time
from fractions import Fraction

from .expr import ExprError, ParseError, parse, format_expr
from .calculus import Rect, WebSpec
from .invariants import (MIN_PRECISION, MAX_PRECISION, MAX_POINTS,
                         ZeroTestPolicy, check_dweb, InvariantReport, YES, NO,
                         INCONCLUSIVE)
from . import calculus, corpus

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_VERDICT_EXIT = {YES: EXIT_YES, NO: EXIT_NO, INCONCLUSIVE: EXIT_INCONCLUSIVE}


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we reserve 2
        raise UsageError(message)


def _split_csv(text: str, n: int, what: str) -> list[str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise UsageError(f"{what} needs {n} comma-separated values")
    return parts


def _fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise UsageError(f"bad {what} value {text!r}: {err}") from None


def _build_config(args: argparse.Namespace) -> argparse.Namespace:
    """Check the parsed flags and split them in place: `domain`, `base` and
    `lambda0` become tuples of strings (an empty `domain` or `base` is
    unset), the `param` items become the dict `params`, and `samples` and
    `precision` the `policy`, which checks their ranges."""
    args.domain = (tuple(_split_csv(args.domain, 4, "--domain"))
                   if args.domain else None)
    args.base = tuple(_split_csv(args.base, 2, "--base")) if args.base else None
    args.lambda0 = tuple(_split_csv(args.lambda0, 2, "--lambda0"))
    args.params = {}
    for item in args.param or []:
        if "=" not in item:
            raise UsageError(f"--param expects name=value, got {item!r}")
        name, _, value = (t.strip() for t in item.partition("="))
        if name in args.params:
            raise UsageError(f"--param {name} given twice")
        args.params[name] = value
    args.policy = ZeroTestPolicy(points=args.samples, precision=args.precision)
    return args


def _config_json(args: argparse.Namespace) -> dict:
    return {
        "command": args.command,
        "domain": list(args.domain) if args.domain else None,
        "seed": args.seed,
        "samples": args.samples,
        "precision": args.precision,
        "grid": args.grid,
        "base": list(args.base) if args.base else None,
        "lambda0": list(args.lambda0),
        "params": dict(sorted(args.params.items())),
        "force": args.force,
    }


def _web_from_config(args: argparse.Namespace) -> WebSpec:
    if args.f is None or not args.g:
        raise UsageError("need --f and at least one --g (two web functions)")
    try:
        f = parse(args.f)
        gs = tuple(parse(s) for s in args.g)
    except ParseError as err:
        raise UsageError(f"expression error: {err}") from None
    kw = {}
    if args.domain:
        vals = [_fraction(v, "--domain") for v in args.domain]
        kw["domain"] = Rect(*vals)
    return WebSpec(f=f, gs=gs, seed=args.seed, **kw)


def _report_json(args: argparse.Namespace, web: WebSpec, verdict: str,
                 reports: list[InvariantReport],
                 linearization: dict | None = None) -> dict:
    return {
        "web": {"f": format_expr(web.f), "g": [format_expr(g) for g in web.gs]},
        "config": _config_json(args),
        "invariants": [r.to_json() for r in reports],
        "verdict": verdict,
        "linearization": linearization,
    }


def _print_invariant_line(r: InvariantReport, verbose: bool) -> None:
    extra = f", {len(r.evidence)} samples, {r.elapsed:.2f}s"
    print(f"{r.name}: {r.verdict} ({r.mode}, dag {r.dag_size}{extra})")
    if r.reason:
        print(f"    reason: {r.reason}")
    if verbose:
        for e in r.evidence:
            p = e.point
            ptxt = f"x={p.x} y={p.y}"
            if p.params:
                ptxt += " " + " ".join(f"{k}={v}" for k, v in
                                       sorted(p.params.items()))
            print(f"    {ptxt}: residual {e.residual} [{e.mode}]")


def _echo_web(web: WebSpec) -> None:
    gtxt = "; ".join(f"g{alpha} = {format_expr(g)}"
                     for alpha, g in zip(range(4, web.d + 1), web.gs))
    print(f"web (d={web.d}): f = {format_expr(web.f)}; {gtxt}")
    print(f"domain: {web.domain}, seed {web.seed}")


def cmd_check(args: argparse.Namespace, verbose_evidence: bool = False) -> int:
    web = _web_from_config(args)
    verdict, reports = check_dweb(web, args.policy)
    if args.json:
        print(json.dumps(_report_json(args, web, verdict, reports), indent=2))
    else:
        _echo_web(web)
        for r in reports:
            _print_invariant_line(r, verbose_evidence)
        print(f"verdict: {verdict}")
    return _VERDICT_EXIT[verdict]


def cmd_invariants(args: argparse.Namespace) -> int:
    return cmd_check(args, verbose_evidence=True)


def cmd_linearize(args: argparse.Namespace) -> int:
    from . import linearizer as lin  # numpy loads for this command only
    web = _web_from_config(args)
    params = {k: _fraction(v, "--param") for k, v in args.params.items()}
    base = (tuple(_fraction(t, "--base") for t in args.base) if args.base
            else None)
    lam0 = tuple(_fraction(t, "--lambda0") for t in args.lambda0)
    grid = lin.GridSpec(rect=web.domain, nx=args.grid, ny=args.grid)
    try:
        result = lin.flat_coordinates(web, grid, base=base, lam0=lam0,
                                      params=params, force=args.force,
                                      policy=args.policy)
    except lin.NotLinearizableError as err:
        msg = (f"web verdict is {err.verdict}; linearization refused "
               "(--force to run it anyway as a negative control)")
        if args.json:
            print(json.dumps(_report_json(args, web, err.verdict, err.reports,
                                          {"refused": msg}), indent=2))
        else:
            _echo_web(web)
            print(msg)
        return EXIT_NO if err.verdict == NO else EXIT_INCONCLUSIVE
    except lin.LinearizerError as err:
        print(f"linearization failed: {err}", file=sys.stderr)
        return EXIT_NO
    if args.svg:
        try:
            lin.render_svg(result, args.svg)
        except OSError as err:  # before stdout: the report is not printed
            raise UsageError(f"--svg {args.svg}: cannot write "
                             f"({err.strerror or err})") from None
    if args.json:
        print(json.dumps(_report_json(args, web, result.verdict, result.reports,
                                      result.to_json()), indent=2))
    else:
        _echo_web(web)
        print(f"verdict: {result.verdict}")
        print(f"grid: {args.grid}x{args.grid}, base {result.base}, "
              f"lambda0 {result.lam0}")
        print(f"path independence residual: "
              f"{result.path_independence_residual:.3e}")
        print("straightness (max normalized line-fit residual per foliation):")
        for k, v in sorted(result.straightness.items()):
            print(f"    {k:4s} {v:.3e}")
        if result.skipped_leaves:
            print(f"skipped leaves: {result.skipped_leaves}")
        if args.svg:
            print(f"svg written to {args.svg}")
    return EXIT_YES


def cmd_selftest(args: argparse.Namespace) -> int:
    rows = []
    t0 = time.perf_counter()
    runs = [("plain", corpus.web_for, [*corpus.CASES, corpus.LINEAR_FIVE_WEB])]
    if args.equivalence:
        runs.append(("substituted", corpus.substituted_web, corpus.CASES))
    for variant, build, cases in runs:
        for case in cases:
            verdict, _ = check_dweb(build(case, seed=args.seed), args.policy)
            rows.append({"case": case.name, "variant": variant,
                         "expected": case.expected, "verdict": verdict,
                         "ok": verdict == case.expected})
    failures = sum(not r["ok"] for r in rows)
    elapsed = time.perf_counter() - t0
    if args.json:
        print(json.dumps({"config": _config_json(args), "cases": rows,
                          "failures": failures,
                          "elapsed_seconds": repr(elapsed)}, indent=2))
    else:
        for r in rows:
            mark = "ok " if r["ok"] else "FAIL"
            print(f"{mark} {r['case']:28s} [{r['variant']:11s}] "
                  f"expected {r['expected']:3s} got {r['verdict']}")
        total = len(rows)
        print(f"{total - failures}/{total} verdicts match ({elapsed:.1f}s)")
    return EXIT_YES if failures == 0 else EXIT_NO


def build_parser() -> _ArgumentParser:
    """The four commands.  Every default is declared once, here on the top
    parser, so a command without a flag still reads its default; the
    commands' own flags default to unset (argparse.SUPPRESS)."""
    ap = _ArgumentParser(prog="weblin", description=__doc__,
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.set_defaults(f=None, g=None, domain=None, seed=1, samples=8,
                    precision=256, json=False, grid=calculus.DEFAULT_GRID_N,
                    base=None, lambda0="0,0", param=None, svg=None,
                    force=False, equivalence=False)
    default = ap.get_default
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, help, functions=True):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        if functions:
            p.add_argument("--f", help="web function of the third foliation")
            p.add_argument("--g", action="append",
                           help="web function g4 (repeat for g5..gd)")
            p.add_argument("--domain",
                           help="sampling rectangle xlo,xhi,ylo,yhi")
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int,
                       help="sample points per vanishing test, "
                            f"1..{MAX_POINTS} (default {default('samples')})")
        p.add_argument("--precision", type=int,
                       help="float precision in bits, "
                            f"{MIN_PRECISION}..{MAX_PRECISION} "
                            f"(default {default('precision')})")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable report")
        return p

    command("check", "decide linearizability")
    command("invariants", "verdicts with full evidence")
    p = command("linearize", "construct flat coordinates")
    p.add_argument("--grid", type=int,
                   help=f"grid nodes per axis, {calculus.MIN_GRID}.."
                        f"{calculus.MAX_GRID} "
                        f"(default {default('grid')})")
    p.add_argument("--base", help="base point x,y (default: domain center)")
    p.add_argument("--lambda0", help="initial deformation a,b "
                   f"(default {default('lambda0')})")
    p.add_argument("--param", action="append",
                   help="free parameter value name=value (repeatable)")
    p.add_argument("--svg", help="write a before/after leaf plot to PATH")
    p.add_argument("--force", action="store_true",
                   help="run the pipeline even for a non-YES web")
    p = command("selftest", "run the built-in corpus", functions=False)
    p.add_argument("--equivalence", action="store_true",
                   help="also run every case under x->x^3+x, y->exp(y)")
    return ap


# one parser per process: parsing leaves it as it was (each call fills a
# new namespace, every default is immutable and the append flags start
# from None)
_parser = functools.cache(build_parser)

_SIGNED_FLAGS = ("--domain", "--base", "--lambda0")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """`--lambda0 -0.1,0.1` as `--lambda0=-0.1,0.1`, `--f -x` as `--f=-x`:
    argparse would take a value with a leading minus for an option and find
    the flag's value missing (`--f --g x` still misses one)."""
    out: list[str] = []
    for arg in argv:
        if out and (out[-1] in _SIGNED_FLAGS and re.match(r"-[\d.]", arg)
                    or out[-1] in ("--f", "--g") and re.match(r"-(?!-)", arg)):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _write_out(text: str) -> None:
    """Write the command's output to stdout.  A reader that closed the
    pipe gets nothing more: stdout then points at devnull, so the
    interpreter's last flush cannot fail (the SIGPIPE note of the Python
    `signal` docs)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        with contextlib.suppress(OSError, ValueError, AttributeError):
            fd = sys.stdout.fileno()  # none on an in-memory stdout
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def main(argv: list[str] | None = None) -> int:
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
    out = io.StringIO()  # written once the exit code is known
    try:
        args = _build_config(_parser().parse_args(argv))
        handler = {"check": cmd_check, "invariants": cmd_invariants,
                   "linearize": cmd_linearize, "selftest": cmd_selftest}
        with contextlib.redirect_stdout(out):
            code = handler[args.command](args)
    except (UsageError, ExprError) as err:
        # malformed domain rectangles, bad parameter names, a base off the
        # grid and similar input-shaped problems are usage errors
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, RecursionError) as err:  # no partial report
        print(f"error: {type(err).__name__}: the run exhausted its "
              "resources; INCONCLUSIVE", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    _write_out(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
