"""Numerical linearization: flat coordinates of a linearizable web.

`flat_coordinates(web, grid)` is the whole pipeline, and its result is the
whole answer.  It tests the web at the given parameter values once and
refuses it unless the verdict is YES.  For a YES web the deformation components
lambda1, lambda2 of the flat connection satisfy a first-order Frobenius
system whose coefficients are the symbolic scalars H, K, mu and the frame
derivatives of mu; a parallel coframe and its potentials (u, v) satisfy a
linear system along with them.  The pipeline evaluates the coefficients
once, integrates the whole system with classical 4th-order steps along grid
lines in the x-first and the y-first order, and certifies flatness by
holonomy: the two orders must give the same state (lambda, both coframes,
u, v) at every node, which also makes the coframes closed, and the coframe
must stay nondegenerate.  One RK4 kernel serves both directions (the
y-system is the x-system with l1 <-> l2 and p <-> q swapped), and every
line splits at its start node into a forward and a backward half-line, all
run as one batch.  So the two orders take two stages: the base row and
column, then every column and every row.  As du = theta1 and
dv = theta2, the coframe is the Jacobian of (u, v) at every node.
`straightness_report` then traces the leaves of every foliation once,
bisecting all its levels together (their points lie on grid lines, where u
and v are interpolated together by cubic Hermite along the line, with the
Jacobian as slopes) and measures how straight they become under
(x, y) -> (u, v).  The result holds u, v and their Jacobian as node
arrays, the certificates, the straightness and the traced leaves, which
`render_svg` draws.

Coefficients are always evaluated from their symbolic expressions, with the
web's validity checks, as one compiled program run block by block on the
grid lines, refined to contain every integrator substep point, by
`grid_function`: `expr._walk` in numpy doubles.  Only the unknowns (lambda,
the coframe, the potentials) are discretized, and nothing is finite
differenced.  numpy is imported here alone, and the package and the CLI
load this module only to linearize.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import partial, reduce
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import (UNDEF, Expr, ExprError, Program, SingularSampleError,
                   _check_bindings, _walk, format_expr, substitute)
from .calculus import (DEFAULT_GRID_N, MAX_GRID, MIN_GRID, WebSpec, Rect,
                       mu as web_mu)
from .invariants import check_dweb, InvariantReport, ZeroTestPolicy, YES

__all__ = [
    "GridSpec", "CoefficientGrid", "LinearizationResult",
    "LinearizerError", "NotLinearizableError", "integrate_lambda",
    "flatness_residual", "flat_coordinates", "straightness_report",
    "trace_leaves", "render_svg", "grid_function", "LAMBDA_BLOWUP_BOUND",
    "LEAVES_PER_FOLIATION", "PATH_TOLERANCE",
]

DEFAULT_SUBSTEPS = 2  # RK4 substeps per grid interval
LAMBDA_BLOWUP_BOUND = 1e12
COFRAME_DET_BOUND = 1e-8
PATH_TOLERANCE = 1e-8  # bound on the two-path (holonomy) residual
LEAVES_PER_FOLIATION = 5
BLOCK_POINTS = 2 ** 14  # line points per coefficient evaluation block
BISECTION_CAP = 80  # halvings per leaf crossing, at most


class LinearizerError(RuntimeError):
    pass


class NotLinearizableError(LinearizerError):
    """The web did not pass the linearizability test; carries the verdict
    and the invariant reports of `check_dweb`."""

    def __init__(self, verdict: str, reports: list[InvariantReport]):
        super().__init__(
            f"web verdict is {verdict}; refusing to integrate the flat "
            "connection (pass force=True to override)")
        self.verdict = verdict
        self.reports = reports


@dataclass(frozen=True)
class GridSpec:
    """Rectangular lattice of nx x ny nodes over a rational rectangle.

    The node coordinates `xs`, `ys` (read-only arrays) and spacings `hx`,
    `hy` are computed once, here.  A node count outside MIN_GRID..MAX_GRID
    or an extent that is not a positive double raises ExprError, as an
    input error of `Rect` and `WebSpec` does."""
    rect: Rect
    nx: int = DEFAULT_GRID_N
    ny: int = DEFAULT_GRID_N

    def __post_init__(self):
        if not (MIN_GRID <= min(self.nx, self.ny)
                and max(self.nx, self.ny) <= MAX_GRID):
            raise ExprError(
                f"grid needs {MIN_GRID} to {MAX_GRID} nodes per axis")
        try:
            xlo, xhi, ylo, yhi = self.rect.as_floats()
        except OverflowError:
            xlo = xhi = ylo = yhi = 0.0
        if not (0 < xhi - xlo < math.inf and 0 < yhi - ylo < math.inf):
            raise ExprError("rectangle extent is not a positive double")
        xs = np.linspace(xlo, xhi, self.nx)
        ys = np.linspace(ylo, yhi, self.ny)
        xs.flags.writeable = ys.flags.writeable = False
        self.__dict__.update(xs=xs, ys=ys, hx=(xhi - xlo) / (self.nx - 1),
                             hy=(yhi - ylo) / (self.ny - 1))

    def nearest_index(self, x, y) -> tuple[int, int]:
        """The indices of the node nearest to the point (x, y), two reals;
        ExprError for a point off the grid, infinite or not a number."""
        try:
            i = round((float(x) - float(self.xs[0])) / self.hx)
            j = round((float(y) - float(self.ys[0])) / self.hy)
        except OverflowError:  # infinite, or a rational past double range
            raise ExprError("base point outside the grid") from None
        except ValueError:
            raise ExprError("base point is not a number") from None
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise ExprError("base point outside the grid")
        return i, j


class _GridArithmetic:
    """numpy doubles, elementwise; singularities become nan/inf entries.

    An exponent counts as an integer only when its node is an integer
    constant, so a parameter exponent always goes through float `power`.
    """

    add = staticmethod(partial(reduce, operator.add))  # folded left
    mul = staticmethod(partial(reduce, operator.mul))
    exp, log, check = np.exp, np.log, None

    @staticmethod
    def num(q: Fraction) -> float:
        # a constant beyond double range is an infinite entry, as any other
        # overflow on the grid is
        try:
            return float(q)
        except OverflowError:
            return math.inf if q > 0 else -math.inf

    @staticmethod
    def pow(b, ex, q):
        if q is None or q.denominator != 1:
            return np.power(b, ex)
        n = int(q)
        return np.power(b, n) if n >= 0 else 1.0 / np.power(b, -n)


_GRID = _GridArithmetic()


def grid_function(*roots: Expr) -> Callable:
    """Compile roots to one vectorized double-precision function of (x, y)
    arrays: the roots share one `Program`, so a node common to several is
    computed once per call.  With one root the function returns its array,
    with several a list of new arrays in root order (none aliases another
    or an input).

    The roots' codes merge into one children-first order, each slot at its
    first use, with a release plan: a slot that is not a root is dropped
    after its last reader, so a call holds its live slots, not one array
    per slot.  The constants are converted on the first call and kept.
    Singularities surface as nan/inf entries, which callers must check for.
    """
    program = Program()
    codes, names = zip(*map(program.code, roots))
    _check_bindings(frozenset().union(*names), {"x", "y"})
    code = list({ins[0]: ins for c in codes for ins in c}.values())
    if any(k == UNDEF for _, k, _, _ in code):
        raise SingularSampleError("undefined value (division by constant zero)")
    outs = [program.instructions[r][0] for r in roots]
    consts = [None] * len(program.instructions)
    last = {c: i for i, (_, _, _, kids) in enumerate(code) for c in kids}
    dead = [[] for _ in code]
    for s, i in last.items():
        if s not in outs:
            dead[i].append(s)

    def fn(xg, yg):
        xg = np.asarray(xg, dtype=float)
        yg = np.asarray(yg, dtype=float)
        shape = np.broadcast_shapes(xg.shape, yg.shape)
        vals = consts.copy()
        with np.errstate(all="ignore"):
            _walk(code, _GRID, vals, {"x": xg, "y": yg}, consts, dead)
        arrays = []
        for v in map(vals.__getitem__, outs):
            # a leaf, a constant, a repeated root or a root of a smaller
            # shape gets an array of its own; a computed root is returned
            if (not isinstance(v, np.ndarray) or v.shape != shape
                    or any(v is a for a in (xg, yg, *arrays))):
                v = np.broadcast_to(v, shape).copy()
            arrays.append(v)
        return arrays[0] if len(arrays) == 1 else arrays

    return fn


_COEFF_NAMES = ("fx", "fy", "H", "K", "mu", "mu1", "mu2")


class CoefficientGrid:
    """The line coefficients of `_frame_step` on the grid lines the sweeps
    read, refined by r = 2m for the half-substep points of
    m = DEFAULT_SUBSTEPS RK4 substeps per interval: the x-system's in
    `xlines` (coefficient, refined x, y node) and the y-system's in
    `ylines` (coefficient, refined y, x node), node values at `[:, ::r]`.
    The seven coefficients (_COEFF_NAMES) and the web's validity checks are
    one compiled program, run in blocks of at most BLOCK_POINTS points, and
    each block's line coefficients are computed once.  A check that is 0 or
    not finite at a line point, or divides by a constant zero, refuses the
    web before any coefficient is tested for finiteness."""

    def __init__(self, web: WebSpec, grid: GridSpec):
        self.grid = grid
        self.r = r = 2 * DEFAULT_SUBSTEPS
        m = web_mu(web, 4)
        exprs = (web.fx, web.fy, web.H, web.K, m, web.d1(m), web.d2(m))
        checks = web.validity_checks
        try:
            fn = grid_function(*exprs, *checks)
        except SingularSampleError:  # it divides by a constant zero
            raise LinearizerError("web is degenerate on the grid") from None
        xlo, xhi, ylo, yhi = grid.rect.as_floats()  # the refined lines
        xs = np.linspace(xlo, xhi, (grid.nx - 1) * r + 1)
        ys = np.linspace(ylo, yhi, (grid.ny - 1) * r + 1)
        self.xlines = np.empty((4, len(xs), grid.ny))
        self.ylines = np.empty((4, len(ys), grid.nx))
        valid = np.ones(len(checks), dtype=bool)
        finite = np.ones(len(exprs), dtype=bool)
        # (along, across) is (x, y) on the x-lines, (y, x) on the y-lines
        for out, along, across, axis in ((self.xlines, xs, grid.ys, "x"),
                                         (self.ylines, ys, grid.xs, "y")):
            rows = max(1, BLOCK_POINTS // len(across))
            for i in range(0, len(along), rows):
                points = along[i:i + rows, None], across
                vals = fn(*points if axis == "x" else points[::-1])
                coeffs, tests = vals[:len(exprs)], vals[len(exprs):]
                valid &= [np.all(np.isfinite(v) & (v != 0)) for v in tests]
                finite &= [np.isfinite(v).all() for v in coeffs]
                out[:, i:i + rows] = _line_coefficients(coeffs, axis)
        if not valid.all():  # the first failing check, whatever the blocks
            raise LinearizerError("web is degenerate on the grid: "
                                  f"{format_expr(checks[valid.argmin()])} is "
                                  "0 or not finite")
        if not finite.all():
            raise LinearizerError(
                f"coefficient {_COEFF_NAMES[finite.argmin()]} is singular "
                "inside the grid; choose a smaller or shifted rectangle")


# the y-system's state order (l1 <-> l2, p <-> q) and back: an involution
_SWAP = [1, 0, 3, 2, 5, 4, 6, 7]


@np.errstate(all="ignore")  # CoefficientGrid refuses a singular value
def _line_coefficients(c: Sequence[np.ndarray], along: str) -> np.ndarray:
    """The coefficients (F, F A, F B, F H) of `_frame_step` along x- or
    y-lines from c = (fx, fy, H, K, mu, mu1, mu2): F = -fx, A = H + mu
    along x and F = -fy, A = H - mu along y."""
    fx, fy, H, K, mu, mu1, mu2 = c
    if along == "x":
        F, A, B = -fx, H + mu, -K / 3 - H * mu / 3 + (2.0 / 3) * mu1 - mu2 / 3
    else:
        F, A, B = -fy, H - mu, K / 3 + H * mu / 3 + mu1 / 3 - (2.0 / 3) * mu2
    return np.stack((F, F * A, F * B, F * H))


def _frame_step(c: np.ndarray, s: np.ndarray, out: np.ndarray) -> None:
    """The frame equations along a line times the signed substep, written
    into `out`: s is the state (a, b, P1, Q1, P2, Q2, u, v) over a batch of
    half-lines and c = (F, FA, FB, FH) from `_line_coefficients` times the
    signed substep: A and B come already multiplied by F.

    Along x the state is (l1, l2, p1, q1, p2, q2, u, v); along y it is in
    _SWAP order, which makes the y-system the x-system with its own F, A
    and B.  Two coframes theta = p w1 + q w2 = -p fx dx - q fy dy are
    transported, and the potentials integrate du = theta1, dv = theta2.
    """
    F, FA, FB, FH = c
    a, b, P, Q = s[0], s[1], s[2:6:2], s[3:6:2]
    Fa = F * a
    t = FA + Fa
    np.multiply(a, t, out=out[0])  # F a (H +- mu + a)
    t += Fa
    np.multiply(P, t, out=out[2:6:2])  # F P (H +- mu + 2 a)
    Fa += FH
    np.multiply(b, Fa, out=out[1])
    out[1] += FB  # F b (H + a) + F B
    np.multiply(Q, Fa, out=out[3:6:2])
    np.multiply(F, b, out=t)
    out[3:6:2] += P * t  # F (Q (H + a) + P b)
    np.multiply(P, F, out=out[6:])


def _sweep(families: list[tuple[np.ndarray, float, int, np.ndarray]]
           ) -> list[np.ndarray]:
    """Integrate families of parallel grid lines from a start node to both
    ends, all their forward and backward half-lines in one batch.

    A family is (c, h, start, s0): the line coefficients of `_frame_step`
    indexed [coefficient, refined index along, line], the node spacing,
    the start node and the (8, lines) start state in the order of
    `_frame_step`.  Block by block of nodes, each half-line's coefficients
    are gathered by substep and stage point (refined offsets 0, 1, 2 in its
    direction), scaled by the signed substep and zero past its end, so a
    finished half-line stays constant.  Returns each family's states as a
    (nodes along, 8, lines) array.
    """
    m, r = DEFAULT_SUBSTEPS, 2 * DEFAULT_SUBSTEPS
    outs = []
    for c, _, start, s0 in families:
        outs.append(np.empty(((c.shape[1] - 1) // r + 1,) + s0.shape))
        outs[-1][start] = s0
    # a base node on the grid's edge leaves a half-line without steps
    halves = [(c, sign * h / m, start, sign, n, out)
              for (c, h, start, _), out in zip(families, outs)
              for sign, n in ((1, len(out) - 1 - start), (-1, start)) if n]
    s = np.concatenate([out[start] for *_, start, _, _, out in halves], 1)
    ends = np.cumsum([0] + [h[-1].shape[2] for h in halves])
    k, t = np.empty((4,) + s.shape), np.empty(s.shape)
    nodes = max(h[4] for h in halves)
    block = max(1, BLOCK_POINTS // (r * s.shape[1]))
    for first in range(0, nodes, block):
        steps = np.arange(first * m, min(first + block, nodes) * m)
        offsets = 2 * steps[:, None] + np.arange(3)
        slab = np.empty((len(steps), 3, 4, s.shape[1]))
        for (c, hs, start, sign, n, _), lo, hi in zip(halves, ends, ends[1:]):
            idx = start * r + sign * np.minimum(offsets, n * r)
            slab[..., lo:hi] = np.moveaxis(hs * c[:, idx], 0, 2)
            slab[max(0, m * (n - first)):, ..., lo:hi] = 0
        for node, substeps in enumerate(
                slab.reshape((-1, m) + slab.shape[1:]), first + 1):
            for c1, c2, c3 in substeps:
                _frame_step(c1, s, k[0])
                np.multiply(k[0], 0.5, out=t)
                t += s
                _frame_step(c2, t, k[1])
                np.multiply(k[1], 0.5, out=t)
                t += s
                _frame_step(c2, t, k[2])
                np.add(s, k[2], out=t)
                _frame_step(c3, t, k[3])
                s += (k[0] + k[3] + 2 * (k[1] + k[2])) / 6
                if not np.abs(s[:2]).max() <= LAMBDA_BLOWUP_BOUND:
                    raise LinearizerError(
                        "Frobenius integration diverged; shrink grid")
            for (*_, start, sign, n, out), lo, hi in zip(halves, ends,
                                                         ends[1:]):
                if node <= n:
                    out[start + sign * node] = s[:, lo:hi]
    return outs


def integrate_lambda(cg: CoefficientGrid, base_node: tuple[int, int],
                     s0: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the Frobenius system over the whole grid from the base node
    in both sweep orders.  The x-first order integrates the base row, then
    every column from its node on the row; the y-first order the base
    column, then every row.  Both orders run as two batched stages of one
    RK4 kernel (`_frame_step`, the y-system mapped onto the x-system by
    _SWAP), forward and backward half-lines together: the base row and
    column, then every column and every row.  The state is
    (l1, l2, p1, q1, p2, q2, u, v); returns the x-first and y-first states
    as (nx, ny, 8) arrays."""
    g, xlines, ylines = cg.grid, cg.xlines, cg.ylines
    ib, jb = base_node
    start = np.array(s0, dtype=float)[:, None]
    # a diverging state overflows before `_sweep` refuses it; the refusal
    # is the one report of that
    with np.errstate(all="ignore"):
        row, col = _sweep([(xlines[:, :, jb:jb + 1], g.hx, ib, start),
                           (ylines[:, :, ib:ib + 1], g.hy, jb, start[_SWAP])])
        cols, rows = _sweep([(ylines, g.hy, jb, row[:, _SWAP, 0].T),
                             (xlines, g.hx, ib, col[:, _SWAP, 0].T)])
    return cols[:, _SWAP].transpose(2, 0, 1), rows.transpose(0, 2, 1)


def _on_grid_lines(g: GridSpec, fields: np.ndarray, slopes: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """Values of node fields (fields[k, i, j] at (xs[i], ys[j])) at points
    on grid lines (x equal to some xs[i] or y to some ys[j], bit for bit),
    by cubic Hermite interpolation along the line between the node values
    and the node slopes slopes[k, a] = d fields[k] / d (x, y)[a]; one row
    per point, one column per field."""
    on_col = np.isin(points[:, 0], g.xs)
    on_row = ~on_col & np.isin(points[:, 1], g.ys)
    if not np.all(on_col | on_row):
        raise LinearizerError("point on no grid line; cannot interpolate")
    out = np.empty((len(points), len(fields)))
    # a column is interpolated in y (axis 1), a row in x (axis 0)
    for sel, axis, nodes, across in ((on_col, 1, g.ys, g.xs),
                                     (on_row, 0, g.xs, g.ys)):
        vals = np.moveaxis(fields, axis + 1, 2)
        slope = np.moveaxis(slopes[:, axis], axis + 1, 2)
        t, fixed = points[sel, axis], points[sel, 1 - axis]
        line = np.searchsorted(across, fixed)
        k = np.clip(np.searchsorted(nodes, t, side="right") - 1,
                    0, len(nodes) - 2)
        dt = nodes[k + 1] - nodes[k]
        s = (t - nodes[k]) / dt
        out[sel] = ((1 + 2 * s) * (1 - s) ** 2 * vals[:, line, k]
                    + s * (1 - s) ** 2 * dt * slope[:, line, k]
                    + s * s * (3 - 2 * s) * vals[:, line, k + 1]
                    + s * s * (s - 1) * dt * slope[:, line, k + 1]).T
    return out


def flatness_residual(state: np.ndarray, state_t: np.ndarray) -> float:
    """Holonomy of the Frobenius system: the max over nodes and the 8 state
    components of |x-first - y-first| / max(1, max |x-first component|).

    Both states start from the same base state and solve the same system,
    along the two path orders of `integrate_lambda`.  Their difference at
    node (i, j) is the transport around the rectangle spanned by the base
    and (i, j): the integrator's error (4th order in the step) for a flat
    connection, the curvature integrated over the rectangle otherwise.
    Equal potentials on both paths also make each coframe closed.
    """
    scale = np.maximum(1.0, np.abs(state).max(axis=(0, 1)))
    return float((np.abs(state - state_t) / scale).max())


@dataclass
class LinearizationResult:
    """Flat coordinates of the parameter-free `web`: u and v at the nodes of
    `grid` (u[i, j] at (xs[i], ys[j])) and their Jacobian, the coframe
    (jacobian[k, a, i, j] = d (u, v)[k] / d (x, y)[a]), lambda starting at
    lam0 on the `base` node; the residuals that certify them; the
    per-foliation straightness of the mapped leaves, the number of leaves skipped, and
    the traced leaves as (foliation index, points, mapped points); the
    web's verdict and invariant reports."""
    web: WebSpec
    grid: GridSpec
    u: np.ndarray
    v: np.ndarray
    jacobian: np.ndarray
    base: tuple[float, float]
    lam0: tuple[float, float]
    path_independence_residual: float
    straightness: dict[str, float]
    skipped_leaves: int
    leaves: list[tuple[int, np.ndarray, np.ndarray]]
    verdict: str
    reports: list[InvariantReport]

    def to_json(self) -> dict:
        return {
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny,
                     "rect": [repr(v) for v in self.grid.rect.as_floats()]},
            "base": [repr(self.base[0]), repr(self.base[1])],
            "lambda0": [repr(self.lam0[0]), repr(self.lam0[1])],
            "path_independence_residual": repr(self.path_independence_residual),
            "straightness": {k: repr(v) for k, v in
                             sorted(self.straightness.items())},
            "skipped_leaves": self.skipped_leaves,
        }


def _two(value, what: str) -> tuple:
    """`value` unpacked into its two items; ExprError for any other count."""
    try:
        a, b = value
    except (TypeError, ValueError):
        raise ExprError(f"{what} needs two values") from None
    return a, b


def flat_coordinates(web: WebSpec, grid: GridSpec | None = None, *,
                     base: tuple[float, float] | None = None,
                     lam0: tuple[float, float] = (0.0, 0.0),
                     params: Mapping[str, Fraction] | None = None,
                     force: bool = False,
                     policy: ZeroTestPolicy | None = None
                     ) -> LinearizationResult:
    """The linearization pipeline: flat coordinates (u, v) of the web.

    Its inputs are checked before any work, each refusal an ExprError:
    `params` holds a value for each web parameter and no other name, and
    `base` (default: the center) is two reals that lie on the grid
    (default: the web's domain, 41 nodes per axis), and `lam0` is two
    reals, both finite doubles.  The values are substituted first: every
    later step, the verdict included, sees that web.  Decides the verdict with
    `check_dweb` and refuses a web that is not YES with
    `NotLinearizableError`, unless force=True.  Lambda starts at lam0 at
    the grid node nearest to `base`, and two coframes start there as dx and
    dy.  The x-first and the y-first sweep must agree (`flatness_residual`
    at most PATH_TOLERANCE: no holonomy, so a flat connection and closed
    coframes), the coframes must stay nondegenerate, and their potentials
    are u, v, with the coframes as Jacobian.  force=True skips only the
    holonomy refusal: a web whose validity checks are 0 or not finite on
    the grid lines is refused by `CoefficientGrid`.  The leaves of every
    foliation are traced and measured under (u, v) by
    `straightness_report`.
    """
    unknown = sorted(set(params or ()) - set(web.params))
    if unknown:
        raise ExprError(f"{', '.join(unknown)}: not a parameter of the web")
    missing = sorted(set(web.params) - set(params or ()))
    if missing:
        raise ExprError(f"no value for parameter(s) {', '.join(missing)}; "
                        "each parameter of the web needs one")
    g = grid or GridSpec(rect=web.domain)
    base = g.rect.center if base is None else _two(base, "base point")
    ib, jb = g.nearest_index(*base)
    try:
        lam0 = tuple(map(float, _two(lam0, "lambda0")))
    except OverflowError:  # a rational past double range
        raise ExprError("lambda0 value beyond double range") from None
    if not (math.isfinite(lam0[0]) and math.isfinite(lam0[1])):
        raise ExprError("lambda0 value is not finite")
    if params:
        web = replace(web, f=substitute(web.f, params),
                      gs=tuple(substitute(e, params) for e in web.gs))
    verdict, reports = check_dweb(web, policy)
    if verdict != YES and not force:
        raise NotLinearizableError(verdict, reports)
    cg = CoefficientGrid(web, g)
    F = np.stack([cg.xlines[0, ::cg.r], cg.ylines[0, ::cg.r].T])  # -fx, -fy
    # theta1 = dx, theta2 = dy at the base: dx = -(1/fx) w1, dy = -(1/fy) w2
    s0 = [*lam0, 1.0 / F[0, ib, jb], 0.0, 0.0, 1.0 / F[1, ib, jb], 0.0, 0.0]
    state, state_t = integrate_lambda(cg, (ib, jb), s0)
    resid = flatness_residual(state, state_t)
    if not resid <= PATH_TOLERANCE and not force:  # a nan is refused too
        raise LinearizerError(
            f"holonomy residual {resid:.3e} > {PATH_TOLERANCE:.0e}: the "
            "connection is not flat, or the integration error is too large "
            "(a finer grid lowers it); linearization refused")
    # coframe[k] = (p_k, q_k), so theta_k = -p_k fx dx - q_k fy dy
    coframe = np.moveaxis(state[:, :, 2:6], 2, 0).reshape(2, 2, g.nx, g.ny)
    (p1, q1), (p2, q2) = coframe
    det = p1 * q2 - q1 * p2
    if np.abs(det).min() < COFRAME_DET_BOUND:
        raise LinearizerError("coordinate map singular on grid")
    u, v = state[:, :, 6].copy(), state[:, :, 7].copy()  # not views of state
    jacobian = coframe * F  # du = theta1, dv = theta2
    straightness, skipped, leaves = straightness_report(web, g, u, v,
                                                        jacobian)
    return LinearizationResult(
        web=web, grid=g, u=u, v=v, jacobian=jacobian,
        base=(float(g.xs[ib]), float(g.ys[jb])), lam0=lam0,
        path_independence_residual=resid,
        straightness=straightness, skipped_leaves=skipped, leaves=leaves,
        verdict=verdict, reports=reports)


# ---------------------------------------------------------------------------
# straightness of leaves


def _tls_line_residual(points: np.ndarray) -> float:
    """Max perpendicular distance to the total-least-squares line, divided
    by the leaf extent along the line."""
    center = points.mean(axis=0)
    q = points - center
    _, svals, vt = np.linalg.svd(q, full_matrices=False)
    normal = vt[-1]
    res = float(np.abs(q @ normal).max())
    extent = float(np.ptp(q @ vt[0]))
    return res / extent if extent > 0 else 0.0


def _first_crossings(fn: Callable, W: np.ndarray, levels: np.ndarray,
                     across: np.ndarray, along_nodes: np.ndarray, along: str
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """First crossing of each level on every line of W, bisected for all
    levels and lines at once.  W[k] samples fn on the line at across[k], at
    along_nodes in direction `along`; a line whose bracket fails (non-finite
    or same-signed ends, non-finite midpoints) is dropped.  The halving
    stops after BISECTION_CAP steps, or at the first step that leaves the
    whole state (lo, hi, f(lo), keep) unchanged: the step is deterministic,
    so that state is a fixed point and the roots are those of BISECTION_CAP
    halvings.  Returns, per level, the across coordinates and the roots of
    the lines kept."""
    D = W - levels[:, None, None]
    change = D[:, :, :-1] * D[:, :, 1:] <= 0
    lvl, k = np.nonzero(change.any(axis=2))
    j = change[lvl, k].argmax(axis=1)
    fixed, lo, hi = across[k], along_nodes[j], along_nodes[j + 1]
    c = levels[lvl]

    def val(t: np.ndarray) -> np.ndarray:
        return (fn(t, fixed) if along == "x" else fn(fixed, t)) - c

    with np.errstate(all="ignore"):
        flo, fhi = val(lo), val(hi)
        keep = np.isfinite(flo) & np.isfinite(fhi) & ~(flo * fhi > 0)
        state = None
        for _ in range(BISECTION_CAP):
            mid = 0.5 * (lo + hi)
            fm = val(mid)
            keep &= np.isfinite(fm)
            left = flo * fm <= 0
            hi = np.where(left, mid, hi)
            lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
            last, state = state, (lo.tobytes(), hi.tobytes(), flo.tobytes(),
                                  keep.tobytes())
            if state == last:
                break
    roots = 0.5 * (lo + hi)
    return [(fixed[sel], roots[sel])
            for sel in (keep & (lvl == i) for i in range(len(levels)))]


def trace_leaves(web: WebSpec, grid: GridSpec, foliation: str
                 ) -> list[np.ndarray]:
    """Polyline samples of LEAVES_PER_FOLIATION level curves of one
    foliation of `web`.

    Foliations are named "x", "y", "f", "g4".."gd".  A level curve of f/g
    is sampled where it first crosses each grid column and each grid row,
    found by bisecting the column crossings of all levels together, then
    the row crossings; every sample point therefore lies on a grid line.
    Pieces that leave the rectangle are absent from the samples.
    """
    xs, ys, leaves = grid.xs, grid.ys, LEAVES_PER_FOLIATION
    if foliation == "x":
        cols = np.linspace(1, grid.nx - 2, leaves).round().astype(int)
        return [np.stack([np.full(grid.ny, xs[i]), ys], axis=1)
                for i in sorted(set(cols))]
    if foliation == "y":
        rows = np.linspace(1, grid.ny - 2, leaves).round().astype(int)
        return [np.stack([xs, np.full(grid.nx, ys[j])], axis=1)
                for j in sorted(set(rows))]
    gs = {f"g{a}": g for a, g in enumerate(web.gs, 4)}
    e = web.f if foliation == "f" else gs.get(foliation)
    if e is None:
        raise LinearizerError(f"unknown foliation {foliation!r}")
    fn = grid_function(e)
    W = fn(xs[:, None], ys)
    if not np.all(np.isfinite(W)):
        raise LinearizerError(f"foliation {foliation} is singular on the grid")
    levels = np.quantile(W, np.linspace(0.25, 0.75, leaves))
    out = []
    for (col_x, col_y), (row_y, row_x) in zip(
            _first_crossings(fn, W, levels, xs, ys, "y"),
            _first_crossings(fn, W.T, levels, ys, xs, "x")):
        pts = (list(zip(col_x.tolist(), col_y.tolist()))
               + list(zip(row_x.tolist(), row_y.tolist())))
        if pts:
            out.append(np.array(sorted(set(pts))))
    return out


def straightness_report(web: WebSpec, grid: GridSpec, u: np.ndarray,
                        v: np.ndarray, jacobian: np.ndarray
                        ) -> tuple[dict[str, float], int,
                                   list[tuple[int, np.ndarray, np.ndarray]]]:
    """Per-foliation max normalized line-fit residual of the leaves of the
    parameter-free `web` under (x, y) -> (u, v), with u, v and their
    Jacobian (jacobian[k, a] = d (u, v)[k] / d (x, y)[a], shape
    (2, 2, nx, ny)) given at the nodes of `grid`.

    Traces LEAVES_PER_FOLIATION leaves of every foliation; the points of
    all leaves go through one Hermite map for u and v together, whose
    slopes are the Jacobian's.  Leaves with fewer than 5 usable sample
    points are skipped.  Returns the report, the number of skipped leaves,
    and the leaves as (foliation index, points, mapped points).
    """
    names = ["x", "y", "f"] + [f"g{a}" for a in range(4, web.d + 1)]
    traced = [(idx, leaf) for idx, name in enumerate(names)
              for leaf in trace_leaves(web, grid, name)]
    points = np.concatenate([leaf for _, leaf in traced])
    uv = _on_grid_lines(grid, np.stack([u, v]), jacobian, points)
    report = dict.fromkeys(names, 0.0)
    leaves: list[tuple[int, np.ndarray, np.ndarray]] = []
    skipped = end = 0
    for idx, leaf in traced:
        start, end = end, end + len(leaf)
        mapped = uv[start:end]
        leaves.append((idx, leaf, mapped))
        if len(leaf) < 5:
            skipped += 1
            continue
        report[names[idx]] = max(report[names[idx]],
                                 _tls_line_residual(mapped))
    return report, skipped, leaves


# ---------------------------------------------------------------------------
# SVG emission

_PALETTE = ("#1b6ca8", "#d1495b", "#3e8914", "#8d5a97", "#e08f26",
            "#00798c", "#7f675b", "#a31621", "#446df6")


def _svg_panel(polylines: list[tuple[int, np.ndarray]], origin_x: float,
               size: float, pad: float) -> list[str]:
    if not polylines:
        return []
    pts = np.vstack([p for _, p in polylines])
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    lines = []
    for fol_idx, p in polylines:
        q = (p - lo) / span
        sx = origin_x + pad + q[:, 0] * (size - 2 * pad)
        sy = pad + (1.0 - q[:, 1]) * (size - 2 * pad)
        coords = " ".join(f"{a:.2f},{b:.2f}"
                          for a, b in zip(sx.tolist(), sy.tolist()))
        color = _PALETTE[fol_idx % len(_PALETTE)]
        lines.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1" points="{coords}"/>')
    return lines


def render_svg(result: LinearizationResult, path: str) -> None:
    """Two panels: the leaves traced for the straightness report, in the
    original chart and in flat coordinates, one stroke color per foliation."""
    original = [(idx, leaf) for idx, leaf, _ in result.leaves
                if len(leaf) >= 2]
    mapped = [(idx, pts) for idx, _, pts in result.leaves if len(pts) >= 2]
    size, pad = 360.0, 16.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {2 * size:.0f} {size:.0f}">',
             '<rect width="100%" height="100%" fill="white"/>']
    parts += _svg_panel(original, 0.0, size, pad)
    parts.append(f'<line x1="{size:.0f}" y1="0" x2="{size:.0f}" '
                 f'y2="{size:.0f}" stroke="#999" stroke-width="1"/>')
    parts += _svg_panel(mapped, size, size, pad)
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
