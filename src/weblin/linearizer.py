"""Numerical linearization: flat coordinates of a linearizable web.

`flat_coordinates(web, grid)` is the whole pipeline.  It runs the
linearizability test once and refuses a web whose verdict is not YES.  For
a YES web the deformation components lambda1, lambda2 of the flat
connection satisfy a first-order Frobenius system whose coefficients are
the symbolic scalars H, K, mu and the frame derivatives of mu; a parallel
coframe and its potentials (u, v) satisfy a linear system along with them.
The pipeline evaluates the coefficients once, integrates the whole system
with classical 4th-order steps along grid lines in the x-first and then the
y-first order, verifies flatness (finite-difference curvature of the
x-first lambda), path independence (the two orders), and a nondegenerate,
closed coframe, and returns (u, v).  `straightness_report` then traces the
leaves of every foliation once and measures how straight they become under
(x, y) -> (u, v); `render_svg` draws those same leaves.

Coefficients are always evaluated from their symbolic expressions on a
refined lattice that contains every integrator substep point; only the
unknowns (lambda, the coframe, the potentials) are discretized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import grid_function
from .calculus import WebSpec, WebFrame, Rect, mu as web_mu
from .invariants import check_dweb, InvariantReport, ZeroTestPolicy, YES

__all__ = [
    "GridSpec", "ScalarField", "CoefficientGrid", "LinearizationResult",
    "LinearizerError", "NotLinearizableError", "integrate_lambda",
    "flatness_residual", "flat_coordinates", "straightness_report",
    "trace_leaves", "render_svg", "DEFAULT_GRID_N", "LAMBDA_BLOWUP_BOUND",
    "LEAVES_PER_FOLIATION",
]

DEFAULT_GRID_N = 41
DEFAULT_SUBSTEPS = 2
LAMBDA_BLOWUP_BOUND = 1e12
COFRAME_DET_BOUND = 1e-8
FLATNESS_FACTOR = 1e-4  # threshold = factor * grid diameter
LEAVES_PER_FOLIATION = 5


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
    """Rectangular lattice of nx x ny nodes over a rational rectangle."""
    rect: Rect
    nx: int = DEFAULT_GRID_N
    ny: int = DEFAULT_GRID_N

    def __post_init__(self):
        if self.nx < 5 or self.ny < 5:
            raise LinearizerError("grid needs at least 5x5 nodes")

    @property
    def xs(self) -> np.ndarray:
        lo, hi, _, _ = self.rect.as_floats()
        return np.linspace(lo, hi, self.nx)

    @property
    def ys(self) -> np.ndarray:
        _, _, lo, hi = self.rect.as_floats()
        return np.linspace(lo, hi, self.ny)

    @property
    def hx(self) -> float:
        lo, hi, _, _ = self.rect.as_floats()
        return (hi - lo) / (self.nx - 1)

    @property
    def hy(self) -> float:
        _, _, lo, hi = self.rect.as_floats()
        return (hi - lo) / (self.ny - 1)

    @property
    def diameter(self) -> float:
        xlo, xhi, ylo, yhi = self.rect.as_floats()
        return math.hypot(xhi - xlo, yhi - ylo)

    def nearest_index(self, x: float, y: float) -> tuple[int, int]:
        i = int(round((x - self.xs[0]) / self.hx))
        j = int(round((y - self.ys[0]) / self.hy))
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise LinearizerError("base point outside the grid")
        return i, j


@dataclass
class ScalarField:
    """A scalar sampled at the grid nodes (values[i, j] at (xs[i], ys[j]))."""
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise LinearizerError("field shape does not match grid")


_COEFF_NAMES = ("fx", "fy", "H", "K", "mu", "mu1", "mu2")


class CoefficientGrid:
    """Symbolic coefficients evaluated on the substep-refined lattice.

    With m substeps per grid interval the 4th-order stepper needs values at
    half-substep points, so the refinement factor is 2m; node (i, j) of the
    main grid sits at refined index (i*r, j*r).
    """

    def __init__(self, web: WebSpec, grid: GridSpec,
                 params: Mapping[str, Fraction] | None = None,
                 substeps: int = DEFAULT_SUBSTEPS):
        if substeps < 1:
            raise LinearizerError("substeps must be >= 1")
        self.web = web
        self.grid = grid
        self.substeps = substeps
        self.r = 2 * substeps
        self.params = dict(params or {})
        missing = set(web.params) - set(self.params)
        if missing:
            raise LinearizerError(
                f"no value for parameter(s) {', '.join(sorted(missing))}")
        fr = WebFrame.of(web.f)
        m = web_mu(web, 4)
        exprs = {
            "fx": fr.fx, "fy": fr.fy, "H": fr.H, "K": fr.K,
            "mu": m, "mu1": fr.d1(m), "mu2": fr.d2(m),
        }
        xlo, xhi, ylo, yhi = grid.rect.as_floats()
        self.rx = np.linspace(xlo, xhi, (grid.nx - 1) * self.r + 1)
        self.ry = np.linspace(ylo, yhi, (grid.ny - 1) * self.r + 1)
        XX, YY = np.meshgrid(self.rx, self.ry, indexing="ij")
        self.arrays: dict[str, np.ndarray] = {}
        for name, e in exprs.items():
            vals = grid_function(e, self.params)(XX, YY)
            if not np.all(np.isfinite(vals)):
                raise LinearizerError(
                    f"coefficient {name} is singular inside the grid; "
                    "choose a smaller or shifted rectangle")
            self.arrays[name] = vals

    def at(self, ix: int, iy: int) -> tuple[float, ...]:
        return tuple(self.arrays[n][ix, iy] for n in _COEFF_NAMES)


def _rhs(coeffs: tuple[float, ...], s: Sequence[float],
         along: str) -> list[float]:
    """Frame equations converted to x- or y-derivatives.

    State: (l1, l2, p1, q1, p2, q2, u, v); two coframes theta = p w1 + q w2
    = -p fx dx - q fy dy are transported, and the potentials integrate
    du = theta1, dv = theta2.
    """
    fx, fy, H, K, mu, mu1, mu2 = coeffs
    l1, l2, p1, q1, p2, q2 = s[:6]
    if along == "x":
        fac = -fx
        dl1 = l1 * (H + l1 + mu)
        dl2 = -K / 3 + H * (l2 - mu / 3) + l1 * l2 + (2.0 / 3) * mu1 - mu2 / 3
        c11 = 2 * l1 + mu + H
        return [fac * dl1,
                fac * dl2,
                fac * p1 * c11,
                fac * (p1 * l2 + q1 * (l1 + H)),
                fac * p2 * c11,
                fac * (p2 * l2 + q2 * (l1 + H)),
                fac * p1,
                fac * p2]
    fac = -fy
    dl1 = K / 3 + H * (l1 + mu / 3) + l1 * l2 + mu1 / 3 - (2.0 / 3) * mu2
    dl2 = l2 * (H + l2 - mu)
    c22 = 2 * l2 - mu + H
    return [fac * dl1,
            fac * dl2,
            fac * (p1 * (l2 + H) + q1 * l1),
            fac * q1 * c22,
            fac * (p2 * (l2 + H) + q2 * l1),
            fac * q2 * c22,
            fac * q1,
            fac * q2]


def _rk4_step(cg: CoefficientGrid, s: list[float], along: str,
              ix: int, iy: int, h: float, sign: int) -> list[float]:
    """One substep of size sign*h; (ix, iy) is the refined start index and
    the stage points sit at refined offsets 0, sign, 2*sign."""
    def f(offset: int, state: Sequence[float]) -> list[float]:
        if along == "x":
            c = cg.at(ix + offset, iy)
        else:
            c = cg.at(ix, iy + offset)
        return _rhs(c, state, along)

    hh = sign * h
    k1 = f(0, s)
    k2 = f(sign, [si + hh / 2 * ki for si, ki in zip(s, k1)])
    k3 = f(sign, [si + hh / 2 * ki for si, ki in zip(s, k2)])
    k4 = f(2 * sign, [si + hh * ki for si, ki in zip(s, k3)])
    out = [si + hh / 6 * (a + 2 * b + 2 * c + d)
           for si, a, b, c, d in zip(s, k1, k2, k3, k4)]
    for v in out[:2]:
        if not math.isfinite(v) or abs(v) > LAMBDA_BLOWUP_BOUND:
            raise LinearizerError("Frobenius integration diverged; shrink grid")
    return out


def _march(cg: CoefficientGrid, s0: Sequence[float], along: str,
           fixed_ref: int, start_node: int, stop_node: int,
           h_node: float) -> dict[int, list[float]]:
    """Integrate from start_node to stop_node (inclusive) along a grid line;
    returns states at the main-grid nodes passed."""
    m = cg.substeps
    r = cg.r
    sign = 1 if stop_node >= start_node else -1
    h = h_node / m
    states = {start_node: list(s0)}
    s = list(s0)
    node = start_node
    while node != stop_node:
        ref = node * r
        for k in range(m):
            off = sign * 2 * k
            if along == "x":
                s = _rk4_step(cg, s, "x", ref + off, fixed_ref, h, sign)
            else:
                s = _rk4_step(cg, s, "y", fixed_ref, ref + off, h, sign)
        node += sign
        states[node] = s
    return states


def integrate_lambda(cg: CoefficientGrid, base_node: tuple[int, int],
                     s0: Sequence[float], first: str) -> np.ndarray:
    """Integrate the Frobenius system over the whole grid from the base node.

    The state is (l1, l2, p1, q1, p2, q2, u, v) as in `_rhs`; the lambda
    equations do not involve the coframe.  The sweep goes along the base
    line of axis `first` ("x" or "y"), then along the other axis from every
    node of that line.  Returns the states as an (nx, ny, 8) array.
    """
    g = cg.grid
    nx, ny = g.nx, g.ny
    ib, jb = base_node
    out = np.empty((nx, ny, len(s0)))
    if first == "x":
        line: dict[int, list[float]] = {}
        line.update(_march(cg, s0, "x", jb * cg.r, ib, nx - 1, g.hx))
        line.update(_march(cg, s0, "x", jb * cg.r, ib, 0, g.hx))
        for i in range(nx):
            col = {}
            col.update(_march(cg, line[i], "y", i * cg.r, jb, ny - 1, g.hy))
            col.update(_march(cg, line[i], "y", i * cg.r, jb, 0, g.hy))
            for j in range(ny):
                out[i, j] = col[j]
    else:
        line = {}
        line.update(_march(cg, s0, "y", ib * cg.r, jb, ny - 1, g.hy))
        line.update(_march(cg, s0, "y", ib * cg.r, jb, 0, g.hy))
        for j in range(ny):
            row = {}
            row.update(_march(cg, line[j], "x", j * cg.r, ib, nx - 1, g.hx))
            row.update(_march(cg, line[j], "x", j * cg.r, ib, 0, g.hx))
            for i in range(nx):
                out[i, j] = row[i]
    return out


def _diff4(A: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Fourth-order finite differences: centered 5-point stencils in the
    interior, one-sided at the two boundary lines."""
    B = np.moveaxis(A, axis, 0)
    out = np.empty_like(B)
    out[2:-2] = (B[:-4] - 8 * B[1:-3] + 8 * B[3:-1] - B[4:]) / (12 * h)
    out[0] = (-25 * B[0] + 48 * B[1] - 36 * B[2] + 16 * B[3] - 3 * B[4]) / (12 * h)
    out[1] = (-3 * B[0] - 10 * B[1] + 18 * B[2] - 6 * B[3] + B[4]) / (12 * h)
    out[-2] = (3 * B[-1] + 10 * B[-2] - 18 * B[-3] + 6 * B[-4] - B[-5]) / (12 * h)
    out[-1] = (25 * B[-1] - 48 * B[-2] + 36 * B[-3] - 16 * B[-4] + 3 * B[-5]) / (12 * h)
    return np.moveaxis(out, 0, axis)


def flatness_residual(cg: CoefficientGrid, l1: np.ndarray,
                      l2: np.ndarray) -> float:
    """Max curvature-coefficient magnitude of the connection deformed by
    lambda = (l1, l2), given at the grid nodes.

    The lambda derivatives are finite differences (4th order, centered in
    the interior); the symbolic coefficients are exact at the nodes.
    """
    g = cg.grid
    r = cg.r
    fx = cg.arrays["fx"][::r, ::r]
    fy = cg.arrays["fy"][::r, ::r]
    H = cg.arrays["H"][::r, ::r]
    K = cg.arrays["K"][::r, ::r]
    mu = cg.arrays["mu"][::r, ::r]
    mu1 = cg.arrays["mu1"][::r, ::r]
    mu2 = cg.arrays["mu2"][::r, ::r]

    def d1(A):
        return -_diff4(A, g.hx, 0) / fx

    def d2(A):
        return -_diff4(A, g.hy, 1) / fy

    d1l1, d2l1 = d1(l1), d2(l1)
    d1l2, d2l2 = d1(l2), d2(l2)
    res = [
        2 * d2l1 - d1l2 + mu2 - H * (2 * l1 - l2 + mu) - l1 * l2 - K,
        d2l2 + l2 * (-H - l2 + mu),
        -d1l1 + l1 * (H + l1 + mu),
        d2l1 - 2 * d1l2 + mu1 - H * (l1 - 2 * l2 + mu) + l1 * l2 - K,
    ]
    return float(max(np.abs(a).max() for a in res))


@dataclass
class LinearizationResult:
    """Flat coordinates, the residuals that certify them, the web's verdict
    and invariant reports, and (after `straightness_report`) the traced
    leaves as (foliation index, points, mapped points)."""
    u: ScalarField
    v: ScalarField
    flatness_residual: float
    path_independence_residual: float
    straightness: dict[str, float] = field(default_factory=dict)
    base: tuple[float, float] = (0.0, 0.0)
    lam0: tuple[float, float] = (0.0, 0.0)
    skipped_leaves: int = 0
    verdict: str | None = None
    reports: list[InvariantReport] = field(default_factory=list)
    leaves: list[tuple[int, np.ndarray, np.ndarray]] = field(
        default_factory=list)

    def to_json(self) -> dict:
        return {
            "grid": {"nx": self.u.grid.nx, "ny": self.u.grid.ny,
                     "rect": [repr(v) for v in
                              self.u.grid.rect.as_floats()]},
            "base": [repr(self.base[0]), repr(self.base[1])],
            "lambda0": [repr(self.lam0[0]), repr(self.lam0[1])],
            "flatness_residual": repr(self.flatness_residual),
            "path_independence_residual": repr(self.path_independence_residual),
            "straightness": {k: repr(v) for k, v in
                             sorted(self.straightness.items())},
            "skipped_leaves": self.skipped_leaves,
        }


def flat_coordinates(web: WebSpec, grid: GridSpec | None = None, *,
                     base: tuple[float, float] | None = None,
                     lam0: tuple[float, float] = (0.0, 0.0),
                     params: Mapping[str, Fraction] | None = None,
                     substeps: int = DEFAULT_SUBSTEPS, force: bool = False,
                     policy: ZeroTestPolicy | None = None
                     ) -> LinearizationResult:
    """The linearization pipeline: flat coordinates (u, v) of the web.

    Decides the verdict with `check_dweb` and refuses a web that is not YES
    with `NotLinearizableError`, unless force=True.  Lambda starts at lam0
    at the grid node nearest to `base` (default: the grid center), and two
    coframes start there as dx and dy.  The x-first sweep must give a flat
    connection; the y-first sweep measures path independence; the coframes
    must stay nondegenerate and closed (finite-difference curl), and their
    potentials are u, v.  With force=True the flatness and closedness
    refusals are skipped too.
    """
    verdict, reports = check_dweb(web, policy)
    if verdict != YES and not force:
        raise NotLinearizableError(verdict, reports)
    g = grid or GridSpec(rect=web.domain)
    if base is None:
        base = g.rect.center
    ib, jb = g.nearest_index(float(base[0]), float(base[1]))
    lam0 = (float(lam0[0]), float(lam0[1]))
    cg = CoefficientGrid(web, g, params, substeps)
    r = cg.r
    fx = cg.arrays["fx"][::r, ::r]
    fy = cg.arrays["fy"][::r, ::r]
    # theta1 = dx, theta2 = dy at the base: dx = -(1/fx) w1, dy = -(1/fy) w2
    s0 = [lam0[0], lam0[1], -1.0 / fx[ib, jb], 0.0, 0.0, -1.0 / fy[ib, jb],
          0.0, 0.0]
    state = integrate_lambda(cg, (ib, jb), s0, "x")
    flat = flatness_residual(cg, state[:, :, 0], state[:, :, 1])
    threshold = FLATNESS_FACTOR * g.diameter
    if flat > threshold and not force:
        raise LinearizerError(
            f"connection is not flat (residual {flat:.3e} > {threshold:.3e}); "
            "linearization refused")
    state_t = integrate_lambda(cg, (ib, jb), s0, "y")
    path_resid = float(np.abs(state[:, :, :2] - state_t[:, :, :2]).max())
    p1, q1 = state[:, :, 2], state[:, :, 3]
    p2, q2 = state[:, :, 4], state[:, :, 5]
    det = p1 * q2 - q1 * p2
    if np.abs(det).min() < COFRAME_DET_BOUND:
        raise LinearizerError("coordinate map singular on grid")
    curl = 0.0
    for (p, q) in ((p1, q1), (p2, q2)):
        gx = -p * fx  # d(potential)/dx
        gy = -q * fy
        c = _diff4(gx, g.hy, 1) - _diff4(gy, g.hx, 0)
        curl = max(curl, float(np.abs(c).max()))
    if curl > threshold and not force:
        raise LinearizerError(
            f"transported coframe is not closed (curl {curl:.3e}); "
            "linearization refused")
    return LinearizationResult(
        u=ScalarField(g, state[:, :, 6]), v=ScalarField(g, state[:, :, 7]),
        flatness_residual=flat, path_independence_residual=path_resid,
        base=(float(g.xs[ib]), float(g.ys[jb])), lam0=lam0,
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


def _bisect_root(fn: Callable[[float, float], float], fixed: float,
                 lo: float, hi: float, target: float, along: str) -> float | None:
    def val(t: float) -> float:
        v = fn(t, fixed) if along == "x" else fn(fixed, t)
        return float(v) - target

    try:
        flo, fhi = val(lo), val(hi)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    if not (math.isfinite(flo) and math.isfinite(fhi)) or flo * fhi > 0:
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = val(mid)
        if not math.isfinite(fm):
            return None
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def trace_leaves(web: WebSpec, grid: GridSpec, foliation: str,
                 leaves: int, params: Mapping[str, Fraction] | None = None
                 ) -> list[np.ndarray]:
    """Polyline samples of `leaves` level curves of one foliation.

    Foliations are named "x", "y", "f", "g4".."gd".  Level curves of f/g are
    found by scalar bisection along grid columns and rows; pieces that leave
    the rectangle are simply absent from the returned samples.
    """
    xs, ys = grid.xs, grid.ys
    if foliation == "x":
        cols = np.linspace(1, grid.nx - 2, leaves).round().astype(int)
        return [np.stack([np.full(grid.ny, xs[i]), ys], axis=1)
                for i in sorted(set(cols))]
    if foliation == "y":
        rows = np.linspace(1, grid.ny - 2, leaves).round().astype(int)
        return [np.stack([xs, np.full(grid.nx, ys[j])], axis=1)
                for j in sorted(set(rows))]
    if foliation == "f":
        e = web.f
    elif foliation.startswith("g"):
        e = web.g(int(foliation[1:]))
    else:
        raise LinearizerError(f"unknown foliation {foliation!r}")
    fn = grid_function(e, params)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    W = fn(XX, YY)
    if not np.all(np.isfinite(W)):
        raise LinearizerError(f"foliation {foliation} is singular on the grid")
    levels = np.quantile(W, np.linspace(0.25, 0.75, leaves))
    out = []
    for c in levels:
        pts: list[tuple[float, float]] = []
        for i in range(grid.nx):
            col = W[i, :] - c
            sign_change = np.nonzero(col[:-1] * col[1:] <= 0)[0]
            for j in sign_change[:1]:
                root = _bisect_root(fn, xs[i], ys[j], ys[j + 1], c, "y")
                if root is not None:
                    pts.append((xs[i], root))
        for j in range(grid.ny):
            row = W[:, j] - c
            sign_change = np.nonzero(row[:-1] * row[1:] <= 0)[0]
            for i in sign_change[:1]:
                root = _bisect_root(fn, ys[j], xs[i], xs[i + 1], c, "x")
                if root is not None:
                    pts.append((root, ys[j]))
        if pts:
            arr = np.array(sorted(set(pts)))
            out.append(arr)
    return out


def straightness_report(result: LinearizationResult, web: WebSpec, *,
                        params: Mapping[str, Fraction] | None = None
                        ) -> dict[str, float]:
    """Per-foliation max normalized line-fit residual of the mapped leaves.

    Traces LEAVES_PER_FOLIATION leaves of every foliation and keeps them,
    with their images under (u, v), in result.leaves.  Leaves with fewer
    than 5 usable sample points are skipped and counted in
    result.skipped_leaves.
    """
    from scipy.interpolate import RectBivariateSpline

    g = result.u.grid
    su = RectBivariateSpline(g.xs, g.ys, result.u.values)
    sv = RectBivariateSpline(g.xs, g.ys, result.v.values)
    report: dict[str, float] = {}
    leaves: list[tuple[int, np.ndarray, np.ndarray]] = []
    skipped = 0
    foliations = ["x", "y", "f"] + [f"g{a}" for a in range(4, web.d + 1)]
    for idx, name in enumerate(foliations):
        worst = 0.0
        for leaf in trace_leaves(web, g, name, LEAVES_PER_FOLIATION, params):
            uu = su.ev(leaf[:, 0], leaf[:, 1])
            vv = sv.ev(leaf[:, 0], leaf[:, 1])
            mapped = np.stack([uu, vv], axis=1)
            leaves.append((idx, leaf, mapped))
            if len(leaf) < 5:
                skipped += 1
                continue
            worst = max(worst, _tls_line_residual(mapped))
        report[name] = worst
    result.straightness = report
    result.skipped_leaves = skipped
    result.leaves = leaves
    return report


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
        coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx, sy))
        color = _PALETTE[fol_idx % len(_PALETTE)]
        lines.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1" points="{coords}"/>')
    return lines


def render_svg(result: LinearizationResult, path: str) -> None:
    """Two panels: the leaves that `straightness_report` traced, in the
    original chart and in flat coordinates, one stroke color per foliation."""
    if not result.leaves:
        raise LinearizerError("no traced leaves to draw; run "
                              "straightness_report on the result first")
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
