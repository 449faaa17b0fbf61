"""Numerical linearization: flat coordinates of a linearizable web.

`flat_coordinates(web, grid)` is the whole pipeline, and its result is the
whole answer.  It runs the linearizability test once and refuses a web
whose verdict is not YES.  For a YES web the deformation components
lambda1, lambda2 of the flat connection satisfy a first-order Frobenius
system whose coefficients are the symbolic scalars H, K, mu and the frame
derivatives of mu; a parallel coframe and its potentials (u, v) satisfy a
linear system along with them.  The pipeline evaluates the coefficients
once, integrates the whole system with classical 4th-order steps along grid
lines in the x-first and the y-first order, verifies flatness
(finite-difference curvature of the x-first lambda), path independence (the
two orders), and a nondegenerate, closed coframe.  The two orders take
three batched line integrations, the state held as one (8, lines) array:
the base row, then every column, then every row from the column through
the base node, which both orders share.  `straightness_report` then traces
the leaves of every foliation once, bisecting all its levels together
(their points lie on grid lines, where u and v are interpolated together by
cubic Hermite along the line) and measures how straight they become under
(x, y) -> (u, v).  The result holds u and v as node arrays, the
certificates, the straightness and the traced leaves, which `render_svg`
draws.

Coefficients are always evaluated from their symbolic expressions, as one
compiled program run block by block, on a refined lattice that contains
every integrator substep point; only the unknowns (lambda, the coframe, the
potentials) are discretized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import grid_function
from .calculus import WebSpec, Rect, mu as web_mu
from .invariants import check_dweb, InvariantReport, ZeroTestPolicy, YES

__all__ = [
    "GridSpec", "CoefficientGrid", "LinearizationResult",
    "LinearizerError", "NotLinearizableError", "integrate_lambda",
    "flatness_residual", "flat_coordinates", "straightness_report",
    "trace_leaves", "render_svg", "DEFAULT_GRID_N", "LAMBDA_BLOWUP_BOUND",
    "LEAVES_PER_FOLIATION",
]

DEFAULT_GRID_N = 41
DEFAULT_SUBSTEPS = 2  # RK4 substeps per grid interval
LAMBDA_BLOWUP_BOUND = 1e12
COFRAME_DET_BOUND = 1e-8
FLATNESS_FACTOR = 1e-4  # threshold = factor * grid diameter
LEAVES_PER_FOLIATION = 5
BLOCK_POINTS = 2 ** 14  # lattice points per coefficient evaluation block
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
    """Rectangular lattice of nx x ny nodes over a rational rectangle."""
    rect: Rect
    nx: int = DEFAULT_GRID_N
    ny: int = DEFAULT_GRID_N

    def __post_init__(self):
        if self.nx < 5 or self.ny < 5:
            raise LinearizerError("grid needs at least 5x5 nodes")
        try:
            xlo, xhi, ylo, yhi = self.rect.as_floats()
        except OverflowError:
            xlo = xhi = ylo = yhi = 0.0
        if not (0 < xhi - xlo < math.inf and 0 < yhi - ylo < math.inf):
            raise LinearizerError("rectangle extent is not a positive double")

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


_COEFF_NAMES = ("fx", "fy", "H", "K", "mu", "mu1", "mu2")


class CoefficientGrid:
    """Symbolic coefficients evaluated on the substep-refined lattice.

    With m = DEFAULT_SUBSTEPS substeps per grid interval the 4th-order
    stepper needs values at half-substep points, so the refinement factor is
    r = 2m; node (i, j) of the main grid sits at refined index (i*r, j*r).
    The seven coefficients are one compiled program, run over blocks of at
    most BLOCK_POINTS lattice points into `stacked` (coefficient, x index,
    y index), in the order of _COEFF_NAMES.
    """

    def __init__(self, web: WebSpec, grid: GridSpec,
                 params: Mapping[str, Fraction] | None = None):
        self.grid = grid
        self.r = 2 * DEFAULT_SUBSTEPS
        missing = set(web.params) - set(params or {})
        if missing:
            raise LinearizerError(
                f"no value for parameter(s) {', '.join(sorted(missing))}")
        m = web_mu(web, 4)
        exprs = (web.fx, web.fy, web.H, web.K, m, web.d1(m), web.d2(m))
        fn = grid_function(*exprs, params=params)
        xlo, xhi, ylo, yhi = grid.rect.as_floats()
        xs = np.linspace(xlo, xhi, (grid.nx - 1) * self.r + 1)
        ys = np.linspace(ylo, yhi, (grid.ny - 1) * self.r + 1)
        self.stacked = np.empty((len(exprs), len(xs), len(ys)))
        rows = max(1, BLOCK_POINTS // len(ys))
        for i in range(0, len(xs), rows):
            XX, YY = np.meshgrid(xs[i:i + rows], ys, indexing="ij")
            for plane, vals in zip(self.stacked, fn(XX, YY)):
                plane[i:i + rows] = vals
        for name, vals in zip(_COEFF_NAMES, self.stacked):
            if not np.all(np.isfinite(vals)):
                raise LinearizerError(
                    f"coefficient {name} is singular inside the grid; "
                    "choose a smaller or shifted rectangle")


def _rhs(c: np.ndarray, s: np.ndarray, along: str) -> np.ndarray:
    """Frame equations converted to x- or y-derivatives.

    c holds the coefficients (fx, fy, H, K, mu, mu1, mu2) and s the state
    (l1, l2, p1, q1, p2, q2, u, v), one row each over a batch of lines; two
    coframes theta = p w1 + q w2 = -p fx dx - q fy dy are transported, and
    the potentials integrate du = theta1, dv = theta2.
    """
    fx, fy, H, K, mu, mu1, mu2 = c
    l1, l2, p1, q1, p2, q2 = s[:6]
    if along == "x":
        fac = -fx
        dl1 = l1 * (H + l1 + mu)
        dl2 = -K / 3 + H * (l2 - mu / 3) + l1 * l2 + (2.0 / 3) * mu1 - mu2 / 3
        c11 = 2 * l1 + mu + H
        return np.array([fac * dl1,
                         fac * dl2,
                         fac * p1 * c11,
                         fac * (p1 * l2 + q1 * (l1 + H)),
                         fac * p2 * c11,
                         fac * (p2 * l2 + q2 * (l1 + H)),
                         fac * p1,
                         fac * p2])
    fac = -fy
    dl1 = K / 3 + H * (l1 + mu / 3) + l1 * l2 + mu1 / 3 - (2.0 / 3) * mu2
    dl2 = l2 * (H + l2 - mu)
    c22 = 2 * l2 - mu + H
    return np.array([fac * dl1,
                     fac * dl2,
                     fac * (p1 * (l2 + H) + q1 * l1),
                     fac * q1 * c22,
                     fac * (p2 * (l2 + H) + q2 * l1),
                     fac * q2 * c22,
                     fac * q1,
                     fac * q2])


def _rk4_step(C: np.ndarray, s: np.ndarray, along: str, t: int,
              fixed: slice, h: float, sign: int) -> np.ndarray:
    """One substep of size sign*h on a batch of parallel lines: C holds the
    coefficients indexed [coefficient, along, across], s the (8, lines)
    state, t is the refined start index along the lines and `fixed` selects
    their refined indices across; the stage points sit at refined offsets
    0, sign, 2*sign."""
    def f(offset: int, state: np.ndarray) -> np.ndarray:
        return _rhs(C[:, t + offset, fixed], state, along)

    hh = sign * h
    k1 = f(0, s)
    k2 = f(sign, s + hh / 2 * k1)
    k3 = f(sign, s + hh / 2 * k2)
    k4 = f(2 * sign, s + hh * k3)
    out = s + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    lam = out[:2]
    if not np.all(np.isfinite(lam)) or np.abs(lam).max() > LAMBDA_BLOWUP_BOUND:
        raise LinearizerError("Frobenius integration diverged; shrink grid")
    return out


def _integrate_lines(cg: CoefficientGrid, s0: np.ndarray, along: str,
                     start: int, fixed: slice) -> np.ndarray:
    """Integrate a batch of parallel grid lines from their node `start` to
    both ends.  s0 is the (8, lines) state at the start node and `fixed`
    selects the lines' refined indices across them.  Returns the states as
    a (nodes along, 8, lines) array."""
    g = cg.grid
    n, h = (g.nx, g.hx) if along == "x" else (g.ny, g.hy)
    C = cg.stacked if along == "x" else cg.stacked.transpose(0, 2, 1)
    out = np.empty((n,) + s0.shape)
    out[start] = s0
    for sign, stop in ((1, n - 1), (-1, 0)):
        s = s0
        for node in range(start, stop, sign):
            for k in range(DEFAULT_SUBSTEPS):
                s = _rk4_step(C, s, along, node * cg.r + 2 * sign * k,
                              fixed, h / DEFAULT_SUBSTEPS, sign)
            out[node + sign] = s
    return out


def integrate_lambda(cg: CoefficientGrid, base_node: tuple[int, int],
                     s0: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the Frobenius system over the whole grid from the base node
    in both sweep orders.  The x-first order integrates the base row, then
    every column at once from its node on the row; the y-first order the
    base column, then every row.  The y-first base column is the x-first
    sweep's column through the base node (same start state, coefficients
    and operations, so the same bits), so three batched integrations make
    the two orders.  The state is (l1, l2, p1, q1, p2, q2, u, v) as in
    `_rhs`; returns the x-first and y-first states as (nx, ny, 8) arrays."""
    r, every = cg.r, slice(None, None, cg.r)
    ib, jb = base_node
    start = np.array(s0, dtype=float)[:, None]
    # a diverging state overflows before `_rk4_step` refuses it; the
    # refusal is the one report of that
    with np.errstate(all="ignore"):
        row = _integrate_lines(cg, start, "x", ib, slice(jb * r, jb * r + 1))
        cols = _integrate_lines(cg, row[:, :, 0].T, "y", jb, every)
        rows = _integrate_lines(cg, cols[:, :, ib].T, "x", ib, every)
    return cols.transpose(2, 0, 1), rows.transpose(0, 2, 1)


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


def _on_grid_lines(g: GridSpec, fields: np.ndarray,
                   points: np.ndarray) -> np.ndarray:
    """Values of node fields (fields[k, i, j] at (xs[i], ys[j])) at points
    on grid lines (x equal to some xs[i] or y to some ys[j], bit for bit),
    by cubic Hermite interpolation along the line with slopes from
    4th-order finite differences of the nodes; one row per point, one
    column per field."""
    on_col = np.isin(points[:, 0], g.xs)
    on_row = ~on_col & np.isin(points[:, 1], g.ys)
    if not np.all(on_col | on_row):
        raise LinearizerError("point on no grid line; cannot interpolate")
    out = np.empty((len(points), len(fields)))
    # a column is interpolated in y (axis 1), a row in x (axis 0)
    for sel, axis, nodes, across, h in ((on_col, 1, g.ys, g.xs, g.hy),
                                        (on_row, 0, g.xs, g.ys, g.hx)):
        vals = np.moveaxis(fields, axis + 1, 2)
        slopes = np.moveaxis(_diff4(fields, h, axis + 1), axis + 1, 2)
        t, fixed = points[sel, axis], points[sel, 1 - axis]
        line = np.searchsorted(across, fixed)
        k = np.clip(np.searchsorted(nodes, t, side="right") - 1,
                    0, len(nodes) - 2)
        dt = nodes[k + 1] - nodes[k]
        s = (t - nodes[k]) / dt
        out[sel] = ((1 + 2 * s) * (1 - s) ** 2 * vals[:, line, k]
                    + s * (1 - s) ** 2 * dt * slopes[:, line, k]
                    + s * s * (3 - 2 * s) * vals[:, line, k + 1]
                    + s * s * (s - 1) * dt * slopes[:, line, k + 1]).T
    return out


def flatness_residual(cg: CoefficientGrid, l1: np.ndarray,
                      l2: np.ndarray) -> float:
    """Max curvature-coefficient magnitude of the connection deformed by
    lambda = (l1, l2), given at the grid nodes.

    The lambda derivatives are finite differences (4th order, centered in
    the interior); the symbolic coefficients are exact at the nodes.
    """
    g = cg.grid
    fx, fy, H, K, mu, mu1, mu2 = cg.stacked[:, ::cg.r, ::cg.r]

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
    """Flat coordinates of `web` at parameter values `params`: u and v at
    the nodes of `grid` (u[i, j] at (xs[i], ys[j])), lambda starting at lam0
    on the `base` node; the residuals that certify them; the per-foliation
    straightness of the mapped leaves, the number of leaves skipped, and
    the traced leaves as (foliation index, points, mapped points); the
    web's verdict and invariant reports."""
    web: WebSpec
    params: Mapping[str, Fraction]
    grid: GridSpec
    u: np.ndarray
    v: np.ndarray
    base: tuple[float, float]
    lam0: tuple[float, float]
    flatness_residual: float
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
                     force: bool = False,
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
    refusals are skipped too.  The leaves of every foliation are traced and
    measured under (u, v) by `straightness_report`.
    """
    verdict, reports = check_dweb(web, policy)
    if verdict != YES and not force:
        raise NotLinearizableError(verdict, reports)
    g = grid or GridSpec(rect=web.domain)
    if base is None:
        base = g.rect.center
    ib, jb = g.nearest_index(float(base[0]), float(base[1]))
    lam0 = (float(lam0[0]), float(lam0[1]))
    cg = CoefficientGrid(web, g, params)
    fx, fy = cg.stacked[:2, ::cg.r, ::cg.r]
    # theta1 = dx, theta2 = dy at the base: dx = -(1/fx) w1, dy = -(1/fy) w2
    s0 = [lam0[0], lam0[1], -1.0 / fx[ib, jb], 0.0, 0.0, -1.0 / fy[ib, jb],
          0.0, 0.0]
    state, state_t = integrate_lambda(cg, (ib, jb), s0)
    flat = flatness_residual(cg, state[:, :, 0], state[:, :, 1])
    threshold = FLATNESS_FACTOR * g.diameter
    if flat > threshold and not force:
        raise LinearizerError(
            f"connection is not flat (residual {flat:.3e} > {threshold:.3e}); "
            "linearization refused")
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
    u, v = state[:, :, 6].copy(), state[:, :, 7].copy()  # not views of state
    params = dict(params or {})
    straightness, skipped, leaves = straightness_report(web, g, u, v, params)
    return LinearizationResult(
        web=web, params=params, grid=g, u=u, v=v,
        base=(float(g.xs[ib]), float(g.ys[jb])), lam0=lam0,
        flatness_residual=flat, path_independence_residual=path_resid,
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


def trace_leaves(web: WebSpec, grid: GridSpec, foliation: str,
                 leaves: int, params: Mapping[str, Fraction] | None = None
                 ) -> list[np.ndarray]:
    """Polyline samples of `leaves` level curves of one foliation.

    Foliations are named "x", "y", "f", "g4".."gd".  A level curve of f/g
    is sampled where it first crosses each grid column and each grid row,
    found by bisecting the column crossings of all levels together, then
    the row crossings; every sample point therefore lies on a grid line.  Pieces that leave the rectangle
    are simply absent from the returned samples.
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
    fn = grid_function(e, params=params)
    XX, YY = np.meshgrid(xs, ys, indexing="ij")
    W = fn(XX, YY)
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
                        v: np.ndarray, params: Mapping[str, Fraction]
                        ) -> tuple[dict[str, float], int,
                                   list[tuple[int, np.ndarray, np.ndarray]]]:
    """Per-foliation max normalized line-fit residual of the leaves of `web`
    at `params` under (x, y) -> (u, v), with u and v given at the nodes of
    `grid`.

    Traces LEAVES_PER_FOLIATION leaves of every foliation; the points of
    all leaves go through one Hermite map for u and v together.  Leaves
    with fewer than 5 usable sample points are skipped.  Returns the
    report, the number of skipped leaves, and the leaves as (foliation
    index, points, mapped points).
    """
    names = ["x", "y", "f"] + [f"g{a}" for a in range(4, web.d + 1)]
    traced = [(idx, leaf) for idx, name in enumerate(names)
              for leaf in trace_leaves(web, grid, name, LEAVES_PER_FOLIATION,
                                       params)]
    points = np.concatenate([leaf for _, leaf in traced])
    uv = _on_grid_lines(grid, np.stack([u, v]), points)
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
        coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(sx, sy))
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
