"""Frobenius integration, flatness, flat coordinates, straightness."""
from __future__ import annotations

import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from weblin.expr import ExprError, Program, Y, parse
from weblin.calculus import Rect, WebSpec, mu as web_mu, reparameterized
from weblin.invariants import check_dweb
from weblin import linearizer as lin
from weblin.linearizer import grid_function
from weblin import corpus

F = Fraction


def _web(f, *gs, **kw):
    return WebSpec(f=parse(f), gs=tuple(parse(g) for g in gs), **kw)


ZERO_GAUGE_WEB = _web("x+y", "x-y")  # H = K = mu = 0

WEB2 = corpus.linearization_web(corpus.case_by_name("two-pencils"))
WEB3 = corpus.linearization_web(corpus.case_by_name("parabola-tangents"))
WEB5 = corpus.linearization_web(corpus.case_by_name("exponential-twist"))


def _linearize(web, n=41, ny=None, **kw):
    g = lin.GridSpec(rect=web.domain, nx=n, ny=ny or n)
    return lin.flat_coordinates(web, g, **kw)


def _states(web, grid, lam0=(0.0, 0.0)):
    """The pipeline's x-first and y-first states from the grid center, the
    coframes starting as dx and dy, with its coefficient grid."""
    cg = lin.CoefficientGrid(web, grid)
    cx, cy = grid.rect.center
    i, j = grid.nearest_index(float(cx), float(cy))
    Fx, Fy = cg.xlines[0, i * cg.r, j], cg.ylines[0, j * cg.r, i]  # -fx, -fy
    state, state_t = lin.integrate_lambda(
        cg, (i, j), [*lam0, 1 / Fx, 0, 0, 1 / Fy, 0, 0])
    return cg, state, state_t


class TestGridSpec:
    @pytest.mark.parametrize("nx, ny", [(4, 41), (41, 4), (514, 41),
                                        (41, 514), (100000, 100000)])
    def test_node_count_out_of_range(self, nx, ny):
        with pytest.raises(ExprError, match="grid"):
            lin.GridSpec(rect=WEB2.domain, nx=nx, ny=ny)

    @pytest.mark.parametrize("count", [41.0, "41", None, True],
                             ids=["float", "str", "none", "bool"])
    @pytest.mark.parametrize("axis", ["nx", "ny"])
    def test_node_count_not_an_int_refused(self, axis, count):
        # refused by name and value, not by a TypeError from numpy or a
        # comparison, and True is not the node count 1
        with pytest.raises(ExprError, match="^" + re.escape(
                f"{axis} must be an int, not {count!r}") + "$"):
            lin.GridSpec(rect=WEB2.domain, **{axis: count})

    def test_node_count_bounds_accepted(self):
        for n in (5, lin.MAX_GRID):
            assert lin.GridSpec(rect=WEB2.domain, nx=n, ny=n).nx == n

    def test_lattice_is_computed_once(self):
        rect = Rect(F(1, 3), F(5, 7), F(2, 9), F(10, 11))
        g = lin.GridSpec(rect=rect, nx=31, ny=21)
        assert g.xs is g.xs and g.ys is g.ys
        assert not g.xs.flags.writeable and not g.ys.flags.writeable
        with pytest.raises(ValueError):
            g.xs[0] = 0.0
        assert g.xs.tobytes() == np.linspace(1 / 3, 5 / 7, 31).tobytes()
        assert g.ys.tobytes() == np.linspace(2 / 9, 10 / 11, 21).tobytes()
        assert g.hx == (5 / 7 - 1 / 3) / 30 and g.hy == (10 / 11 - 2 / 9) / 20
        assert g == lin.GridSpec(rect=rect, nx=31, ny=21)


class TestDegenerateParameters:
    POWER = _web("x/y", "x^n + y^n")

    @pytest.mark.parametrize("force", [False, True])
    def test_degenerate_at_the_given_values_refused(self, force):
        # n = 0 makes g4 = 2 constant: the verdict at n = 0 rejects every
        # sample point, and under force the validity checks of g4, which
        # divide by a constant zero, cannot be compiled
        g = lin.GridSpec(rect=self.POWER.domain, nx=21, ny=21)
        with pytest.raises(lin.LinearizerError) as info:
            lin.flat_coordinates(self.POWER, g, params={"n": F(0)},
                                 force=force)
        if force:
            assert str(info.value) == "web is degenerate on the grid"
        else:
            assert isinstance(info.value, lin.NotLinearizableError)
            assert info.value.verdict == "INCONCLUSIVE"

    def test_valid_values_pass(self):
        g = lin.GridSpec(rect=self.POWER.domain, nx=21, ny=21)
        res = lin.flat_coordinates(self.POWER, g, params={"n": F(2)})
        assert res.verdict == "YES"

    def test_verdict_decided_at_the_given_values(self):
        # at n = 0 the web is x/y, x + y; drawn from its own parameter
        # range the verdict would be NO
        web = _web("x/y", "(x+y)*exp(-n*x)")
        res = _linearize(web, params={"n": F(0)})
        assert res.verdict == "YES"
        assert res.web.g(4) is parse("x + y") and res.web.params == ()
        assert max(res.straightness.values()) < 1e-5

    @pytest.mark.parametrize("params, message", [
        ({"n": F(2), "q": F(1)}, "q: not a parameter of the web"),
        ({}, "no value for parameter(s) n; "),
    ])
    def test_bad_parameters_refused_before_the_verdict(
            self, monkeypatch, params, message):
        def no_verdict(*args, **kwargs):
            raise AssertionError("check_dweb called")

        monkeypatch.setattr(lin, "check_dweb", no_verdict)
        with pytest.raises(ExprError, match="^" + re.escape(message)):
            lin.flat_coordinates(self.POWER, params=params)

    @pytest.mark.parametrize("grid", [None, 21])
    def test_base_off_the_grid_refused_before_the_verdict(self, monkeypatch,
                                                          grid):
        def no_verdict(*args, **kwargs):
            raise AssertionError("check_dweb called")

        monkeypatch.setattr(lin, "check_dweb", no_verdict)
        g = grid and lin.GridSpec(rect=self.POWER.domain, nx=grid, ny=grid)
        with pytest.raises(ExprError, match="^base point outside the grid$"):
            lin.flat_coordinates(self.POWER, g, base=(0.25, 100.0),
                                 params={"n": F(2)})

    @pytest.mark.parametrize("base, message", [
        ((F(10 ** 400), F(1, 2)), "base point outside the grid"),
        ((math.inf, 0.5), "base point outside the grid"),
        ((0.5, -math.inf), "base point outside the grid"),
        ((math.nan, 0.5), "base point is not a number"),
    ])
    def test_base_beyond_double_range_refused_before_the_verdict(
            self, monkeypatch, base, message):
        # a rational past double range, an infinity or a nan is an input
        # refusal like any other, not an OverflowError or ValueError
        def no_verdict(*args, **kwargs):
            raise AssertionError("check_dweb called")

        monkeypatch.setattr(lin, "check_dweb", no_verdict)
        with pytest.raises(ExprError, match=f"^{message}$"):
            lin.flat_coordinates(self.POWER, base=base, params={"n": F(2)})

    @pytest.mark.parametrize("lam0, message", [
        ((F(10 ** 400), 0), "lambda0 value beyond double range"),
        ((0, F(-10 ** 400)), "lambda0 value beyond double range"),
        ((math.nan, 0), "lambda0 value is not finite"),
        ((0.0, -math.inf), "lambda0 value is not finite"),
    ])
    def test_lambda0_beyond_double_range_refused_before_the_verdict(
            self, monkeypatch, lam0, message):
        # checked beside the base: not an OverflowError after the verdict,
        # nor a nan start that ends in a diverged integration
        def no_verdict(*args, **kwargs):
            raise AssertionError("check_dweb called")

        monkeypatch.setattr(lin, "check_dweb", no_verdict)
        with pytest.raises(ExprError, match=f"^{message}$"):
            lin.flat_coordinates(self.POWER, lam0=lam0, params={"n": F(2)})

    @pytest.mark.parametrize("base, lam0, message", [
        ((F(1, 2), F(1, 2)), (1,), "lambda0 needs two values"),
        ((F(1, 2), F(1, 2)), (1, 2, 3), "lambda0 needs two values"),
        ((0.5,), (0, 0), "base point needs two values"),
        ((0.5, 0.5, 0.5), (0, 0), "base point needs two values"),
    ])
    def test_base_or_lambda0_of_other_length_refused_before_the_verdict(
            self, monkeypatch, base, lam0, message):
        # neither an IndexError or TypeError, nor a value silently dropped
        def no_verdict(*args, **kwargs):
            raise AssertionError("check_dweb called")

        monkeypatch.setattr(lin, "check_dweb", no_verdict)
        with pytest.raises(ExprError, match=f"^{message}$"):
            lin.flat_coordinates(self.POWER, base=base, lam0=lam0,
                                 params={"n": F(2)})


@pytest.fixture(scope="module")
def web2_grid():
    return lin.GridSpec(rect=WEB2.domain, nx=41, ny=41)


@pytest.fixture(scope="module")
def web2_result(web2_grid):
    return lin.flat_coordinates(WEB2, web2_grid)


class TestTrivialGauge:
    def test_lambda_identically_zero(self):
        g = lin.GridSpec(rect=ZERO_GAUGE_WEB.domain, nx=21, ny=21)
        _, state, _ = _states(ZERO_GAUGE_WEB, g)
        assert np.abs(state[:, :, 0]).max() == 0
        assert np.abs(state[:, :, 1]).max() == 0

    def test_connection_coefficients_vanish(self):
        # every coefficient of the deformed connection is a sum of
        # lambda1, lambda2, mu and H terms
        g = lin.GridSpec(rect=ZERO_GAUGE_WEB.domain, nx=21, ny=21)
        cg, state, state_t = _states(ZERO_GAUGE_WEB, g)
        for lines in (cg.xlines, cg.ylines):
            assert np.all(lines[0] != 0)  # F, so F A = F H = 0 is H = mu = 0
        for arr in (state[:, :, 0], state[:, :, 1], *cg.xlines[[1, 3]],
                    *cg.ylines[[1, 3]]):
            assert np.abs(arr).max() == 0  # lambda, then F A and F H
        assert lin.flatness_residual(state, state_t) < 1e-14
        assert (_linearize(ZERO_GAUGE_WEB, 21).path_independence_residual
                < 1e-14)

    def test_flat_coordinates_are_translates(self):
        g = lin.GridSpec(rect=ZERO_GAUGE_WEB.domain, nx=21, ny=21)
        res = lin.flat_coordinates(ZERO_GAUGE_WEB, g)
        XX, YY = np.meshgrid(g.xs, g.ys, indexing="ij")
        assert res.u.shape == res.v.shape == (21, 21)
        assert res.u.flags.c_contiguous and res.v.flags.c_contiguous
        assert np.abs(res.u - (XX - res.base[0])).max() < 1e-12
        assert np.abs(res.v - (YY - res.base[1])).max() < 1e-12

    def test_straightness_at_rounding_level(self):
        rep = _linearize(ZERO_GAUGE_WEB, 21).straightness
        assert max(rep.values()) < 1e-12

    def test_jacobian_is_the_identity(self):
        # u = x - x0 and v = y - y0: the coframe stays dx, dy exactly
        jac = _linearize(ZERO_GAUGE_WEB, 21).jacobian
        assert jac.shape == (2, 2, 21, 21)
        assert np.abs(jac - np.eye(2)[:, :, None, None]).max() == 0


class TestIntegrateLambda:
    def test_refuses_nonlinearizable(self):
        with pytest.raises(lin.NotLinearizableError) as info:
            _linearize(WEB5, 21)
        assert info.value.verdict == "NO"
        assert [r.name for r in info.value.reports] == ["I1", "I2"]

    def test_path_independence_example_one(self):
        web = corpus.linearization_web(corpus.case_by_name(
            "pencil-with-parallels"))
        assert _linearize(web).path_independence_residual < 1e-8

    @pytest.mark.parametrize("corner", [None, (0, 0), (0, 1), (1, 0),
                                        (1, 1)],
                             ids=["centre", "lower-left", "upper-left",
                                  "lower-right", "upper-right"])
    def test_blowup_guard(self, corner):
        # from a corner every line has a half-line without steps, batched
        # beside the full-length other half, whose divergence must still
        # be reported
        web = corpus.linearization_web(corpus.case_by_name(
            "pencil-with-parallels"))
        base = None
        if corner is not None:
            xlo, xhi, ylo, yhi = web.domain.as_floats()
            base = ((xlo, xhi)[corner[0]], (ylo, yhi)[corner[1]])
        with pytest.raises(lin.LinearizerError, match="diverged"):
            _linearize(web, 21, 15, base=base, lam0=(1e9, 1e9))

    def test_missing_parameter_value(self):
        web = corpus.web_for(corpus.case_by_name("power-web"))
        with pytest.raises(ExprError, match="parameter"):
            _linearize(web, 21, force=True)

    def test_singular_grid_reported(self):
        # the exponential-twist web is singular on x + y = 1, which holds
        # at grid nodes: the coefficients are singular there too, but the
        # validity checks are tested first, in the same grid program
        web = _web("x/y", "(x+y)*exp(-x)",
                   domain=Rect(F(1, 4), F(3, 4), F(1, 4), F(3, 4)))
        message = re.escape("web is degenerate on the grid: "
                            "(-x - y + 1)*exp(-x) is 0 or not finite")
        with pytest.raises(lin.LinearizerError, match=message):
            _linearize(web, 21, force=True)
        g = lin.GridSpec(rect=web.domain, nx=21, ny=21)
        with pytest.raises(lin.LinearizerError, match=message):
            lin.CoefficientGrid(web, g)

    @pytest.mark.parametrize("g4, check", [("(x-33/128)^2+y", "2*x"),
                                           ("x+(y-33/128)^2", "2*y")],
                             ids=["x-lines", "y-lines"])
    def test_checks_hold_between_the_nodes(self, g4, check):
        # g4 has its critical line x = 33/128 (or y = 33/128) at refined
        # index 1 of the x-lines (or the y-lines), between the first two
        # nodes: that partial of g4 vanishes on no node, but on the lines
        web = _web("x/y", g4, domain=Rect(F(1, 4), F(3, 4), F(1, 4), F(3, 4)))
        g = lin.GridSpec(rect=web.domain, nx=17, ny=17)
        assert 33 / 128 not in g.xs
        assert np.linspace(0.25, 0.75, 16 * 4 + 1)[1] == 33 / 128
        with pytest.raises(lin.LinearizerError, match=re.escape(
                f"web is degenerate on the grid: {check} - 33/64 is 0 or not "
                "finite")):
            lin.flat_coordinates(web, g, force=True)

    def test_sign_change_between_the_points_refused(self):
        # two-pencils under x -> (x - 0.5123)^2 + 0.3: a YES web on each
        # side of the fold x = 0.5123, where fx = 0 between line points;
        # no grid makes that flat, so it is refused as degenerate, with
        # the first check that changes sign, not as a holonomy failure
        fold = parse("(x - 5123/10000)^2 + 3/10")
        web = reparameterized(corpus.web_for(corpus.case_by_name(
            "two-pencils")), fold, Y, Rect(F(1, 4), F(3, 4), F(1, 4), F(3, 4)))
        assert check_dweb(web)[0] == "YES"
        g = lin.GridSpec(rect=web.domain, nx=41, ny=41)
        assert 0.5123 not in np.linspace(0.25, 0.75, 40 * 4 + 1)
        with pytest.raises(lin.LinearizerError, match=re.escape(
                "web is degenerate inside the grid: (2*x - 5123/5000)/y "
                "changes sign")):
            lin.flat_coordinates(web, g)


def _rhs(c, s, along):
    """The frame equations along x or y: c holds the coefficients
    (fx, fy, H, K, mu, mu1, mu2) and s the state (l1, l2, p1, q1, p2, q2,
    u, v)."""
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


def _literal_line(web, g, s0, along, line, start):
    """The states at every node of one grid line (node `line` across it)
    from node `start` on, by classical RK4 substeps of `_rhs` taken one at
    a time, as an (nodes, 8) array; the seven coefficients are evaluated
    on the line's refined points apart from `CoefficientGrid`."""
    r, m = 2 * lin.DEFAULT_SUBSTEPS, lin.DEFAULT_SUBSTEPS
    mu = web_mu(web, 4)
    fn = grid_function(web.fx, web.fy, web.H, web.K, mu, web.d1(mu),
                       web.d2(mu))
    xlo, xhi, ylo, yhi = g.rect.as_floats()
    if along == "x":
        n, h, pts = g.nx, g.hx, _refined(xlo, xhi, g.nx)
        C = np.stack(fn(pts, np.full_like(pts, g.ys[line])))
    else:
        n, h, pts = g.ny, g.hy, _refined(ylo, yhi, g.ny)
        C = np.stack(fn(np.full_like(pts, g.xs[line]), pts))
    out = np.empty((n, 8))
    out[start] = s0
    for sign, stop in ((1, n - 1), (-1, 0)):
        s, hh = np.array(s0, dtype=float), sign * h / m
        for node in range(start, stop, sign):
            for k in range(m):
                t = node * r + 2 * sign * k
                k1 = _rhs(C[:, t], s, along)
                k2 = _rhs(C[:, t + sign], s + hh / 2 * k1, along)
                k3 = _rhs(C[:, t + sign], s + hh / 2 * k2, along)
                k4 = _rhs(C[:, t + 2 * sign], s + hh * k3, along)
                s = s + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            out[node + sign] = s
    return out


class TestBatchedSweep:
    def test_non_square_grid_off_centre_base(self):
        # 31x21 nodes and an off-centre base: a swapped axis or a shifted
        # line index in the batched sweep cannot hide here
        g = lin.GridSpec(rect=WEB2.domain, nx=31, ny=21)
        cg = lin.CoefficientGrid(WEB2, g)
        ib, jb = 7, 15
        s0 = [0.3, -0.2, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        states = lin.integrate_lambda(cg, (ib, jb), s0)
        for state in states:
            assert state.shape == (31, 21, 8)
            assert state[ib, jb].tolist() == s0
        assert np.abs(states[0][:, :, :2]).max() > 0.1
        # the criterion-6 tolerance, between two distinct orders
        assert np.abs(states[0][:, :, :2] - states[1][:, :, :2]).max() < 1e-8
        assert not np.array_equal(states[0], states[1])
        # both orders against one line at a time: the base row, then every
        # column; the base column, then every row
        row = _literal_line(WEB2, g, s0, "x", jb, ib)
        x_first = np.stack([_literal_line(WEB2, g, row[i], "y", i, jb)
                            for i in range(31)])
        col = _literal_line(WEB2, g, s0, "y", ib, jb)
        y_first = np.stack([_literal_line(WEB2, g, col[j], "x", j, ib)
                            for j in range(21)], axis=1)
        assert np.abs(states[0] - x_first).max() < 1e-12
        assert np.abs(states[1] - y_first).max() < 1e-12
        res = lin.flat_coordinates(WEB2, g, base=(g.xs[ib], g.ys[jb]))
        assert res.base == (g.xs[ib], g.ys[jb])
        assert res.u[ib, jb] == res.v[ib, jb] == 0

    def test_finished_half_line_stays_put(self):
        # H = K = mu = 0 and fx = 1, so l1' = -l1^2 along x: from l1 = -5 at
        # the base, l1 = 1/(x - x0 - 1/5) has its pole 1/5 past the base,
        # beyond the short forward half-lines (one node) but within the
        # reach of the long backward ones they are batched with
        g = lin.GridSpec(rect=ZERO_GAUGE_WEB.domain, nx=21, ny=21)
        cg = lin.CoefficientGrid(ZERO_GAUGE_WEB, g)
        ib, jb = 19, 10
        exact = 1 / (g.xs - g.xs[ib] - 0.2)
        for state in lin.integrate_lambda(cg, (ib, jb),
                                          [-5, 0, 1, 0, 0, 1, 0, 0]):
            assert np.abs(state[:, :, 0] - exact[:, None]).max() < 1e-6

    @pytest.mark.parametrize("along", ["x", "y"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_kernel_is_the_frame_equations(self, along, sign):
        # the y-system runs as the x-system on the swapped state; a wrong
        # sign of mu, K, mu1 or mu2 in either mapping moves a derivative
        rng = np.random.default_rng(7)
        c = rng.uniform(-2, 2, size=(7, 50))
        s = rng.uniform(-2, 2, size=(8, 50))
        h = sign * 0.0125
        order = list(range(8)) if along == "x" else lin._SWAP
        out = np.empty((8, 50))
        scratch = np.empty(50), np.empty(50), np.empty((2, 50))
        lin._frame_step(h * lin._line_coefficients(c, along),
                        lin._rows(s[order]), lin._rows(out), scratch)
        expected = h * _rhs(c, s, along)
        assert np.allclose(out[order], expected, rtol=1e-13, atol=0)


class TestFlatness:
    PENCIL = corpus.linearization_web(corpus.case_by_name(
        "pencil-with-parallels"))
    POWER = corpus.linearization_web(corpus.case_by_name("power-web"))

    def test_example_two_residual(self, web2_result):
        assert web2_result.path_independence_residual < 1e-6

    def test_example_one_residual(self):
        assert _linearize(self.PENCIL).path_independence_residual < 1e-6

    def test_perturbation_detected(self, web2_grid):
        _, state, state_t = _states(WEB2, web2_grid)
        assert lin.flatness_residual(state, state_t) < 1e-6
        bumped = state.copy()
        bumped[20, 20, 0] += 0.1
        assert lin.flatness_residual(bumped, state_t) > 1e-3

    @pytest.mark.parametrize("lam0", [(0.1, -0.1), (0.0, -0.1), (0.0, 0.05)])
    @pytest.mark.parametrize("web, params", [
        (PENCIL, None), (POWER, {"n": F(2)})], ids=["pencil", "power"])
    def test_nonzero_gauge_accepted(self, web, params, lam0):
        # a nonzero lambda0 makes lambda vary on the grid; the residual
        # must stay at the integrator's error, not the derivative's
        res = _linearize(web, params=params, lam0=lam0)
        assert res.verdict == "YES"
        assert res.path_independence_residual < lin.PATH_TOLERANCE

    def test_bumped_curvature_refused(self, monkeypatch):
        # K + 1e-6 makes the connection of a YES web curved, by less than
        # a finite difference of lambda can tell apart from its error; F B
        # holds -K/3 F along x and K/3 F along y
        class Bumped(lin.CoefficientGrid):
            def __init__(self, web, grid):
                super().__init__(web, grid)
                self.xlines[2] -= self.xlines[0] * 1e-6 / 3
                self.ylines[2] += self.ylines[0] * 1e-6 / 3

        monkeypatch.setattr(lin, "CoefficientGrid", Bumped)
        with pytest.raises(lin.LinearizerError, match="not flat"):
            _linearize(WEB2)
        res = _linearize(WEB2, force=True)
        assert res.path_independence_residual > lin.PATH_TOLERANCE

    @pytest.mark.parametrize("web", [
        WEB5, _web("x/y", "x+y+x^2*y/1000",
                   domain=Rect(F(1, 4), F(3, 4), F(1, 4), F(1, 2)))],
        ids=["exponential-twist", "cubic-bump"])
    def test_forced_no_web_reports_its_holonomy(self, web):
        res = _linearize(web, force=True)
        assert res.verdict == "NO"
        assert res.path_independence_residual > 1e-6

    def test_nonflat_input_refused(self, monkeypatch):
        # a NO web passed off as YES: its lambda cannot be flat
        monkeypatch.setattr(lin, "check_dweb", lambda web, policy: ("YES", []))
        with pytest.raises(lin.LinearizerError, match="not flat"):
            _linearize(WEB5)

    def test_integrator_is_fourth_order(self):
        # with a nonzero gauge the two-path discrepancy is a pure
        # integrator-error probe; halving the step must cut it by ~16
        # (assert >= 8 to allow constant drift while still certifying
        # order four, not two)
        discs = [_linearize(WEB2, n, lam0=(0.3, -0.2)
                            ).path_independence_residual for n in (21, 41)]
        assert discs[0] > 1e-14  # genuinely above rounding
        assert discs[1] <= discs[0] / 8

    def test_refinement_reduces_gauge_residual(self):
        # nontrivial lambda via a nonzero gauge; halving the step must cut
        # the holonomy residual by >= 3.5 (or both are at rounding level
        # already)
        coarse, fine = [_linearize(WEB2, n, lam0=(0.3, -0.2)
                                   ).path_independence_residual
                        for n in (41, 81)]
        assert coarse < 1e-12 or fine <= coarse / 3.5


class TestFlatCoordinates:
    def test_example_two_straightness(self, web2_result):
        assert web2_result.straightness
        assert max(web2_result.straightness.values()) < 1e-5

    def test_example_three_straightness(self):
        rep = _linearize(WEB3).straightness
        # the f-leaves are tangent lines of a parabola, straight already;
        # everything here measures numerical error only
        assert max(rep.values()) < 1e-6

    def test_power_web_with_concrete_exponent(self):
        web = corpus.linearization_web(corpus.case_by_name("power-web"))
        res = _linearize(web, params={"n": F(2)})
        assert res.web.params == () and res.web.g(4) is parse("x^2 + y^2")
        assert ((res.web.f, res.web.domain, res.web.seed)
                == (web.f, web.domain, web.seed))
        assert max(res.straightness.values()) < 1e-5

    def test_gauge_freedom(self, web2_grid):
        # different initial deformation values give different coordinates
        # but leaves stay straight
        _, state, _ = _states(WEB2, web2_grid, lam0=(0.3, -0.2))
        assert np.abs(state[:, :, 0]).max() > 0.01
        res = lin.flat_coordinates(WEB2, web2_grid, lam0=(0.3, -0.2))
        assert res.lam0 == (0.3, -0.2)
        assert max(res.straightness.values()) < 1e-5

    def test_affine_invariance_of_straightness(self, web2_result):
        result = web2_result
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        off = rng.normal(size=2)
        u2 = mat[0, 0] * result.u + mat[0, 1] * result.v + off[0]
        v2 = mat[1, 0] * result.u + mat[1, 1] * result.v + off[1]
        jac2 = np.tensordot(mat, result.jacobian, axes=1)
        rep2, _, _ = lin.straightness_report(WEB2, result.grid, u2, v2, jac2)
        assert set(rep2) == set(result.straightness)
        for k, v in result.straightness.items():
            assert rep2[k] < 1e-5

    def test_result_holds_the_straightness_report(self, web2_result):
        # the pipeline's report is the pure function of its (u, v) and
        # their Jacobian, and recomputing it leaves the result as it was
        res = web2_result
        before = [(i, p.tobytes(), q.tobytes()) for i, p, q in res.leaves]
        rep, skipped, leaves = lin.straightness_report(
            res.web, res.grid, res.u, res.v, res.jacobian)
        assert rep == res.straightness and skipped == res.skipped_leaves
        assert [(i, p.tobytes(), q.tobytes()) for i, p, q in leaves] == before
        assert [(i, p.tobytes(), q.tobytes())
                for i, p, q in res.leaves] == before
        for _, _, mapped in leaves:
            assert mapped.shape[1] == 2 and mapped.flags.c_contiguous

    def test_short_leaves_skipped(self):
        # on a 5x5 grid one level curve of f = x*y crosses the grid lines
        # at 4 points only: it is skipped, and kept for the picture
        web = _web("x*y", "x+y")
        grid = lin.GridSpec(rect=web.domain, nx=5, ny=5)
        u, v = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        identity = np.broadcast_to(np.eye(2)[:, :, None, None], (2, 2, 5, 5))
        _, skipped, leaves = lin.straightness_report(web, grid, u, v,
                                                     identity)
        assert skipped == 1
        assert [len(p) for i, p, _ in leaves if i == 2].count(4) == 1

    def test_jacobian_matches_node_gradients(self):
        # the integrated coframe against 2nd-order differences of (u, v)
        # at interior nodes: at 41 nodes they differ by 2.3e-4 (max |J| is
        # 1.56), and by about a quarter of that at 81 nodes, the
        # differences' own O(h^2) error
        web = corpus.linearization_web(corpus.case_by_name("bol-four-subweb"))
        gaps = []
        for n in (41, 81):
            res = _linearize(web, n)
            xs, ys = res.grid.xs, res.grid.ys
            grads = np.array([np.gradient(f, xs, ys, edge_order=2)
                              for f in (res.u, res.v)])
            assert res.jacobian.shape == grads.shape == (2, 2, n, n)
            gaps.append(np.abs(res.jacobian - grads)[..., 1:-1, 1:-1].max())
        assert gaps[0] < 3e-4
        assert gaps[1] < gaps[0] / 3.5

    def test_singular_coordinate_map_refused(self, monkeypatch):
        # the refusal starts just above the run's minimum |det| of the
        # coframe: at that minimum the run goes through
        grid = lin.GridSpec(rect=WEB2.domain, nx=21, ny=21)
        _, state, _ = _states(WEB2, grid)
        p1, q1, p2, q2 = np.moveaxis(state[:, :, 2:6], 2, 0)
        least = np.abs(p1 * q2 - q1 * p2).min()
        monkeypatch.setattr(lin, "COFRAME_DET_BOUND", least)
        lin.flat_coordinates(WEB2, grid)
        monkeypatch.setattr(lin, "COFRAME_DET_BOUND",
                            np.nextafter(least, np.inf))
        with pytest.raises(lin.LinearizerError,
                           match="^coordinate map singular on grid$"):
            lin.flat_coordinates(WEB2, grid)

    def test_smallest_grid_measures_every_foliation(self):
        # MIN_GRID nodes per axis give x- and y-leaves of MIN_GRID points,
        # as many as the report needs to measure a leaf
        web = corpus.linearization_web(
            corpus.case_by_name("pencil-with-parallels"))
        res = _linearize(web, lin.MIN_GRID)
        measured = [i for i, leaf, _ in res.leaves if len(leaf) >= 5]
        assert sorted(set(measured)) == [0, 1, 2, 3]

    def test_negative_control(self):
        res = _linearize(WEB5, force=True)
        assert res.verdict == "NO"
        assert max(res.straightness.values()) > 1e-2

    def test_non_square_grid(self):
        rep = _linearize(WEB2, 31, 21).straightness
        assert max(rep.values()) < 1e-5

    def test_every_linearizable_corpus_web_straightens(self):
        # end to end over the whole corpus; covers the genuinely nonlinear
        # coordinate changes (bol-four-subweb, double radicals)
        for case in corpus.CASES:
            if case.expected != "YES":
                continue
            web = corpus.linearization_web(case)
            params = {"n": F(2)} if case.name == "power-web" else None
            rep = _linearize(web, params=params).straightness
            assert max(rep.values()) < 1e-5, (case.name, rep)


class TestPipeline:
    def test_one_coefficient_grid_and_one_trace_per_foliation(
            self, monkeypatch, tmp_path):
        grids, traced, compiled = [], [], []
        real_grid, real_trace = lin.CoefficientGrid, lin.trace_leaves
        real_compile = lin.grid_function

        def counting_grid(*args, **kwargs):
            grids.append(args)
            return real_grid(*args, **kwargs)

        def counting_compile(*roots):
            compiled.append(len(roots))
            return real_compile(*roots)

        def counting_trace(web, grid, foliations, *args, **kwargs):
            traced.append(tuple(foliations))
            return real_trace(web, grid, foliations, *args, **kwargs)

        monkeypatch.setattr(lin, "CoefficientGrid", counting_grid)
        monkeypatch.setattr(lin, "trace_leaves", counting_trace)
        monkeypatch.setattr(lin, "grid_function", counting_compile)
        res = _linearize(WEB2, 21)
        lin.render_svg(res, str(tmp_path / "web.svg"))
        assert len(grids) == 1
        assert traced == [("x", "y", "f", "g4")]
        # one program for the coefficients and the validity checks, one
        # per traced level-curve foliation
        assert compiled == [7 + len(WEB2.validity_checks), 1, 1]

    def test_verdict_and_reports_on_result(self, web2_result):
        assert web2_result.verdict == "YES"
        assert [r.verdict for r in web2_result.reports] == ["ZERO", "ZERO"]


def _halving_oracle(fn, W, level, across, along_nodes, along):
    """First crossing of one level on every line of W by a plain loop of 80
    halvings: the across coordinates and roots of the lines kept."""
    D = W - level
    change = D[:, :-1] * D[:, 1:] <= 0
    k = np.nonzero(change.any(axis=1))[0]
    j = change[k].argmax(axis=1)
    fixed, lo, hi = across[k], along_nodes[j], along_nodes[j + 1]

    def val(t):
        return (fn(t, fixed) if along == "x" else fn(fixed, t)) - level

    with np.errstate(all="ignore"):
        flo, fhi = val(lo), val(hi)
        keep = np.isfinite(flo) & np.isfinite(fhi) & ~(flo * fhi > 0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = val(mid)
            keep &= np.isfinite(fm)
            left = flo * fm <= 0
            hi = np.where(left, mid, hi)
            lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
    return fixed[keep], (0.5 * (lo + hi))[keep]


def _same_bits(a, b):
    return all(p.tobytes() == q.tobytes() for p, q in zip(a, b))


class TestBisection:
    """One bisection of every foliation, direction and level together
    gives the roots of 80 plain halvings per level, bit for bit."""

    XS, YS = np.linspace(0, 1, 9), np.linspace(0, 1, 5)

    @staticmethod
    def _fn(x, y):
        # exact at the nodes; nan exactly at x = 3/16, the first midpoint
        # of the row bracket [1/8, 1/4]
        return np.where(x == 0.1875, np.nan, x + y / 4)

    def test_edge_cases_match_plain_halvings(self):
        XX, YY = np.meshgrid(self.XS, self.YS, indexing="ij")
        W = self._fn(XX, YY)
        # a level on grid nodes, one whose row brackets meet the nan
        # midpoint, one never crossed, and an ordinary one
        levels = np.array([0.5, 0.2, 10.0, 0.3])
        fn, xs, ys = self._fn, self.XS, self.YS
        [got] = lin._first_crossings([fn], [W], [levels], xs, ys)
        want = [(_halving_oracle(fn, W, c, xs, ys, "y"),
                 _halving_oracle(fn, W.T, c, ys, xs, "x")) for c in levels]
        for (gc, gr), (wc, wr) in zip(got, want):
            assert _same_bits(gc, wc) and _same_bits(gr, wr)
        (col_x, col_y), _ = got[0]
        # column x = 1/2 starts on the level: f(lo) == 0 halves toward lo
        assert 0 < col_y[col_x.tolist().index(0.5)] < 1e-20
        kept_rows = got[1][1][0]
        assert 0 < len(kept_rows) < len(self.YS)  # some rows dropped
        assert all(len(a) == 0 for a in got[2][0] + got[2][1])

    def test_stops_at_a_fixed_point(self):
        calls = []

        def fn(x, y):
            calls.append(1)
            return x + y / 4

        XX, YY = np.meshgrid(self.XS, self.YS, indexing="ij")
        W = XX + YY / 4
        [got] = lin._first_crossings([fn], [W], [np.array([0.3, 0.45])],
                                     self.XS, self.YS)
        halvings = len(calls) - 2  # two calls for the bracket ends
        want = [(_halving_oracle(fn, W, c, self.XS, self.YS, "y"),
                 _halving_oracle(fn, W.T, c, self.YS, self.XS, "x"))
                for c in (0.3, 0.45)]
        for (gc, gr), (wc, wr) in zip(got, want):
            assert _same_bits(gc, wc) and _same_bits(gr, wr)
        assert len(got[0][0][0]) == len(got[1][0][0]) == 2  # two columns
        # brackets a quarter wide reach adjacent doubles in about 54
        assert 50 < halvings < 80

    @staticmethod
    def _oracle_leaves(e, g):
        """The leaves of the level curves of e, each level bisected alone
        by `_halving_oracle` on the columns, then on the rows."""
        fn = grid_function(e)
        XX, YY = np.meshgrid(g.xs, g.ys, indexing="ij")
        W = fn(XX, YY)
        levels = np.quantile(W, np.linspace(0.25, 0.75, 5))
        want = []
        for c in levels:
            (col_x, col_y), (row_y, row_x) = (
                _halving_oracle(fn, W, c, g.xs, g.ys, "y"),
                _halving_oracle(fn, W.T, c, g.ys, g.xs, "x"))
            want.append(np.array(sorted(set(
                list(zip(col_x.tolist(), col_y.tolist()))
                + list(zip(row_x.tolist(), row_y.tolist()))))))
        return want

    @pytest.mark.parametrize("web, foliation", [
        (WEB2, "f"), (WEB2, "g4"), (WEB3, "f"), (WEB3, "g4")])
    def test_trace_leaves_match_plain_halvings(self, web, foliation):
        g = lin.GridSpec(rect=web.domain, nx=41, ny=41)
        e = web.f if foliation == "f" else web.g(4)
        want = self._oracle_leaves(e, g)
        [got] = lin.trace_leaves(web, g, [foliation])
        assert len(got) == len(want) == 5
        assert _same_bits(got, want)

    @pytest.mark.parametrize("web", [
        WEB2, WEB3, corpus.linearization_web(corpus.LINEAR_FIVE_WEB)],
        ids=["two-pencils", "parabola-tangents", "linear-five-web"])
    def test_every_foliation_in_one_call_matches_plain_halvings(
            self, monkeypatch, web):
        # one call traces the coordinate foliations and bisects every level
        # of every f/g foliation together: each leaf function runs once
        # for its nodes, twice for the bracket ends and once per halving
        g = lin.GridSpec(rect=web.domain, nx=41, ny=41)
        names = ["x", "y", "f"] + [f"g{a}" for a in range(4, web.d + 1)]
        calls = []
        real = lin.grid_function

        def counting(*roots):
            fn = real(*roots)

            def run(x, y):
                calls.append(roots)
                return fn(x, y)
            return run

        monkeypatch.setattr(lin, "grid_function", counting)
        got = lin.trace_leaves(web, g, names)
        monkeypatch.undo()
        assert len(got) == len(names)
        for leaves, axis in zip(got[:2], (0, 1)):  # grid columns, rows
            assert len(leaves) == 5
            assert all(np.ptp(leaf[:, axis]) == 0 for leaf in leaves)
        for leaves, e in zip(got[2:], (web.f, *web.gs)):
            want = self._oracle_leaves(e, g)
            assert len(leaves) == len(want) == 5
            assert _same_bits(leaves, want)
        per_function = {roots: calls.count(roots) for roots in calls}
        assert len(per_function) == web.d - 2
        assert len(set(per_function.values())) == 1
        assert max(per_function.values()) <= lin.BISECTION_CAP + 3


class TestCoefficientMemory:
    def test_peak_grows_with_the_lattice_by_a_few_arrays(self):
        # the four line coefficients are filled block by block on the two
        # line families: refining the grid adds at most 6 doubles of peak
        # memory per line point (from 81 nodes on, the blocks are full)
        web = corpus.linearization_web(corpus.case_by_name("bol-four-subweb"))

        def peak(n):
            g = lin.GridSpec(rect=web.domain, nx=n, ny=n)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                cg = lin.CoefficientGrid(web, g)
                top = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            refined = (n - 1) * cg.r + 1
            assert cg.xlines.shape == cg.ylines.shape == (4, refined, n)
            return top, 2 * refined * n

        peak(21)  # builds the symbolic coefficients once
        (small, n81), (large, n161) = peak(81), peak(161)
        assert large - small <= 6 * 8 * (n161 - n81)

    @pytest.mark.parametrize("name, all_slots_mib", [
        ("bol-four-subweb", 23.3), ("double-parabola-tangents", 26.4)])
    def test_block_holds_its_live_slots_not_its_program(self, name,
                                                        all_slots_mib):
        # beyond the coefficient arrays, a full block at 81 x 81 needs less
        # than half an array per program slot; `all_slots_mib` is the peak
        # measured when every slot's array lived until the block ended
        web = corpus.linearization_web(corpus.case_by_name(name))
        m = web_mu(web, 4)
        program = Program()
        for root in (web.fx, web.fy, web.H, web.K, m, web.d1(m), web.d2(m),
                     *web.validity_checks):
            program.code(root)
        lin.CoefficientGrid(web, lin.GridSpec(rect=web.domain, nx=21, ny=21))
        g = lin.GridSpec(rect=web.domain, nx=81, ny=81)  # full blocks
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cg = lin.CoefficientGrid(web, g)
            top = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert cg.xlines.shape[1] * g.ny > lin.BLOCK_POINTS
        assert top - cg.xlines.nbytes - cg.ylines.nbytes < (
            len(program.instructions) * 8 * lin.BLOCK_POINTS / 2)
        assert top <= all_slots_mib * 2 ** 20 / 2


def _refined(lo, hi, n):
    return np.linspace(lo, hi, (n - 1) * 2 * lin.DEFAULT_SUBSTEPS + 1)


class TestCoefficientBlocks:
    def test_values_do_not_depend_on_block_shape(self, monkeypatch):
        # at 21 nodes each family of 81 x 21 line points is one block by
        # default; one refined point per block and blocks of 7 refined
        # points (the last one short) must give the same bits
        g = lin.GridSpec(rect=WEB2.domain, nx=21, ny=21)
        cg = lin.CoefficientGrid(WEB2, g)
        m = g.nx
        for whole in (cg.xlines, cg.ylines):
            assert whole.shape[2] == m
            assert lin.BLOCK_POINTS >= whole.shape[1] * m
        for block in (1, 7 * m + 3):
            monkeypatch.setattr(lin, "BLOCK_POINTS", block)
            split = lin.CoefficientGrid(WEB2, g)
            assert split.xlines.tobytes() == cg.xlines.tobytes()
            assert split.ylines.tobytes() == cg.ylines.tobytes()

    @pytest.mark.parametrize("block", [None, 1, 7 * 21 + 3])
    def test_singular_coefficient_refused_whatever_the_blocks(
            self, monkeypatch, block):
        # f_x f_y underflows in doubles: the checks hold and mu, the first
        # coefficient that is not finite, names the refusal
        web = _web("(x+y+x*y)/10^200", "x+y",
                   domain=Rect(F(1, 4), F(3, 8), F(1, 2), F(3, 4)))
        g = lin.GridSpec(rect=web.domain, nx=21, ny=21)
        if block is not None:
            monkeypatch.setattr(lin, "BLOCK_POINTS", block)
        with pytest.raises(lin.LinearizerError, match="^" + re.escape(
                "coefficient mu is singular inside the grid; choose a "
                "smaller or shifted rectangle") + "$"):
            lin.CoefficientGrid(web, g)


class TestLineFamilies:
    GRID = lin.GridSpec(rect=WEB2.domain, nx=31, ny=21)

    @pytest.fixture(scope="class")
    def cg(self):
        return lin.CoefficientGrid(WEB2, self.GRID)

    @staticmethod
    def _coefficients():
        m = web_mu(WEB2, 4)
        return grid_function(WEB2.fx, WEB2.fy, WEB2.H, WEB2.K, m,
                             WEB2.d1(m), WEB2.d2(m))

    def test_lines_are_the_coefficients_at_their_points(self, cg):
        # the checks share the program, and change no coefficient bit
        g, fn = self.GRID, self._coefficients()
        xlo, xhi, ylo, yhi = g.rect.as_floats()
        xs, ys = _refined(xlo, xhi, g.nx), _refined(ylo, yhi, g.ny)
        assert cg.xlines.shape == (4, len(xs), g.ny)
        assert cg.ylines.shape == (4, len(ys), g.nx)
        for j, y in enumerate(g.ys):
            want = lin._line_coefficients(fn(xs, np.full_like(xs, y)), "x")
            assert cg.xlines[:, :, j].tobytes() == want.tobytes()
        for i, x in enumerate(g.xs):
            want = lin._line_coefficients(fn(np.full_like(ys, x), ys), "y")
            assert cg.ylines[:, :, i].tobytes() == want.tobytes()

    def test_families_agree_at_the_nodes(self, cg):
        # both families' node values come from the same coefficient bits,
        # those of one evaluation at the nodes
        g = self.GRID
        vals = self._coefficients()(*np.meshgrid(g.xs, g.ys, indexing="ij"))
        at_x = cg.xlines[:, ::cg.r]
        at_y = cg.ylines[:, ::cg.r].transpose(0, 2, 1)
        assert at_x.shape == at_y.shape == (4, 31, 21)
        assert at_x.tobytes() == lin._line_coefficients(vals, "x").tobytes()
        assert at_y.tobytes() == lin._line_coefficients(vals, "y").tobytes()

    @pytest.mark.parametrize("rect", [
        Rect(F(1, 4), F(3, 4), F(-1, 2), F(5, 8)),
        Rect(F(1, 3), F(5, 7), F(2, 9), F(10, 11))], ids=["dyadic", "other"])
    def test_refined_nodes_are_the_grid_nodes(self, monkeypatch, rect):
        # every line point goes through the one grid program; each node
        # of GridSpec is among them, bit for bit, once per family
        points = []
        real = lin.grid_function

        def recording(*roots):
            fn = real(*roots)

            def run(x, y):
                x, y = np.broadcast_arrays(x, y)
                points.extend(zip(x.ravel().tolist(), y.ravel().tolist()))
                return fn(x, y)
            return run

        monkeypatch.setattr(lin, "grid_function", recording)
        g = lin.GridSpec(rect=rect, nx=31, ny=21)
        cg = lin.CoefficientGrid(ZERO_GAUGE_WEB, g)
        xlo, xhi, ylo, yhi = rect.as_floats()
        assert _refined(xlo, xhi, 31)[::cg.r].tobytes() == g.xs.tobytes()
        assert _refined(ylo, yhi, 21)[::cg.r].tobytes() == g.ys.tobytes()
        assert len(points) == 121 * 21 + 81 * 31
        counts = {}
        for p in points:
            counts[p] = counts.get(p, 0) + 1
        assert all(counts.get((x, y)) == 2 for x in g.xs.tolist()
                   for y in g.ys.tolist())
        assert sum(counts.values()) - 2 * 31 * 21 == len(counts) - 31 * 21


class TestLeafTracing:
    def test_coordinate_foliations_are_grid_lines(self, web2_grid):
        [leaves] = lin.trace_leaves(WEB2, web2_grid, ["x"])
        assert len(leaves) == 5
        for leaf in leaves:
            assert np.ptp(leaf[:, 0]) == 0
        [leaves] = lin.trace_leaves(WEB2, web2_grid, ["y"])
        for leaf in leaves:
            assert np.ptp(leaf[:, 1]) == 0

    def test_level_curves_sit_on_levels(self, web2_grid):
        fn = lambda x, y: x / y
        for leaf in lin.trace_leaves(WEB2, web2_grid, ["f"])[0]:
            vals = leaf[:, 0] / leaf[:, 1]
            assert np.ptp(vals) < 1e-9

    def test_unknown_foliation(self, web2_grid):
        with pytest.raises(lin.LinearizerError):
            lin.trace_leaves(WEB2, web2_grid, ["q"])

    @pytest.mark.parametrize("name", ["g", "gx", "g5", "g04"])
    def test_malformed_foliation_name(self, web2_grid, name):
        # refused like "q", not by a ValueError from int() or an
        # out-of-range index
        with pytest.raises(lin.LinearizerError,
                           match=f"^unknown foliation '{name}'$"):
            lin.trace_leaves(WEB2, web2_grid, [name])


class TestHermite:
    GRID = lin.GridSpec(rect=Rect(F(-1), F(1), F(0), F(2)), nx=21, ny=21)
    CUBIC = parse("x^3 - 2*x*y^2 + y")

    def _fields(self):
        g = self.GRID
        XX, YY = np.meshgrid(g.xs, g.ys, indexing="ij")
        return np.stack([grid_function(self.CUBIC)(XX, YY), XX * YY])

    def _slopes(self):
        # d/dx and d/dy of each field, from their formulas
        g = self.GRID
        XX, YY = np.meshgrid(g.xs, g.ys, indexing="ij")
        return np.array([[3 * XX ** 2 - 2 * YY ** 2, -4 * XX * YY + 1],
                         [YY, XX]])

    def test_cubic_reproduced_on_grid_lines(self):
        g = self.GRID
        rng = np.random.default_rng(7)
        cols = np.stack([rng.choice(g.xs, 50), rng.uniform(0, 2, 50)], axis=1)
        rows = np.stack([rng.uniform(-1, 1, 50), rng.choice(g.ys, 50)], axis=1)
        nodes = np.stack([g.xs[[0, 3, 20]], g.ys[[20, 0, 9]]], axis=1)
        pts = np.vstack([cols, rows, nodes])
        got = lin._on_grid_lines(g, self._fields(), self._slopes(), pts)
        assert got.shape == (len(pts), 2)
        want = grid_function(self.CUBIC)(pts[:, 0], pts[:, 1])
        assert np.abs(got[:, 0] - want).max() < 1e-12
        assert np.abs(got[:, 1] - pts[:, 0] * pts[:, 1]).max() < 1e-12
        # mapped together, each field gets the bits it gets alone
        for k, (field, slope) in enumerate(zip(self._fields(),
                                               self._slopes())):
            alone = lin._on_grid_lines(g, field[None], slope[None], pts)[:, 0]
            assert alone.tobytes() == got[:, k].copy().tobytes()

    def test_point_on_no_grid_line(self):
        g = self.GRID
        pts = np.array([[g.xs[3], 0.5], [g.xs[3] + 1e-9, g.ys[2] + 1e-9]])
        with pytest.raises(lin.LinearizerError, match="no grid line"):
            lin._on_grid_lines(g, self._fields(), self._slopes(), pts)


class TestDependencies:
    def test_linearize_does_not_import_scipy(self, tmp_path):
        code = ("import sys\n"
                "from weblin.cli import main\n"
                "rc = main(sys.argv[1:])\n"
                "print('scipy' in sys.modules)\n"
                "sys.exit(rc)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, "linearize", "--json",
             "--svg", str(tmp_path / "web.svg"), "--f", "x/y",
             "--g", "(1-y)/(1-x)", "--domain", "1/4,3/8,1/2,3/4",
             "--grid", "21"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("argv, rc", [
        ([], None), (["check", "--f", "x/y", "--g", "x+y"], 0),
        (["invariants", "--f", "x/y", "--g", "exp(x)+y^2"], 1),
        (["selftest"], 0)], ids=["import", "check", "invariants", "selftest"])
    def test_check_does_not_import_numpy(self, argv, rc):
        # a fresh interpreter: whether numpy is loaded after `import
        # weblin`, after `import weblin.cli` and after the command
        code = ("import contextlib, io, sys\n"
                "import weblin\n"
                "seen = ['numpy' in sys.modules]\n"
                "from weblin import cli\n"
                "seen.append('numpy' in sys.modules)\n"
                "rc = None\n"
                "if sys.argv[1:]:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        rc = cli.main(sys.argv[1:])\n"
                "    seen.append('numpy' in sys.modules)\n"
                "print(rc, seen)\n")
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        seen = [False] * (3 if argv else 2)
        assert proc.stdout.splitlines()[-1] == f"{rc} {seen}"

    def test_linearize_loads_numpy_on_demand(self, tmp_path):
        # after a check that left numpy out, linearize loads it and gives
        # the recorded stdout and SVG digests
        svg = tmp_path / "leaves.svg"
        code = ("import contextlib, hashlib, io, json, sys\n"
                "from weblin import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    cli.main(['check', '--f', 'x/y', '--g', 'x+y'])\n"
                "before = 'numpy' in sys.modules\n"
                "buf = io.StringIO()\n"
                "with contextlib.redirect_stdout(buf):\n"
                "    rc = cli.main(sys.argv[1:])\n"
                "digest = hashlib.sha256(buf.getvalue().encode())\n"
                "print(json.dumps({'before': before,\n"
                "                  'after': 'numpy' in sys.modules,\n"
                "                  'exit': rc, 'stdout': digest.hexdigest()}))\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, "linearize", "--json",
             "--svg", str(svg), "--grid", "31", "--f", "y/x",
             "--g", "(x - x*y)/(y - x*y)", "--domain", "1/4,3/8,1/2,3/4",
             "--base", "0.28,0.7", "--lambda0", "0.3,-0.2", "--seed", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.splitlines()[-1])
        got["svg"] = hashlib.sha256(svg.read_bytes()).hexdigest()
        recorded = json.loads((Path(__file__).resolve().parent
                               / "linearize_seed1.json").read_text())
        assert got == {"before": False, "after": True, **recorded[
            "linearize/bol-four-subweb@31/off-centre"]}

    def test_runtime_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml"
                ).read_text()
        deps = tomllib.loads(text)["project"]["dependencies"]
        assert sorted(re.split(r"[<>=!~;\[ ]", d)[0] for d in deps) == [
            "mpmath", "numpy"]


class TestSvg:
    def test_svg_written(self, tmp_path, web2_result):
        out = tmp_path / "web.svg"
        lin.render_svg(web2_result, str(out))
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") >= 4 * 2  # both panels, 4 foliations
        # one stroke color per foliation
        colors = {line.split('stroke="')[1].split('"')[0]
                  for line in text.splitlines() if "<polyline" in line}
        assert len(colors) == 4

    def test_svg_deterministic(self, tmp_path, web2_result):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        lin.render_svg(web2_result, str(a))
        lin.render_svg(web2_result, str(b))
        assert a.read_bytes() == b.read_bytes()


class TestJson:
    def test_result_json_strings(self, web2_result):
        d = web2_result.to_json()
        assert "flatness_residual" not in d
        assert isinstance(d["path_independence_residual"], str)
        assert float(d["path_independence_residual"]) < lin.PATH_TOLERANCE
        assert set(d["straightness"]) == {"x", "y", "f", "g4"}
