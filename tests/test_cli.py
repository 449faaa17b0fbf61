"""Command-line interface: exit codes, report shapes, determinism."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from weblin import linearizer as lin
from weblin.cli import (main, build_parser, _build_config, EXIT_YES, EXIT_NO,
                        EXIT_INCONCLUSIVE, EXIT_USAGE, MAX_GRID)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "check", "--f", "x/y", "--g", "x+y")
        assert code == EXIT_YES
        assert "verdict: YES" in out

    def test_no_five_web(self, capsys):
        code, out, _ = run(capsys, "check", "--f", "y/x",
                           "--g", "(1-y)/(1-x)", "--g", "(x-x*y)/(y-x*y)")
        assert code == EXIT_NO
        assert "verdict: NO" in out

    def test_usage_error_needs_two_functions(self, capsys):
        code, _, err = run(capsys, "check", "--f", "x/y")
        assert code == EXIT_USAGE
        assert "two web functions" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "check", "--f", "x/(", "--g", "x+y")
        assert code == EXIT_USAGE
        assert "offset" in err

    def test_deep_nesting_is_a_parse_error(self, capsys):
        deep = "(" * 3000 + "x" + ")" * 3000
        code, out, err = run(capsys, "check", "--f", deep, "--g", "x+y")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_huge_exact_residual(self, capsys):
        # exact residuals here run to thousands of digits, within the
        # exact-arithmetic budget: still an exact NO
        for n in (1000, 3000):
            code, out, _ = run(capsys, "check", "--f", "x/y",
                               "--g", f"x^{n}+y", "--json")
            assert code == EXIT_NO
            doc = json.loads(out)
            for inv in doc["invariants"]:
                for e in inv["evidence"]:
                    assert e["mode"] == "exact"
                    assert len(e["residual"]) < 100

    @pytest.mark.parametrize("n", [10000, 100000])
    def test_exact_budget_exceeded(self, capsys, n):
        # no float fallback: a float residual can read tiny where the
        # exact value is nonzero, so the honest answer is INCONCLUSIVE
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "check", "--f", "x/y",
                           "--g", f"x^{n}+y")
        assert time.perf_counter() - t0 < 30
        assert code == EXIT_INCONCLUSIVE
        assert out.count("reason: exact evaluation exceeded 262144 bits") == 2

    def test_folded_constant_too_large(self, capsys):
        code, out, err = run(capsys, "check", "--f", "x/y",
                             "--g", "x + y + 3^10000")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: constant exceeds 14284 bits\n"

    @pytest.mark.parametrize("bits", [23, 65537])
    def test_precision_out_of_range(self, capsys, bits):
        # above 2^16 bits one float evaluation could run for minutes
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check", "--f", "x/y",
                             "--g", "exp(x)+y", "--precision", str(bits))
        assert time.perf_counter() - t0 < 5
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --precision") and err.count("\n") == 1

    @pytest.mark.parametrize("bits", [24, 65536])
    def test_precision_bounds_accepted(self, bits):
        args = build_parser().parse_args(["check", "--f", "x/y", "--g", "x+y",
                                          "--precision", str(bits)])
        assert _build_config(args).precision == bits

    @pytest.mark.parametrize("flag, value", [
        ("--domain", "1,2,3"), ("--domain", "1/0,1,0,1"), ("--param", "n"),
        ("--samples", "0"), ("--f", "x$y")])
    def test_malformed_flag(self, capsys, flag, value):
        code, out, err = run(capsys, "linearize", "--f", "x/y", "--g", "x+y",
                             "--grid", "21", flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "check", "--nope")
        assert code == EXIT_USAGE

    def test_inconclusive_degenerate_web(self, capsys):
        # g = x duplicates a coordinate foliation; sampling cannot succeed
        code, out, _ = run(capsys, "check", "--f", "x/y", "--g", "x")
        assert code == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in out


class TestJsonReport:
    def test_schema(self, capsys):
        code, out, _ = run(capsys, "check", "--f", "x/y", "--g", "x+y",
                           "--json")
        assert code == EXIT_YES
        doc = json.loads(out)
        assert set(doc) == {"web", "config", "invariants", "verdict",
                            "linearization"}
        assert doc["web"]["f"] == "x/y"
        assert doc["web"]["g"] == ["x + y"]
        assert doc["verdict"] == "YES"
        assert doc["linearization"] is None
        assert doc["config"] == {
            "command": "check", "domain": None, "seed": 1, "samples": 8,
            "precision": 256, "grid": lin.DEFAULT_GRID_N, "base": None,
            "lambda0": ["0", "0"], "params": {}, "force": False}
        for inv in doc["invariants"]:
            assert set(inv) == {"name", "verdict", "dag_size", "evidence"}
            assert isinstance(inv["dag_size"], int)
            for e in inv["evidence"]:
                assert set(e) == {"point", "params", "residual", "mode"}
                assert e["mode"] in ("exact", "float")
                assert isinstance(e["residual"], str)

    def test_byte_identical_across_runs(self, capsys):
        args = ("check", "--f", "x/y", "--g", "(1-y)/(1-x)", "--seed", "7",
                "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_seed_changes_evidence(self, capsys):
        _, out1, _ = run(capsys, "check", "--f", "x/y", "--g", "x+y",
                         "--seed", "1", "--json")
        _, out2, _ = run(capsys, "check", "--f", "x/y", "--g", "x+y",
                         "--seed", "2", "--json")
        e1 = json.loads(out1)["invariants"][0]["evidence"]
        e2 = json.loads(out2)["invariants"][0]["evidence"]
        assert e1 != e2


class TestInvariantsCommand:
    def test_witness_point_printed(self, capsys):
        code, out, _ = run(capsys, "invariants", "--f", "y/x",
                           "--g", "(1-y)/(1-x)", "--g", "(x-x*y)/(y-x*y)")
        assert code == EXIT_NO
        assert "J5: NONZERO" in out
        assert "residual" in out


class TestLinearizeCommand:
    def test_refuses_without_force(self, capsys):
        code, out, _ = run(capsys, "linearize", "--f", "x/y",
                           "--g", "(x+y)*exp(-x)")
        assert code == EXIT_NO
        assert "refused" in out

    def test_refused_json_report(self, capsys):
        code, out, _ = run(capsys, "linearize", "--json", "--f", "x/y",
                           "--g", "(x+y)*exp(-x)", "--seed", "2",
                           "--domain", "1/4,3/4,1/4,3/4", "--grid", "21",
                           "--base", "0.5,0.5", "--lambda0", "0.1,-0.2")
        assert code == EXIT_NO
        doc = json.loads(out)
        assert doc["verdict"] == "NO"
        assert doc["linearization"] == {
            "refused": "web verdict is NO; linearization refused (--force "
                       "to run it anyway as a negative control)"}
        assert doc["config"] == {
            "command": "linearize", "domain": ["1/4", "3/4", "1/4", "3/4"],
            "seed": 2, "samples": 8, "precision": 256, "grid": 21,
            "base": ["0.5", "0.5"], "lambda0": ["0.1", "-0.2"], "params": {},
            "force": False}

    def test_linearizes_two_pencils(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, out, _ = run(capsys, "linearize", "--f", "x/y",
                           "--g", "(1-y)/(1-x)",
                           "--domain", "1/4,3/8,1/2,3/4",
                           "--grid", "21", "--svg", str(svg), "--json")
        assert code == EXIT_YES
        doc = json.loads(out)
        lin = doc["linearization"]
        assert lin is not None
        worst = max(float(v) for v in lin["straightness"].values())
        assert worst < 1e-5
        text = svg.read_text()
        assert text.startswith("<svg") and "<polyline" in text

    def test_force_runs_negative_control(self, capsys):
        code, out, _ = run(capsys, "linearize", "--f", "x/y",
                           "--g", "(x+y)*exp(-x)",
                           "--domain", "11/10,13/10,1/5,2/5",
                           "--grid", "21", "--force", "--json")
        assert code == EXIT_YES  # pipeline ran; verdict field still says NO
        doc = json.loads(out)
        assert doc["verdict"] == "NO"
        worst = max(float(v) for v in doc["linearization"]["straightness"].values())
        assert worst > 1e-2

    def test_lambda0_flag(self, capsys):
        code, out, _ = run(capsys, "linearize", "--f", "x/y",
                           "--g", "(1-y)/(1-x)",
                           "--domain", "1/4,3/8,1/2,3/4",
                           "--grid", "21", "--lambda0", "0.3,-0.2")
        assert code == EXIT_YES
        assert "lambda0 (0.3, -0.2)" in out

    def test_constant_beyond_double_range(self, capsys):
        # a web constant past 2^1024 is an infinite coefficient on the grid
        code, out, err = run(capsys, "linearize", "--f", "3^1000*x/y",
                             "--g", "x+y", "--grid", "21")
        assert code == EXIT_NO
        assert out == ""
        assert err.startswith("linearization failed: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [
        ("--base", "1e400,0"), ("--lambda0", "0,-1e400"),
        ("--domain", "1e400,1e401,1,2"), ("--domain", "0,1e-400,1,2")])
    def test_flag_beyond_double_range(self, capsys, flag, value):
        code, out, err = run(capsys, "linearize", "--f", "x/y",
                             "--g", "x+y", "--grid", "21", flag, value)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("nodes", [514, 10 ** 9])
    def test_grid_above_bound(self, capsys, nodes, monkeypatch):
        # refused before any lattice is allocated: a wrapped CoefficientGrid
        # must never run
        def no_grid(*args, **kwargs):
            raise AssertionError("coefficient grid built")

        monkeypatch.setattr(lin, "CoefficientGrid", no_grid)
        code, out, err = run(capsys, "linearize", "--f", "x/y",
                             "--g", "x+y", "--grid", str(nodes))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: --grid") and err.count("\n") == 1

    def test_grid_bound_accepted(self):
        args = build_parser().parse_args(["linearize", "--f", "x/y",
                                          "--g", "x+y", "--grid", "513"])
        assert _build_config(args).grid == MAX_GRID == 513

    def test_param_flag(self, capsys):
        code, out, _ = run(capsys, "linearize", "--f", "x/y",
                           "--g", "x^n + y^n", "--param", "n=2",
                           "--grid", "21")
        assert code == EXIT_YES

    @pytest.mark.parametrize("g, params", [
        ("x+y", ("q=2",)),                       # the web has no q
        ("x^n + y^n", ("n=2", "q=2")),           # n is one, q is not
        ("x^n + y^n", ("n=2", "n=3")),           # a name given twice
    ])
    def test_param_names_checked(self, capsys, g, params):
        argv = ["linearize", "--f", "x/y", "--g", g, "--grid", "21"]
        for p in params:
            argv += ["--param", p]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("g", ["x^n + y^n", "x^n + y^m"])
    def test_missing_param_refused_before_the_verdict(self, capsys, g,
                                                       monkeypatch):
        # exit 1 would read as NO; the verdict must not even be computed
        def no_verdict(*args, **kwargs):
            raise AssertionError("check_dweb called")

        monkeypatch.setattr(lin, "check_dweb", no_verdict)
        argv = ["linearize", "--f", "x/y", "--g", g, "--grid", "21"]
        if "m" in g:
            argv += ["--param", "n=2"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: no value for parameter(s) ")
        assert err.split(";")[0].endswith("m" if "m" in g else "n")
        assert err.count("\n") == 1

    def test_base_off_the_grid_refused_before_the_verdict(self, capsys,
                                                          monkeypatch):
        def no_verdict(*args, **kwargs):
            raise AssertionError("check_dweb called")

        monkeypatch.setattr(lin, "check_dweb", no_verdict)
        code, out, err = run(capsys, "linearize", "--f", "x/y", "--g", "x+y",
                             "--grid", "21", "--base", "100,100")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: base point outside the grid\n"

    @pytest.mark.filterwarnings("error")  # a warning would print to stderr
    def test_diverging_integration_is_one_line(self, capsys):
        code, out, err = run(capsys, "linearize", "--f", "x/y", "--g", "x+y",
                             "--grid", "21", "--lambda0", "1e300,0")
        assert code == EXIT_NO
        assert out == ""
        assert err == ("linearization failed: Frobenius integration "
                       "diverged; shrink grid\n")


class TestSelftest:
    def test_plain_corpus(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == EXIT_YES
        assert "10/10 verdicts match" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "selftest", "--json")
        doc = json.loads(out)
        assert doc["failures"] == 0
        assert len(doc["cases"]) == 10

    def test_equivalence_mode(self, capsys):
        code, out, _ = run(capsys, "selftest", "--equivalence")
        assert code == EXIT_YES
        assert "19/19 verdicts match" in out


class TestConsoleScript:
    def test_entry_point_wired(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weblin.cli", "check",
             "--f", "x/y", "--g", "x+y"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "verdict: YES" in proc.stdout

    def test_ascii_stdout(self):
        # every line the human report prints encodes as ASCII
        proc = subprocess.run(
            [sys.executable, "-m", "weblin.cli", "check", "--f", "x",
             "--g", "y"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONIOENCODING": "ascii"})
        assert proc.returncode == EXIT_INCONCLUSIVE
        assert "    reason: domain too singular" in proc.stdout
        assert "Traceback" not in proc.stderr
