"""Command-line interface: exit codes, report shapes, determinism."""
from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time

import pytest

from weblin import calculus, cli, linearizer as lin
from weblin.invariants import MAX_POINTS, MAX_PRECISION, MIN_PRECISION
from weblin.cli import (main, build_parser, _build_config, EXIT_YES, EXIT_NO,
                        EXIT_INCONCLUSIVE, EXIT_USAGE)


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

    def test_interval_too_narrow_for_rational_sampling(self, capsys):
        # no rational with denominator at most 10^4 lies in [1e-5, 2e-5]
        code, out, _ = run(capsys, "check", "--f", "x/y", "--g", "x+y",
                           "--domain", "1/100000,2/100000,1/4,3/4")
        assert code == EXIT_INCONCLUSIVE
        assert out.count("INCONCLUSIVE (") == 2
        assert out.count("reason: interval too narrow for rational "
                         "sampling\n") == 2

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
        assert err == (f"error: precision outside {MIN_PRECISION}.."
                       f"{MAX_PRECISION} bits\n")

    def test_one_parser_per_process_keeps_no_state(self):
        # main reuses one parser: each parse fills a new namespace, so the
        # flags of one call (appended --g and --param, a --seed) never
        # reach the next, which reads what a new parser reads
        from weblin import cli
        assert cli._parser() is cli._parser()
        first = cli._parser().parse_args(
            ["linearize", "--f", "x/y", "--g", "x+y", "--g", "x-y",
             "--param", "n=2", "--seed", "5"])
        argv = ["linearize", "--f", "x/y", "--g", "x+y"]
        second = cli._parser().parse_args(argv)
        assert first.g == ["x+y", "x-y"] and first.param == ["n=2"]
        assert second.g == ["x+y"] and second.param is None
        assert vars(second) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("bits", [24, 65536])
    def test_precision_bounds_accepted(self, bits):
        args = build_parser().parse_args(["check", "--f", "x/y", "--g", "x+y",
                                          "--precision", str(bits)])
        assert _build_config(args).precision == bits

    @pytest.mark.parametrize("n", [MAX_POINTS + 1, 10 ** 9])
    def test_samples_above_bound(self, capsys, n):
        # the draw memo holds about 50 KB per point
        code, out, err = run(capsys, "check", "--f", "x/y", "--g", "x+y",
                             "--samples", str(n))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"error: sample points per test must be 1 to "
                       f"{MAX_POINTS}: more than {MAX_POINTS} would outgrow "
                       "the draw memo\n")

    @pytest.mark.parametrize("n", [1, MAX_POINTS])
    def test_samples_bounds_accepted(self, n):
        args = build_parser().parse_args(["check", "--f", "x/y", "--g", "x+y",
                                          "--samples", str(n)])
        assert _build_config(args).samples == n

    def test_samples_help_reads_the_bound(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "--help"])
        assert (f"sample points per vanishing test, 1..{MAX_POINTS}"
                in capsys.readouterr().out)

    def test_huge_root_index(self, capsys):
        # 1 < 4^(1/10^30) < 2: no rational root, so the factor stays a power
        t0 = time.perf_counter()
        f = "4^(1/1" + "0" * 30 + ")*x"
        code, out, err = run(capsys, "check", "--f", f, "--g", "x+y")
        assert time.perf_counter() - t0 < 5
        assert code in (EXIT_YES, EXIT_NO, EXIT_INCONCLUSIVE, EXIT_USAGE)
        assert out.splitlines()[-1].startswith("verdict: ") and err == ""

    @pytest.mark.parametrize("g5", ["2*x/y", "x+y+1"])
    def test_repeated_foliation_inconclusive(self, capsys, g5):
        # g5 with the direction of f, or of g4: no valid sample point
        code, out, err = run(capsys, "check", "--f", "x/y", "--g", "x+y",
                             "--g", g5)
        assert code == EXIT_INCONCLUSIVE and err == ""
        assert out.count("    reason: domain too singular") == 3
        assert out.endswith("verdict: INCONCLUSIVE\n")

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

    @pytest.mark.parametrize("f, g", [
        # exp of about exp(3e24): libmp raised MemoryError in mpf_exp
        ("exp(exp(40*exp((3*x + 2*y)^3)))", "exp(x*y)*x/y + y"),
        # ran 19.6 s, then the residual's exponent was too long to print
        ("exp(exp(60*(x/y + 4*x)*exp(2*(-y + 1)/(-x + 1))))", "(8*x + y)^3"),
    ], ids=["memory-error", "residual-too-long"])
    def test_huge_exp_argument_is_inconclusive(self, f, g):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "weblin", "check", "--f", f, "--g", g],
            capture_output=True, text=True)
        assert time.perf_counter() - t0 < 5
        assert proc.returncode == EXIT_INCONCLUSIVE
        assert proc.stderr == ""
        reasons = [line for line in proc.stdout.splitlines()
                   if "reason:" in line]
        # one line per invariant (I1, I2), each the same refusal
        assert reasons == [
            "    reason: float evaluation refused an exp argument of "
            "magnitude 2^32 or more"] * 2

    @pytest.mark.parametrize("error", [MemoryError, RecursionError])
    def test_exhausted_resources_are_one_line(self, capsys, monkeypatch,
                                             error):
        def exhausted(*args, **kwargs):
            raise error()

        monkeypatch.setattr(cli, "check_dweb", exhausted)
        code, out, err = run(capsys, "check", "--f", "x/y", "--g", "x+y")
        assert code == EXIT_INCONCLUSIVE
        assert out == ""
        assert err == (f"error: {error.__name__}: the run exhausted its "
                       "resources; INCONCLUSIVE\n")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedOutput:
    """A reader that closes stdout early leaves the exit code of the
    verdict and nothing on stderr."""

    @pytest.mark.parametrize("argv, want", [
        (("check", "--json", "--f", "x/y", "--g", "x+y"), EXIT_YES),
        (("invariants", "--f", "y/x", "--g", "(1-y)/(1-x)", "--g",
          "(x-x*y)/(y-x*y)"), EXIT_NO),
    ])
    def test_in_process(self, capsys, monkeypatch, argv, want):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(list(argv)) == want
        assert capsys.readouterr().err == ""

    def test_through_a_pipe(self):
        # the read end is closed before weblin writes its report
        proc = subprocess.Popen(
            [sys.executable, "-m", "weblin", "check", "--json", "--f", "x/y",
             "--g", "x+y"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == EXIT_YES
        assert err == b""


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
            "precision": 256, "grid": calculus.DEFAULT_GRID_N, "base": None,
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

    def test_evidence_point_prints_its_parameter_values(self, capsys):
        code, out, _ = run(capsys, "invariants", "--f", "x/y",
                           "--g", "x^n+y^n")
        assert code == EXIT_YES
        evidence = [line for line in out.splitlines() if ": residual " in line]
        assert evidence[0].startswith(
            "    x=260/517 y=165/322 n=1717/276: residual ")
        assert all(" n=" in line for line in evidence)


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

    def test_svg_path_is_the_last_text_line(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, out, err = run(capsys, "linearize", "--f", "x/y",
                             "--g", "(1-y)/(1-x)",
                             "--domain", "1/4,3/8,1/2,3/4",
                             "--grid", "21", "--svg", str(svg))
        assert code == EXIT_YES and err == ""
        assert out.splitlines()[-1] == f"svg written to {svg}"
        assert svg.read_text().startswith("<svg")

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

    def test_base_at_the_domain_corner(self, capsys):
        # from the lower-left corner every line has a backward half-line
        # without steps
        code, out, _ = run(capsys, "linearize", "--f", "x/y",
                           "--g", "(1-y)/(1-x)",
                           "--domain", "1/4,3/8,1/2,3/4",
                           "--grid", "21", "--base", "0.25,0.5", "--json")
        assert code == EXIT_YES
        doc = json.loads(out)["linearization"]
        assert doc["base"] == ["0.25", "0.5"]
        assert float(doc["path_independence_residual"]) < 1e-8

    def test_lambda0_flag(self, capsys):
        code, out, _ = run(capsys, "linearize", "--f", "x/y",
                           "--g", "(1-y)/(1-x)",
                           "--domain", "1/4,3/8,1/2,3/4",
                           "--grid", "21", "--lambda0", "0.3,-0.2")
        assert code == EXIT_YES
        assert "lambda0 (0.3, -0.2)" in out

    def test_negative_lambda0_after_a_space(self, capsys):
        # a YES web, linearized from a nonzero lambda0
        code, out, _ = run(capsys, "linearize", "--f", "x/y", "--g", "x+y",
                           "--lambda0", "-0.1,0.1", "--json")
        assert code == EXIT_YES
        doc = json.loads(out)
        assert doc["config"]["lambda0"] == ["-0.1", "0.1"]
        assert float(doc["linearization"]["path_independence_residual"]) \
            < lin.PATH_TOLERANCE

    @pytest.mark.parametrize("spaced", ["--domain", "--base", "--lambda0"])
    def test_leading_minus_after_a_space(self, capsys, spaced):
        # argparse alone takes "-1/2,-1/2" for an option and reports that
        # the flag expects one argument
        values = {"--domain": "-3/4,-1/4,-3/4,-1/4", "--base": "-1/2,-1/2",
                  "--lambda0": "-0.1,-0.2"}
        argv = ["linearize", "--f", "x/y", "--g", "x+y", "--grid", "21",
                "--json"]
        for flag, value in values.items():
            argv += [flag, value] if flag == spaced else [f"{flag}={value}"]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_YES
        config = json.loads(out)["config"]
        for flag, value in values.items():
            assert config[flag[2:]] == value.split(",")

    @pytest.mark.parametrize("flag, value, web", [
        ("--f", "-x/y", {"f": "-x/y", "g": ["x + y"]}),
        ("--g", "-x-y", {"f": "x/y", "g": ["-x - y"]})], ids=["f", "g"])
    def test_expression_with_a_leading_minus(self, capsys, flag, value, web):
        # read as --f=-x/y, not as an option that leaves --f without a value
        values = {"--f": "x/y", "--g": "x+y", flag: value}
        spaced = [t for item in values.items() for t in item]
        joined = [f"{k}={v}" for k, v in values.items()]
        code, out, err = run(capsys, "check", "--json", *spaced)
        assert code == EXIT_YES and err == ""
        assert json.loads(out)["web"] == web
        assert run(capsys, "check", "--json", *joined) == (code, out, err)

    @pytest.mark.parametrize("argv", [
        ["--f", "--g", "x+y"], ["--f", "x/y", "--g"],
        ["--f", "x/y", "--g", "--f", "-x"]])
    def test_expression_flag_without_a_value_is_one_line(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: argument --") and err.endswith(
            ": expected one argument\n")
        assert err.count("\n") == 1

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
        assert err == (f"error: grid needs {calculus.MIN_GRID} to "
                       f"{calculus.MAX_GRID} nodes per axis\n")

    @pytest.mark.parametrize("nodes", [4, 0, -3])
    def test_grid_below_bound(self, capsys, nodes, monkeypatch):
        # the same one line and exit code as above the bound
        def no_grid(*args, **kwargs):
            raise AssertionError("coefficient grid built")

        monkeypatch.setattr(lin, "CoefficientGrid", no_grid)
        code, out, err = run(capsys, "linearize", "--f", "x/y",
                             "--g", "x+y", "--grid", str(nodes))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (f"error: grid needs {calculus.MIN_GRID} to "
                       f"{calculus.MAX_GRID} nodes per axis\n")

    def test_grid_help_reads_the_bounds(self, capsys, monkeypatch):
        monkeypatch.setattr(calculus, "MIN_GRID", 7)
        monkeypatch.setattr(calculus, "MAX_GRID", 301)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["linearize", "--help"])
        assert "grid nodes per axis, 7..301" in capsys.readouterr().out

    def test_degenerate_parameter_value_refused(self, capsys):
        # at n = 0, g4 = x^0 + y^0 = 2 is constant: the verdict at n = 0
        # rejects every sample point, and under --force the grid checks
        # refuse the web
        argv = ["linearize", "--f", "x/y", "--g", "x^n + y^n",
                "--param", "n=0", "--grid", "21"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INCONCLUSIVE
        assert err == ""
        assert [line for line in out.splitlines() if "refused" in line] == [
            "web verdict is INCONCLUSIVE; linearization refused "
            "(--force to run it anyway as a negative control)"]
        code, out, err = run(capsys, *argv, "--force")
        assert code == EXIT_NO
        assert out == ""
        assert err.startswith("linearization failed: web is degenerate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["--g", "(x-33/128)^2+y", "--domain", "1/4,3/4,1/4,3/4",
          "--grid", "17"],
         "web is degenerate on the grid: 2*x - 33/64 is 0 or not finite"),
        (["--g", "x^n+y^n", "--param", "n=0", "--grid", "21"],
         "web is degenerate on the grid")], ids=["line-point", "constant"])
    def test_degenerate_on_the_grid_lines_is_one_line(self, capsys, argv,
                                                      message):
        # the first check vanishes only between nodes (x = 33/128 is
        # refined index 1); the second divides by a constant zero
        code, out, err = run(capsys, "linearize", "--f", "x/y", *argv,
                             "--force")
        assert code == EXIT_NO
        assert out == ""
        assert err == f"linearization failed: {message}\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]],
                             ids=["text", "json"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_svg_is_one_line(self, capsys, tmp_path, target,
                                        json_flag):
        path = {"missing-dir": tmp_path / "absent" / "a.svg",
                "directory": tmp_path}[target]
        code, out, err = run(capsys, "linearize", "--f", "x/y", "--g", "x+y",
                             "--grid", "9", "--svg", str(path), *json_flag)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: --svg {path}: cannot write (")
        assert err.count("\n") == 1

    def test_verdict_decided_at_the_param_value(self, capsys):
        # at n = 0 the web is x/y, x + y: YES, though NO for n in [2, 7]
        code, out, err = run(capsys, "linearize", "--f", "x/y",
                             "--g", "(x+y)*exp(-n*x)", "--param", "n=0",
                             "--grid", "21", "--json")
        assert code == EXIT_YES and err == ""
        doc = json.loads(out)
        assert doc["verdict"] == "YES"
        assert doc["web"]["g"] == ["(x + y)*exp(-n*x)"]
        evidence = [e for inv in doc["invariants"] for e in inv["evidence"]]
        assert evidence and all(e["params"] == {} for e in evidence)

    def test_grid_bound_accepted(self):
        args = build_parser().parse_args(["linearize", "--f", "x/y",
                                          "--g", "x+y", "--grid", "513"])
        assert _build_config(args).grid == calculus.MAX_GRID == 513

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

    def test_singular_coefficient_is_one_line(self, capsys):
        # f_x f_y underflows in doubles, so the coefficient mu is not
        # finite on the grid lines, while the validity checks hold
        code, out, err = run(capsys, "linearize",
                             "--f", "(x+y+x*y)/10^200", "--g", "x+y",
                             "--domain", "1/4,3/8,1/2,3/4", "--grid", "21",
                             "--force")
        assert code == EXIT_NO == 1
        assert out == ""
        assert err == ("linearization failed: coefficient mu is singular "
                       "inside the grid; choose a smaller or shifted "
                       "rectangle\n")

    def test_coarse_grid_holonomy_is_one_line(self, capsys):
        # a YES web whose integration error at the default grid exceeds
        # PATH_TOLERANCE: refused there, linearized on a finer grid
        argv = ["linearize", "--f", "x*y", "--g", "x+y",
                "--domain", "1/4,3/8,1/2,3/4"]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_NO
        assert out == ""
        assert err.startswith("linearization failed: holonomy residual ")
        assert "not flat" in err and "finer grid" in err
        assert err.count("\n") == 1
        code, out, _ = run(capsys, *argv, "--grid", "81")
        assert code == EXIT_YES
        assert "verdict: YES" in out

    def test_singular_foliation_is_one_line(self, capsys):
        # the verdict is YES, but f's values overflow doubles
        code, out, err = run(capsys, "linearize", "--f", "x/y + 10^400",
                             "--g", "x+y", "--grid", "9")
        assert code == EXIT_NO
        assert out == ""
        assert err == ("linearization failed: foliation f is singular on "
                       "the grid\n")

    def test_singular_coordinate_map_is_one_line(self, capsys, monkeypatch):
        # a bound above every |det| of the coframe refuses any run
        monkeypatch.setattr(lin, "COFRAME_DET_BOUND", float("inf"))
        code, out, err = run(capsys, "linearize", "--f", "x/y", "--g", "x+y",
                             "--grid", "21")
        assert code == EXIT_NO == 1
        assert out == ""
        assert err == "linearization failed: coordinate map singular on grid\n"


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

    def test_package_runs_as_a_module(self):
        # `python -m weblin` from a checkout: the verdict's exit code, and a
        # usage error as one `error:` line
        def weblin(*argv):
            return subprocess.run(
                [sys.executable, "-m", "weblin", "check", "--f", "x/y",
                 "--g", "x+y", *argv], capture_output=True, text=True)

        proc = weblin()
        assert proc.returncode == EXIT_YES
        assert "verdict: YES" in proc.stdout
        proc = weblin("--domain", "1,0,0,1")
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: rectangle must have positive extent"]

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
