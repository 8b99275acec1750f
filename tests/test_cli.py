import argparse
import json
import math
from datetime import datetime, timedelta
from pathlib import Path

import pytest

import test_golden_cli as golden
from frobpde import catalog, cli, errors
from frobpde.cli import load_problem, main
from frobpde.errors import SchemaError


GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BESSEL = {"A": 1, "B": 2, "C": 1, "a": "1", "b": "1", "c": "x^2", "point": [0, 0], "order": 10}
HEAT = {
    "A": 1,
    "B": 0,
    "C": 0,
    "a": "1 - x*y",
    "b": "-1",
    "c": "0",
    "point": [0.5, 0.25],
    "order": 12,
}


class TestLoadProblem:
    def test_valid(self, tmp_path):
        spec = load_problem(write(tmp_path, BESSEL))
        assert spec.pde.A == 1 and spec.pde.order == 10
        assert spec.point == (0j, 0j)
        assert spec.pde.c.get((2, 0)) == 1.0

    def test_complex_pairs(self, tmp_path):
        payload = dict(BESSEL, A=[1, 2])
        assert load_problem(write(tmp_path, payload)).pde.A == 1 + 2j

    def test_params_bound(self, tmp_path):
        payload = dict(BESSEL, c="x^2 - nu^2", params={"nu": 2})
        spec = load_problem(write(tmp_path, payload))
        assert spec.pde.c.constant_term() == -4.0

    def test_missing_member(self, tmp_path):
        payload = {k: v for k, v in BESSEL.items() if k != "B"}
        with pytest.raises(SchemaError):
            load_problem(write(tmp_path, payload))

    def test_unknown_member_pointer(self, tmp_path):
        with pytest.raises(SchemaError) as info:
            load_problem(write(tmp_path, dict(BESSEL, extra=1)))
        assert info.value.pointer == "/extra"

    def test_bad_order(self, tmp_path):
        with pytest.raises(SchemaError) as info:
            load_problem(write(tmp_path, dict(BESSEL, order=0)))
        assert info.value.pointer == "/order"

    def test_bad_point(self, tmp_path):
        with pytest.raises(SchemaError):
            load_problem(write(tmp_path, dict(BESSEL, point="origin")))

    def test_bad_tolerances(self, tmp_path):
        with pytest.raises(SchemaError) as info:
            load_problem(write(tmp_path, dict(BESSEL, tolerances={"foo": 1})))
        assert info.value.pointer == "/tolerances/foo"

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1e-9, 0,
                                     pytest.param(10**400, id="int-10^400")])
    def test_tolerance_not_positive_and_finite(self, tmp_path, tol):
        # json reads NaN and Infinity; a NaN tol used to switch the scan off
        with pytest.raises(SchemaError) as info:
            load_problem(write(tmp_path, dict(BESSEL, tolerances={"tol": tol})))
        assert info.value.pointer == "/tolerances/tol"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), [0, float("-inf")], 10**400],
                             ids=["nan", "inf", "pair-with--inf", "int-10^400"])
    @pytest.mark.parametrize("pointer", ["/A", "/C", "/params/nu", "/point/0", "/point/1"])
    def test_numbers_must_be_finite(self, tmp_path, pointer, value):
        members = {"/A": {"A": value}, "/C": {"C": value}, "/params/nu": {"params": {"nu": value}},
                   "/point/0": {"point": [value, 0]}, "/point/1": {"point": [0, value]}}
        payload = dict(BESSEL, c="x^2 - nu^2", params={"nu": 0})
        payload.update(members[pointer])
        with pytest.raises(SchemaError, match="expected a finite number") as info:
            load_problem(write(tmp_path, payload))
        assert info.value.pointer == pointer


OFF_CONIC = dict(BESSEL, B=0, c="-x^2-y^2", point=[3, 0.5], order=6)  # P(3, 0.5) = 9.25


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        assert main(["classify", write(tmp_path, BESSEL)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"]["discriminant_class"] == "parabolic"

    def test_refusal_resonant(self, tmp_path, capsys):
        assert main(["solve", write(tmp_path, HEAT)]) == 2
        assert "refused" in capsys.readouterr().err

    def test_refusal_off_conic(self, tmp_path, capsys):
        assert main(["solve", write(tmp_path, dict(BESSEL, point=[1, 1]))]) == 2

    def test_exit_two_errors_are_the_refusals(self):
        # main exits 2 on errors.Refusal: exactly these five derive from it
        derived = {e.__name__ for e in vars(errors).values()
                   if isinstance(e, type) and issubclass(e, errors.Refusal) and e is not errors.Refusal}
        assert derived == {"BasePointNotOnConic", "ComplexCoefficients", "ConstraintViolated",
                           "NoSolution", "ResonantPoint"}

    def test_input_error_missing_file(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "nope.json")]) == 1

    def test_input_error_schema(self, tmp_path, capsys):
        assert main(["classify", write(tmp_path, {"A": 1})]) == 1

    def test_input_error_expression(self, tmp_path, capsys):
        assert main(["classify", write(tmp_path, dict(BESSEL, c="x^"))]) == 1

    @pytest.mark.parametrize("command", ["scan-resonance", "solve"])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1])
    def test_tolerance_refused(self, tmp_path, capsys, command, tol):
        assert main([command, write(tmp_path, dict(OFF_CONIC, tolerances={"tol": tol}))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must be a positive finite number (at /tolerances/tol)\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_euler_tolerance_refused(self, capsys, tol):
        assert main(["euler", "1", "0", "0", "1", "-1", "0", "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must be a positive finite number (at --tol)\n"

    @pytest.mark.parametrize("command, member, value", [
        ("scan-resonance", "point", [float("nan"), 0]),
        ("classify", "A", float("nan")),
        ("classify", "A", 10**400),
    ], ids=["point-nan", "A-nan", "A-int-10^400"])
    def test_nonfinite_member_refused(self, tmp_path, capsys, command, member, value):
        assert main([command, write(tmp_path, dict(BESSEL, **{member: value}))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        pointer = "/point/0" if member == "point" else "/A"
        assert captured.err == f"error: expected a finite number or [re, im] pair (at {pointer})\n"

    @pytest.mark.parametrize("argv, pointer", [
        (["euler", "inf", "0", "1", "0", "0", "0"], "A"),
        (["euler", "1", "0", "1", "0", "0", "nan"], "F"),
        (["transform", "euler-coordinates", "1", "0", "1", "inf", "0", "0"], "D"),
        (["catalog", "solve", "bessel_I", "--param", "nu=nan"], "/params/nu"),
        (["catalog", "solve", "bessel_I", "--param", "nu=1e400"], "/params/nu"),
        (["catalog", "solve", "bessel_I", "--param", "nu=0", "--point", "0,infj"], "/point/1"),
    ], ids=["euler-A-inf", "euler-F-nan", "transform-D-inf", "param-nan", "param-1e400", "point-infj"])
    def test_nonfinite_argument_refused(self, capsys, argv, pointer):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: expected a finite number (at {pointer})\n"

    @pytest.mark.parametrize("text, column", [("x^2^2^2^2^2", 5), ("x^1e400", 3)])
    def test_exponent_above_the_cap_refused(self, tmp_path, capsys, text, column):
        assert main(["classify", write(tmp_path, dict(BESSEL, c=text))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: exponent must be at most 1024 at line 1, column {column}\n"

    def test_number_beyond_the_float_range_refused(self, tmp_path, capsys):
        assert main(["solve", write(tmp_path, dict(BESSEL, c="x^2/1e400"))]) == 1
        assert capsys.readouterr() == ("", "error: number 1e400 is beyond the float range at line 1, column 5\n")

    @pytest.mark.parametrize("a, err", [
        ("(" * 600 + "1" + ")" * 600, "expression nests deeper than 300 levels at line 1, column 301"),
        ("-" * 3000 + "1", "expression nests deeper than 300 levels at line 1, column 301"),
        ("1^" * 3000 + "1", "expression nests deeper than 300 levels at line 1, column 601"),
        ("+".join(["x"] * 3000), "expression nests deeper than 300 levels at line 1, column 600"),
    ], ids=["parentheses", "unary-minus", "tower", "sum"])
    def test_deeply_nested_expression_refused(self, tmp_path, capsys, a, err):
        # each used to end in a RecursionError traceback
        assert main(["classify", write(tmp_path, dict(BESSEL, a=a))]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_deeply_nested_json_refused(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(BESSEL)[:-1] + ', "params": {"nu": ' + "[" * 100000 + "]" * 100000 + "}}")
        assert main(["classify", str(path)]) == 1
        assert capsys.readouterr() == ("", "error: JSON nests too deeply (at /)\n")

    def test_usage_error(self, capsys):
        assert main(["solve"]) == 1

    def test_nonfinite_coefficients_refused(self, tmp_path, capsys):
        # D_(1,0) = -1e300 and D_(2,0) overflows to inf: the sweep stops there
        assert main(["solve", write(tmp_path, dict(BESSEL, c="1e300*x", order=6))]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: non-finite coefficient D_(2,0) (layer 2): (inf+nanj)\n"

    @pytest.mark.parametrize("payload, err", [
        ([1, 2], "problem file must contain a JSON object (at /)"),
        (dict(BESSEL, params=[1]), "params must be an object (at /params)"),
        (dict(BESSEL, a=1), "a must be an expression string (at /a)"),
        (dict(BESSEL, tolerances=1e-9), "tolerances must be an object (at /tolerances)"),
    ], ids=["not-an-object", "params", "a", "tolerances"])
    def test_problem_file_refused(self, tmp_path, capsys, payload, err):
        assert main(["solve", write(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")

    def test_auto_point_search_exhausted(self, tmp_path, capsys):
        # r = 0 has no root s; at every other candidate r the root is
        # -1e300 / (1e-310 r), beyond the float range, so the point is not on
        # the conic; so the search refuses
        payload = dict(BESSEL, B=1e-310, C=0, b="0", c="1e300", point="auto", order=4)
        assert main(["solve", write(tmp_path, payload)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "refused: auto point search found no nonresonant conic point\n")

    @pytest.mark.parametrize("argv, err", [
        (["catalog", "solve", "bessel_I", "--param", "nu"], "--param needs name=value, got 'nu' (at /params)"),
        (["catalog", "solve", "bessel_I", "--param", "nu=a"], "cannot parse number 'a' (at /params/nu)"),
        (["catalog", "solve", "bessel_I", "--param", "nu=0", "--point", "0"],
         '--point needs "r,s" or "auto" (at /point)'),
        (["catalog", "solve", "bessel_I", "--param", "nu=0", "--point", "a,b"],
         "cannot parse number 'a' (at /point/0)"),
        (["transform", "euler-coordinates", "1", "0", "0", "1", "x", "0"], "cannot parse number 'x' (at E)"),
        (["transform", "euler-coordinates", "1", "0", "0"],
         "euler-coordinates needs six coefficients A B C D E F (at /)"),
        (["transform", "prepare-coordinates", "--A", "1+x"],
         "prepare-coordinates needs --A and --C expressions (at /)"),
    ], ids=["param-no-equals", "param-value", "point-one-part", "point-value", "euler-coordinates-value",
            "euler-coordinates-count", "prepare-coordinates-C"])
    def test_argument_refused(self, capsys, argv, err):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {err}\n")


class TestSolveOutput:
    def test_json_payload(self, tmp_path, capsys):
        assert main(["solve", write(tmp_path, BESSEL)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"][0] == [0, 0, 1, 0]
        assert payload["coeffs"][1][:3] == [2, 0, -0.25]
        assert payload["convergence"]["parabolic_real_type"] is True

    def test_csv_payload(self, tmp_path, capsys):
        assert main(["solve", write(tmp_path, BESSEL), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "q1,q2,re,im"
        assert lines[1] == "0,0,1,0"

    def test_skip_removable_policy(self, tmp_path, capsys):
        code = main(["solve", write(tmp_path, HEAT), "--resonance-policy", "skip_removable"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        diag = {tuple(row[:2]): row[2] for row in payload["coeffs"]}
        assert diag[(1, 1)] == pytest.approx(0.5)

    def test_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, BESSEL)
        main(["solve", path])
        first = capsys.readouterr().out
        main(["solve", path])
        assert capsys.readouterr().out == first

    def test_meta_on_stderr_only(self, tmp_path, capsys):
        main(["solve", write(tmp_path, BESSEL), "--meta"])
        out1 = capsys.readouterr()
        assert "timestamp" not in out1.out
        meta = json.loads(out1.err)
        assert datetime.fromisoformat(meta["timestamp"]).utcoffset() == timedelta(0)
        assert meta["tool"] == "frobpde"

    def test_auto_point(self, tmp_path, capsys):
        payload = dict(BESSEL, point="auto")
        assert main(["solve", write(tmp_path, payload)]) == 0
        got = json.loads(capsys.readouterr().out)
        assert got["r0"] == [0, 0]


class TestOtherSubcommands:
    def test_classify_ignores_the_resonance_tol(self, tmp_path, capsys):
        circle = dict(BESSEL, B=0, c="-25", point=[5, 0], order=12)  # r^2 + s^2 = 25
        classes = []
        for payload in (circle, dict(circle, tolerances={"tol": 30})):
            assert main(["classify", write(tmp_path, payload)]) == 0
            classes.append(json.loads(capsys.readouterr().out)["class"])
        assert classes[0] == classes[1] == {
            "discriminant_class": "elliptic", "degenerate": False, "degenerate_kind": "none"}

    def test_scan_resonance(self, tmp_path, capsys):
        assert main(["scan-resonance", write(tmp_path, HEAT)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hits"][0][:2] == [1, 2]

    def test_euler(self, capsys):
        assert main(["euler", "1", "0", "0", "1", "-1", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["conic"]["cE"] == [-1, 0]
        assert "parabolic" in payload["integral_point_families"]

    def test_euler_huge_coefficients(self, capsys):
        # the classification and the monomial exponents used to overflow
        assert main(["euler", "1e200", "0", "1e200", "0", "0", "1e200"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["class"] == {"discriminant_class": "elliptic", "degenerate": False,
                                    "degenerate_kind": "none"}
        exponents = [v for row in payload["monomial_exponents"] for v in row]
        assert len(exponents) == 16  # a non-finite number would be the string "nan" or "inf"
        assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in exponents)
        assert payload["integral_point_families"] == {}  # 1e200 is no exact integer of the input

    def test_euler_integers_end_below_2_53(self, capsys):
        # 2^53 + 1 is read as the double 2^53, so it is not the integer typed
        assert main(["euler", "9007199254740993", "0", "1", "0", "0", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["integral_point_families"] == {}
        assert main(["euler", "9007199254740991", "0", "1", "0", "0", "1"]) == 0
        family = json.loads(capsys.readouterr().out)["integral_point_families"]["elliptic"]
        assert family["conic"][0] == 9007199254740991 ** 2

    def test_classify_huge_coefficient(self, tmp_path, capsys):
        # relative to A = 1e200 the other coefficients vanish: 1e200 r^2 is a double line
        assert main(["classify", write(tmp_path, dict(BESSEL, A=1e200))]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["class"] == {"discriminant_class": "parabolic", "degenerate": True,
                                                     "degenerate_kind": "parallel_or_repeated_lines"}

    @pytest.mark.parametrize("value, plain", [("-1e-3", "-0.001"), ("-1.5E+2", "-150"), ("-1.", "-1")])
    @pytest.mark.parametrize("command", [["euler"], ["transform", "euler-coordinates"]])
    def test_negative_number_with_an_exponent(self, capsys, command, value, plain):
        # argparse alone would read -1e-3 as an option
        assert main([*command, "1", "0", "0", "1", value, "0"]) == 0
        out = capsys.readouterr().out
        assert main([*command, "1", "0", "0", "1", plain, "0"]) == 0
        assert capsys.readouterr().out == out

    def test_solve_times_2_600(self, tmp_path, capsys):
        # the golden Bessel problem with A, B, C, a, b, c times 2^600 prints
        # the same stdout: |B|^2 in the convergence report used to overflow
        k = 2.0 ** 600
        problem = json.loads((GOLDEN / "problems" / "bessel.json").read_text())
        problem.update({m: k * problem[m] for m in "ABC"}, **{m: f"{k!r}*({problem[m]})" for m in "abc"})
        assert main(["solve", write(tmp_path, problem)]) == 0
        assert capsys.readouterr().out == (GOLDEN / "expected" / "bessel.solve.out").read_text()

    def test_euler_times_2_minus_1000(self, capsys):
        # lin^2 and 4 quad const underflow to 0 unless solve_for_s rescales
        k = repr(2.0 ** -1000)
        assert main(["euler", k, "0", k, "0", "0", k]) == 0
        scaled = json.loads(capsys.readouterr().out)
        assert main(["euler", "1", "0", "1", "0", "0", "1"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert (scaled["class"], scaled["monomial_exponents"]) == (plain["class"], plain["monomial_exponents"])

    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        names = [e["name"] for e in json.loads(capsys.readouterr().out)]
        assert "legendre_II" in names

    def test_catalog_solve(self, capsys):
        code = main(
            ["catalog", "solve", "bessel_I", "--param", "nu=0", "--order", "8", "--point", "0,0"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeffs"][1][:3] == [2, 0, -0.25]

    def test_catalog_solve_bessel_default_point(self, capsys):
        # the default point of bessel_I at nu = 0.5 is (0.5, 0), on its conic
        assert main(["catalog", "solve", "bessel_I", "--param", "nu=0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["r0"], payload["s0"]) == ([0.5, 0], [0, 0])
        ent = catalog.entry("bessel_I", nu=0.5)
        for q1, q2, re, im in payload["coeffs"]:
            assert complex(re, im) == pytest.approx(catalog.closed_form_coeff(ent, 0.5, 0, (q1, q2)), rel=1e-13)

    @pytest.mark.parametrize("point", ["-0.3,0", "-0.3,-0", "-3e-1,0j"])
    def test_catalog_solve_negative_point(self, capsys, point):
        # argparse alone would read a pair that starts with "-" as an option
        argv = ["catalog", "solve", "bessel_I", "--param", "nu=0.3", "--order", "8"]
        assert main([*argv, "--point", point]) == 0
        out = capsys.readouterr().out
        assert main([*argv, f"--point={point}"]) == 0
        assert capsys.readouterr().out == out
        assert json.loads(out)["r0"] == [-0.3, 0]

    @pytest.mark.parametrize("argv", [["--help"], ["catalog", "solve", "--help"]])
    def test_help_unchanged_by_the_negative_number_pattern(self, capsys, monkeypatch, argv):
        with pytest.raises(SystemExit):
            main(argv)
        ours = capsys.readouterr().out
        monkeypatch.setattr(cli._ArgumentParser, "__init__", argparse.ArgumentParser.__init__)
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().out == ours
        assert ours.startswith("usage: frobpde")

    def test_parser_holds_only_the_subcommand_that_runs(self):
        def choices(parser):
            return parser._subparsers._group_actions[0].choices

        assert list(choices(cli.build_parser(["solve", "x.json"]))) == ["solve"]
        catalog_only = choices(cli.build_parser(["catalog", "list"]))
        assert list(catalog_only) == ["catalog"] and list(choices(catalog_only["catalog"])) == ["list"]
        full = cli.build_parser([])
        for argv in golden.CASES.values():
            argv = golden._argv(argv)
            assert cli.build_parser(argv).parse_args(argv) == full.parse_args(argv)

    def test_catalog_missing_param(self, capsys):
        assert main(["catalog", "solve", "bessel_I"]) == 1

    def test_verify(self, tmp_path, capsys):
        assert main(["verify", write(tmp_path, BESSEL)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"]["max_residual"] < 1e-10

    def test_radius(self, tmp_path, capsys):
        payload = dict(BESSEL, order=40)
        assert main(["radius", write(tmp_path, payload)]) == 0
        got = json.loads(capsys.readouterr().out)
        # an entire series reports +inf, which the CLI writes as "inf"
        assert float(got["radius_estimate"]) > 10

    def test_transform_euler(self, capsys):
        code = main(["transform", "euler-coordinates", "1", "0", "0", "1", "-1", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coefficients"][3] == [0, 0]

    def test_transform_prepare(self, capsys):
        code = main(
            ["transform", "prepare-coordinates", "--A", "1+x", "--C", "1", "--order", "6"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["f"][0] == [0, 0, 1, 0]
        assert payload["g"] == [[0, 0, 1, 0]]

    def test_seventeen_digits(self, tmp_path, capsys):
        main(["solve", write(tmp_path, BESSEL)])
        out = capsys.readouterr().out
        assert "-0.00043402777777777775" in out
