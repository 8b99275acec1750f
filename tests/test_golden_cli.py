"""Golden CLI outputs: the stdout and exit code of `cli.main` for every
subcommand, compared byte for byte with the files in tests/golden/expected.
The help and usage cases pin stderr too, in `<case>.err`, with argparse
wrapping its help at COLUMNS=80.

The problem files live in tests/golden/problems.  To regenerate the
expected files after an intended change of output, run
`PYTHONPATH=src python tests/test_golden_cli.py` and review the diff.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from frobpde.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = GOLDEN / "problems"
EXPECTED = GOLDEN / "expected"
CODES = EXPECTED / "exit_codes.json"

_PER_PROBLEM = {
    "solve": ["solve"],
    "solve_csv": ["solve", "--format", "csv"],
    "verify": ["verify"],
    "verify_csv": ["verify", "--format", "csv"],
    "radius": ["radius"],
    "scan": ["scan-resonance"],
    "scan_csv": ["scan-resonance", "--format", "csv"],
    "classify": ["classify"],
}

_SKIP = ["--resonance-policy", "skip_removable"]


def _cases():
    """Case name -> argv, with problem files named relative to PROBLEMS."""
    cases = {}
    for problem in sorted(PROBLEMS.glob("*.json")):
        for suffix, argv in _PER_PROBLEM.items():
            cases[f"{problem.stem}.{suffix}"] = [argv[0], problem.name, *argv[1:]]
    for name in ("disturbed_heat", "disturbed_heat_40", "resonant"):
        for suffix in ("solve", "solve_csv", "verify", "verify_csv", "radius"):
            argv = _PER_PROBLEM[suffix]
            cases[f"{name}.skip_removable.{suffix}"] = [argv[0], f"{name}.json", *argv[1:], *_SKIP]
    cases.update({
        "catalog_list": ["catalog", "list"],
        "catalog_bessel_I": ["catalog", "solve", "bessel_I", "--param", "nu=0", "--order", "12",
                             "--point", "0,0"],
        "catalog_bessel_I_csv": ["catalog", "solve", "bessel_I", "--param", "nu=0", "--order", "12",
                                 "--point", "0,0", "--format", "csv"],
        "catalog_legendre_II": ["catalog", "solve", "legendre_II", "--param", "lam=0.7",
                                "--order", "16"],
        "catalog_disturbed_heat": ["catalog", "solve", "disturbed_heat", "--param", "a=1",
                                   "--order", "10"],
        "catalog_airy_I_csv": ["catalog", "solve", "airy_I", "--order", "15", "--format", "csv"],
        "euler_heat": ["euler", "1", "0", "0", "1", "-1", "0"],
        "euler_parabolic": ["euler", "1", "2", "1", "0.5", "-0.3", "0.2"],
        "euler_hyperbolic": ["euler", "2", "0", "-1", "1", "1", "0"],
        "transform_euler_to_constant": ["transform", "euler-coordinates", "1", "0", "0", "1", "-1", "0"],
        "transform_euler_to_euler": ["transform", "euler-coordinates", "1", "2", "1", "0.5", "-0.3",
                                     "0.2", "--direction", "to_euler"],
        "transform_prepare": ["transform", "prepare-coordinates", "--A", "1+x", "--C", "1-y/2",
                              "--order", "12"],
        "transform_prepare_rational": ["transform", "prepare-coordinates", "--A", "2/(1-x) + x^2",
                                       "--C", "1 + y + y^3", "--order", "10"],
    })
    return cases


CASES = _cases()

#: help and usage cases; "x.json" is never opened, since parsing fails first
USAGE_CASES = {
    "usage.help": ["--help"],
    "usage.h": ["-h"],
    "usage.none": [],
    "usage.bogus": ["bogus"],
    "usage.bogus_option": ["--bogus"],
    **{f"usage.help_{command.replace('-', '_')}": [command, "--help"]
       for command in ("classify", "solve", "scan-resonance", "euler", "catalog", "verify", "transform", "radius")},
    "usage.help_catalog_list": ["catalog", "list", "--help"],
    "usage.help_catalog_solve": ["catalog", "solve", "--help"],
    "usage.catalog": ["catalog"],
    "usage.catalog_bogus": ["catalog", "bogus"],
    "usage.catalog_solve": ["catalog", "solve"],
    "usage.catalog_list_bogus_option": ["catalog", "list", "--bogus"],
    "usage.catalog_solve_order_not_int": ["catalog", "solve", "bessel_I", "--order", "x"],
    "usage.solve": ["solve"],
    "usage.solve_bogus_option": ["solve", "x.json", "--bogus"],
    "usage.solve_format_xml": ["solve", "x.json", "--format", "xml"],
    "usage.euler_two_numbers": ["euler", "1", "2"],
    "usage.transform_bogus": ["transform", "bogus"],
    "usage.classify_meta_bogus_option": ["classify", "x.json", "--meta", "--bogus"],
}


def _argv(argv):
    return [str(PROBLEMS / a) if a.endswith(".json") else a for a in argv]


def run_case(name):
    """(exit code, stdout) of one golden case."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_argv(CASES[name]))
    return code, out.getvalue()


def run_usage_case(name):
    """(exit status, stdout, stderr) of one usage case; --help ends in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(USAGE_CASES[name])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    code, got = run_case(name)
    assert code == json.loads(CODES.read_text())[name]
    assert got.encode("utf-8") == (EXPECTED / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", sorted(USAGE_CASES))
def test_golden_usage(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_usage_case(name)
    assert code == json.loads(CODES.read_text())[name]
    assert out.encode("utf-8") == (EXPECTED / f"{name}.out").read_bytes()
    assert err.encode("utf-8") == (EXPECTED / f"{name}.err").read_bytes()


def test_no_stale_expected_files():
    assert {p.stem for p in EXPECTED.glob("*.out")} == set(CASES) | set(USAGE_CASES)
    assert {p.stem for p in EXPECTED.glob("*.err")} == set(USAGE_CASES)
    assert set(json.loads(CODES.read_text())) == set(CASES) | set(USAGE_CASES)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    codes = {}
    for case in sorted(CASES):
        codes[case], stdout = run_case(case)
        (EXPECTED / f"{case}.out").write_bytes(stdout.encode("utf-8"))
    for case in sorted(USAGE_CASES):
        codes[case], stdout, stderr = run_usage_case(case)
        (EXPECTED / f"{case}.out").write_bytes(stdout.encode("utf-8"))
        (EXPECTED / f"{case}.err").write_bytes(stderr.encode("utf-8"))
    CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
