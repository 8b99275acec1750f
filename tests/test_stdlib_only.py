"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module.  Importing the CLI stays light: each subcommand
loads `catalog`, `euler` and `verify` only when it uses them, which fresh
interpreters check, since the test modules themselves import all three."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import test_golden_cli as golden

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frobpde"


def run_python(*args):
    """A fresh interpreter that finds the package under src/."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, timeout=60)


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    foreign = [name for name in absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


#: the modules that only the subcommands that use them import
LAZY_MODULES = {"frobpde.catalog", "frobpde.euler", "frobpde.verify"}


def test_cli_import_loads_no_heavy_module():
    """`import frobpde.cli` is what every CLI call pays for first: it must not
    pull in dataclasses, inspect, datetime, typing or csv, nor the catalog,
    Euler and verify modules that only some subcommands use."""
    code = (
        "import sys; before = set(sys.modules); import frobpde.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    new = proc.stdout.decode().split()
    assert "frobpde.cli" in new
    heavy = {"dataclasses", "inspect", "datetime", "typing", "csv", *LAZY_MODULES}
    assert heavy.isdisjoint(new)


#: golden case -> the lazily imported modules its subcommand loads
LAZY_CASES = {
    "catalog_list": {"frobpde.catalog"},
    "catalog_bessel_I": {"frobpde.catalog"},
    "euler_heat": {"frobpde.euler"},
    "transform_euler_to_constant": {"frobpde.euler"},
    "transform_prepare": set(),
    "bessel.solve": set(),
    "bessel.verify": {"frobpde.verify"},
}


@pytest.mark.parametrize("case", sorted(LAZY_CASES))
def test_cli_module_run_matches_golden(case):
    """`python -m frobpde.cli`, as a user or the benchmark runs it, prints the
    golden stdout and loads only the lazy modules its subcommand needs."""
    proc = run_python("-X", "importtime", "-m", "frobpde.cli", *golden._argv(golden.CASES[case]))
    assert proc.returncode == json.loads(golden.CODES.read_text())[case], proc.stderr
    assert proc.stdout == (golden.EXPECTED / f"{case}.out").read_bytes()
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.decode().splitlines()}
    assert imported & LAZY_MODULES == LAZY_CASES[case]


def test_readme_imports_work_in_a_fresh_interpreter():
    """The catalog and Euler modules are imported by name, as the README shows."""
    readme = (ROOT / "README.md").read_text()
    imports = re.findall(r"^from frobpde\S* import (?:\([^)]*\)|.*)$", readme, re.MULTILINE)
    assert "from frobpde import catalog" in imports
    proc = run_python("-c", "\n".join(imports))
    assert proc.returncode == 0, proc.stderr
