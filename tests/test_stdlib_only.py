"""The runtime stays stdlib-only: every absolute import in the package names
a standard-library module.  Importing the CLI stays light."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobpde"


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


def test_cli_import_loads_no_heavy_module():
    """`import frobpde.cli` is what every CLI call pays for first: it must not
    pull in dataclasses, inspect, datetime, typing or csv."""
    code = (
        "import sys; before = set(sys.modules); import frobpde.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          check=True, capture_output=True, text=True, timeout=60)
    new = proc.stdout.split()
    assert "frobpde.cli" in new
    assert {"dataclasses", "inspect", "datetime", "typing", "csv"}.isdisjoint(new)
