"""Every name that a module of the package or of the tests imports is used
in that module; the names `__init__.py` re-exports are exempt."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "frobpde").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by import statements and never read, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in sorted(imported) if name not in used]


@pytest.mark.parametrize("path", [p for p in FILES if p.name != "__init__.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nimport sys\nfrom os import path, sep\nprint(sys.argv, sep)\n") == [
        (1, "math"), (3, "path")]
