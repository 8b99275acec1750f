"""Every name that a module of the package or of the tests imports is used
in that module; the names `__init__.py` re-exports are exempt.  Every private
module-level name of the package is read somewhere in the package."""

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


def unread_private_names(sources):
    """(module, name) for each module-level def, class or assignment with one
    leading underscore that no module reads as a loaded name, an attribute or
    an imported name."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [(module, name) for module, name in defined if name not in read]


def test_every_private_helper_is_read():
    sources = {p.name: p.read_text() for p in FILES if p.parent.name == "frobpde"}
    assert unread_private_names(sources) == []


def test_checker_flags_an_unread_private_name():
    sources = {
        "a.py": "_A = 1\n_B, __all__ = 2, []\ndef _f():\n    pass\nclass _C:\n    pass\n",
        "b.py": "from a import _C\nimport a\n_D: int = a._B + a._f()\n",
    }
    assert unread_private_names(sources) == [("a.py", "_A"), ("b.py", "_D")]
