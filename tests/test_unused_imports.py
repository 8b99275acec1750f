"""Every name that a module of the package or of the tests imports is used
in that module; the names `__init__.py` re-exports are exempt.  Every private
module-level name of the package is read somewhere in the package.  Every
parameter default of the package is overridden by some call in the package,
the tests or the benchmark, so no parameter has only one value."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "frobpde").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
CALLERS = FILES + sorted((ROOT / "bench").glob("*.py"))


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


def unset_defaults(defining, calling):
    """(module, function, parameter) for each parameter with a default in the
    `defining` sources that no call in the `calling` sources sets, by keyword
    or by position.  A call matches every definition of its name, a call to
    a class counts for the class's __init__ and __new__, and a call with a
    * or ** argument sets every parameter."""
    calls = {}  # callee name -> [(positional count, keywords)], None for all
    for source in calling.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append(None if starred or None in keywords else (len(node.args), keywords))
    unset = []
    for module, source in defining.items():
        tree = ast.parse(source)
        owner = {fn: cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(fn)
            name = cls.name if cls and fn.name in ("__init__", "__new__") else fn.name
            bound = cls is not None and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][bound:]
            defaults = [(p, i) for i, p in enumerate(positional) if i >= len(positional) - len(fn.args.defaults)]
            defaults += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            for param, index in defaults:
                if not any(c is None or param in c[1] or (index is not None and index < c[0])
                           for c in calls.get(name, [])):
                    unset.append((module, fn.name, param))
    return unset


def test_every_default_is_set_by_some_call():
    defining = {p.name: p.read_text() for p in FILES if p.parent.name == "frobpde"}
    calling = {str(p): p.read_text() for p in CALLERS}
    assert unset_defaults(defining, calling) == []


def test_checker_flags_a_default_no_call_sets():
    defining = {"a.py": (
        "def f(x, y=1, *, z=2):\n    pass\n"
        "def g(x=0):\n    pass\n"
        "class K:\n    def __init__(self, u=1, v=2):\n        pass\n    def m(self, w=3):\n        pass\n"
    )}
    calling = {"b.py": "f(0, 1)\nK(5)\nK().m(w=4)\ng(*args)\n"}
    assert unset_defaults(defining, calling) == [("a.py", "f", "z"), ("a.py", "__init__", "v")]
