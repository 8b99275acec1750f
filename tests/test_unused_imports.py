"""Every name that a module of the package or of the tests imports is used
in that module; the names `__init__.py` re-exports are exempt.  Every private
module-level name of the package is read somewhere in the package.  Every
parameter default of the package is overridden by some call in the package,
the tests or the benchmark, so no parameter has only one value.  Every
public function and method of the modules the program runs is read by the
package or the benchmark, but for a listed few kept by design.  Every public
instance attribute that the package assigns is read by the package, the
tests or the benchmark.  Only `multiseries` writes the slots of a series,
and the refusal of the table rule and the term of a product are each
written once."""

import ast
from pathlib import Path

import pytest

from helpers import PRODUCT_TERM

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



#: the modules the program runs, whose public functions and methods must each be read
RUNTIME = ("multiseries", "expr_parser", "indicial", "frobenius", "verify", "cli", "catalog")

#: public functions that no code of the package or the benchmark reads, each kept for a reason
UNREAD_BY_DESIGN = {
    "pretty": "the inverse of parse_expr, for a reader of the ASTs; the tests pin the round trip",
    "exp_series": "a series operation on the layer sweep, checked against an exact reference",
    "sqrt_series": "a series operation on the layer sweep, checked against an exact reference",
}


def unread_public_names(sources, defining):
    """(module, name) for each public module-level function and public method
    of a public module-level class in the `defining` modules that no module of
    `sources` reads.  A function is read by a loaded name, an attribute or an
    imported name outside its own body; a method only by an attribute
    outside its own class."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = []  # (name, how, the module-level statement it is read in)
    for tree in trees.values():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.append((node.id, "name", top))
                elif isinstance(node, ast.Attribute):
                    reads.append((node.attr, "attribute", top))
                elif isinstance(node, ast.alias):
                    reads.append((node.name, "name", top))
    unread = []
    for module in defining:
        for top in trees[module].body:
            if isinstance(top, ast.FunctionDef):
                wanted = [(top.name, ("name", "attribute"))]
            elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                wanted = [(fn.name, ("attribute",)) for fn in top.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for name, hows in wanted:
                if not name.startswith("_") and not any(
                        n == name and how in hows and where is not top for n, how, where in reads):
                    unread.append((module, name))
    return unread


def test_every_public_function_is_read():
    # the re-exports of __init__.py name a function, they do not run it
    sources = {p.name: p.read_text() for p in CALLERS
               if p.parent.name in ("frobpde", "bench") and p.name != "__init__.py"}
    unread = unread_public_names(sources, [f"{name}.py" for name in RUNTIME])
    assert {name for _, name in unread} == set(UNREAD_BY_DESIGN)


def test_checker_flags_an_unread_public_name():
    sources = {
        "a.py": (
            "def f():\n    return f()\n"
            "def g():\n    pass\n"
            "def _h():\n    pass\n"
            "class K:\n"
            "    def m(self):\n        return self.m() + self.n()\n"
            "    def n(self):\n        pass\n"
            "    def o(self):\n        pass\n"
            "    def __eq__(self, other):\n        pass\n"
            "class _P:\n    def p(self):\n        pass\n"
        ),
        "b.py": "from a import g\nimport a\nm = 1\na.K().o()\n",
    }
    assert unread_public_names(sources, ["a.py"]) == [("a.py", "f"), ("a.py", "m"), ("a.py", "n")]


def unread_public_attributes(sources, defining):
    """(module, name) for each public attribute that a statement of the
    `defining` modules assigns, as self.X = … or object.__setattr__(obj, "X",
    …), and that no module of `sources` reads as .X outside a statement that
    assigns X."""
    assigned, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        skipped = set()  # ids of this tree's nodes, compared while the tree is alive
        for stmt in ast.walk(tree):
            names = set()
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {t.attr for t in targets if isinstance(t, ast.Attribute)
                         and isinstance(t.value, ast.Name) and t.value.id == "self"}
            elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                if (ast.unparse(call.func) == "object.__setattr__" and len(call.args) == 3
                        and isinstance(call.args[1], ast.Constant)):
                    names = {call.args[1].value}
            if names:
                if module in defining:
                    assigned += [(module, name) for name in sorted(names) if not name.startswith("_")]
                skipped |= {id(node) for node in ast.walk(stmt) if getattr(node, "attr", None) in names}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in skipped}
    return [(module, name) for module, name in dict.fromkeys(assigned) if name not in read]


def test_every_public_attribute_is_read():
    sources = {str(p): p.read_text() for p in CALLERS}
    assert unread_public_attributes(sources, [str(p) for p in FILES if p.parent.name == "frobpde"]) == []


def test_checker_flags_an_unread_public_attribute():
    sources = {
        "a.py": (
            "class K:\n"
            "    def __init__(self, v):\n"
            "        self.a = self.b = v\n"
            "        self._c = v\n"
            "        object.__setattr__(self, 'd', v)\n"
            "        object.__setattr__(self, 'e', v)\n"
            "        self.f = 0\n"
            "        self.f += self.f\n"
            "    def g(self):\n"
            "        return self.b\n"
        ),
        "b.py": "import a\nprint(a.K(1).d, a.K(2)._c)\n",
    }
    assert unread_public_attributes(sources, ["a.py"]) == [("a.py", "a"), ("a.py", "e"), ("a.py", "f")]


#: the slots of a CSeries2, which only multiseries.py writes
SERIES_SLOTS = ("order", "coeffs", "fraction")


def writes_series_slot(node):
    """Whether a node is a __setattr__ or setattr call with a series slot name
    as a constant, or an assignment to an attribute of that name."""
    if isinstance(node, ast.Call):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return (name in ("__setattr__", "setattr") and len(node.args) > 1
                and getattr(node.args[1], "value", None) in SERIES_SLOTS)
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Attribute) and t.attr in SERIES_SLOTS for tt in targets for t in ast.walk(tt))
    return False


def series_slot_writers(sources):
    """(module, qualified function) for each function, outside multiseries.py,
    that writes a series slot, in source order."""
    found = []

    def visit(module, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(module, child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if writes_series_slot(child) and (module, scope) not in found:
                found.append((module, scope))
            visit(module, child, scope)

    for module, source in sources.items():
        if module != "multiseries.py":
            visit(module, ast.parse(source), "")
    return found


def test_only_multiseries_writes_series_slots():
    sources = {p.name: p.read_text() for p in FILES if p.parent.name == "frobpde"}
    assert series_slot_writers(sources) == []
    refusal = "non-finite coefficient {bad!r}"
    assert sum(source.count(refusal) for source in sources.values()) == 1


def test_the_product_loop_has_one_owner():
    sources = [p.read_text() for p in FILES if p.parent.name == "frobpde"]
    assert sum(source.count(PRODUCT_TERM) for source in sources) == 1


def test_checker_flags_a_series_slot_written_outside_multiseries():
    sources = {
        "multiseries.py": "def f(s):\n    object.__setattr__(s, 'order', 1)\n",
        "a.py": (
            "class K:\n"
            "    def __init__(self):\n"
            "        object.__setattr__(self, 'coeffs', {})\n"
            "        object.__setattr__(self, 'r0', 0)\n"
            "def g(s, t):\n"
            "    s._set(1, {})\n"
            "    if s:\n"
            "        t.fraction, u = None, 1\n"
            "def h(s, name):\n"
            "    setattr(s, name, 0)\n"
            "    setattr(s, 'order', 0)\n"
        ),
    }
    assert series_slot_writers(sources) == [("a.py", "K.__init__"), ("a.py", "g"), ("a.py", "h")]
