"""Static hygiene of the library: no module under src/liecograph imports a
name it never uses, no private module-level helper is left without a caller,
the free-Lie normal form never calls its own oracle, no true division can
turn int coefficients into a float, no module imports numpy or names a
float, and every name the benchmark tracer rebinds still exists.  Standard-library ast only, so it needs no linter."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "liecograph"


def unused_imports(source):
    """(line, name) of every imported binding the module never reads.  Names
    listed in __all__ count as read (they are re-exported)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                if a.name != "*":
                    imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_flags_unused_and_keeps_used():
    src = ("import os\nimport a.b\nfrom x import y, z as w\n"
           "from q import r\n__all__ = ['r']\nw(a.b)\n")
    assert unused_imports(src) == [(1, "os"), (3, "y")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source):
    """(name, first line, last line) of every module-level private function
    or class (one leading underscore, not a dunder)."""
    return [(node.name, node.lineno, node.end_lineno)
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def unreferenced_helpers(sources):
    """module:name of every private helper whose name appears nowhere in the
    given {module: source} texts outside its own definition."""
    dead = []
    for module, source in sources.items():
        lines = source.splitlines()
        for name, first, last in private_definitions(source):
            rest = "\n".join(lines[:first - 1] + lines[last:])
            others = [text for m, text in sources.items() if m != module]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in [rest] + others):
                dead.append(f"{module}:{name}")
    return sorted(dead)


def test_dead_helper_checker():
    sources = {"a": "def _used():\n    return _used()\n\n"
                    "def _dead():\n    return _dead()\n\nx = _used\n",
               "b": "class _Shared:\n    pass\n",
               "c": "from a import _Shared\n"}
    assert unreferenced_helpers(sources) == ["a:_dead"]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_helpers(sources) == []


ORACLE = {"tensor_expand", "_expand_term"}


def oracle_callers(source):
    """Names of the functions and methods, other than the oracle's own, that
    name tensor_expand or _expand_term."""
    return sorted(
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.name not in ORACLE
        and any(getattr(n, "id", getattr(n, "attr", None)) in ORACLE
                for n in ast.walk(node)))


def test_oracle_checker():
    src = ("def tensor_expand(x):\n    return _expand_term(x)\n\n"
           "def _expand_term(k):\n    return _expand_term(k)\n\n"
           "def lie_normal_form(t):\n    f = tensor_expand\n    return f\n\n"
           "class E:\n    def nf(self):\n        return m._expand_term\n")
    assert oracle_callers(src) == ["lie_normal_form", "nf"]


def test_normal_form_does_not_use_its_oracle():
    """tensor_expand checks lie_normal_form in the tests; no other function
    of liealg may reach it."""
    assert oracle_callers((SRC / "liealg.py").read_text(
        encoding="utf-8")) == []


def test_traced_names_resolve():
    """perfbench/tracing.py rebinds the (module, attribute) pairs of its SPANS
    table by name; read it as data, without importing it, and check that
    each still resolves (a method must be in its class's own __dict__)."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    spans, = (ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["SPANS"])
    missing = []
    for module, attr, _ in spans:
        mod = importlib.import_module(f"liecograph.{module}")
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}.{attr}")
    assert missing == []


def true_divisions(source):
    """Line numbers of every `/` or `/=` whose left operand is not a
    Fraction(...) call.  On two ints, / is a float division, so an exact
    quotient must start from a Fraction."""
    def exact(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id",
                            getattr(node.func, "attr", None)) == "Fraction")
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and not exact(node.left))
        or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div)))


def test_true_division_checker():
    src = ("q = lhs / rhs\nr = Fraction(lhs) / rhs\n"
           "s = fractions.Fraction(1) / 3\nt = a // b\nu = Fraction(a / b)\n"
           "v = 1\nv /= 2\n")
    assert true_divisions(src) == [1, 5, 7]


def test_no_true_division():
    """Coefficients are ints where the maths is integral; no quotient in the
    library may turn two of them into a float."""
    found = {p.name: true_divisions(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def float_sources(source):
    """(line, what) of every numpy import, every use of the name float and
    every float literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "numpy"]
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"):
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, repr(node.value)))
    return sorted(found)


def test_float_source_checker():
    src = ("import numpy as np\nfrom numpy.linalg import matrix_rank\n"
           "import numbers\nx = float(y)\nz = 0.5 * w\n"
           "ok = isinstance(v, Fraction)\n'float'\n")
    assert float_sources(src) == [(1, "numpy"), (2, "numpy.linalg"),
                                  (4, "float"), (5, "0.5")]


def test_no_numpy_and_no_float():
    """The library computes over Q in ints and Fractions alone: exactness
    needs no magnitude bound on a float, and nothing imports numpy."""
    found = {p.name: float_sources(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
