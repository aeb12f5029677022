"""Every name a package module imports is used in that module, and every
private (_name) function or class it defines at module or class level is
referenced in it.  AST scans of src/quasivis/*.py; __init__.py is left out
of the import scan, since its imports are re-exports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quasivis"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read as a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def unreferenced_private_defs(source: str) -> list[str]:
    """Private defs and classes at module or class level (dunders aside)
    whose name is never read as a name or an attribute in the module."""
    tree = ast.parse(source)
    defs, bodies = [], [tree.body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defs.append(name)
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [name for name in defs if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nimport os as o\n"
                          "from a.b import c, e\nprint(c, math.pi)\n") \
        == ["o", "e"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((SRC / name).read_text()) == []


def test_scan_finds_an_unreferenced_private_def():
    source = ("def _dead(): pass\n"
              "def _used(): pass\n"
              "class _Kept:\n"
              "    def _gone(self): pass\n"
              "    def _called(self): pass\n"
              "    def __len__(self): return 0\n"
              "    def run(self):\n"
              "        def _nested(): pass\n"
              "        return self._called()\n"
              "_used(); _Kept().run()\n")
    assert unreferenced_private_defs(source) == ["_dead", "_gone"]


@pytest.mark.parametrize("name", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unreferenced_private_defs(name):
    assert unreferenced_private_defs((SRC / name).read_text()) == []
