"""Every name a package module imports is used in that module, every
private (_name) function or class it defines at module or class level is
referenced in it, and the third-party packages it imports are the ones
pyproject.toml declares.  AST scans of src/quasivis/*.py; __init__.py is
left out of the unused-import scan, since its imports are re-exports."""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quasivis"
PYPROJECT = SRC.parents[1] / "pyproject.toml"
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


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports, anywhere in the module,
    that are neither in the standard library nor the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"quasivis"}


def declared_dependencies(toml: str) -> set[str]:
    """The names in the [project] dependencies list, read by a regex since
    Python 3.10 has no tomllib."""
    block = re.search(r"^dependencies = \[(.*?)\]", toml, re.M | re.S)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))


def test_scan_finds_third_party_imports():
    assert third_party_imports(
        "from __future__ import annotations\nimport json, numpy.linalg\n"
        "from . import cli\nfrom quasivis.cli import main\n"
        "def f():\n    from scipy.spatial import cKDTree\n") \
        == {"numpy", "scipy"}
    assert declared_dependencies(
        'name = "x"\ndependencies = [\n    "numpy>=1.24",\n    "click",\n]\n'
        'test = ["pytest"]\n') == {"numpy", "click"}


def test_imports_match_declared_dependencies():
    used = set().union(*(third_party_imports(p.read_text())
                         for p in SRC.glob("*.py")))
    assert used == declared_dependencies(PYPROJECT.read_text())
