"""Every name a package module imports is used in that module, every
private (_name) function or class it defines at module or class level is
referenced in it, every public top-level function or class is reached from
the CLI, the acceptance criteria or the benchmark, and the third-party
packages it imports are the ones pyproject.toml declares.  AST scans of
src/quasivis/*.py; __init__.py is left out of the unused-import scan and
of the roots, since its imports are re-exports."""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quasivis"
REPO = SRC.parents[1]
PYPROJECT = REPO / "pyproject.toml"
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


def names_read(tree: ast.AST, strings: bool = False) -> set[str]:
    """Every name and attribute read in the tree, and with strings=True its
    string constants too (the benchmark's tracer names its targets so)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreached_public_defs(sources, roots: set[str]) -> list[str]:
    """Public top-level defs and classes of the sources that the root names
    do not reach.  A name reaches the top-level defs and classes of that
    name, and they reach every name their bodies read (methods included);
    the closure is by name, across modules."""
    reads, public = {}, []
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                reads.setdefault(node.name, set()).update(names_read(node))
                if not node.name.startswith("_"):
                    public.append(node.name)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += reads.get(name, ())
    return [name for name in public if name not in reached]


def test_scan_finds_an_unreached_public_def():
    package = ("def dead(): pass\n"
               "def helper(): pass\n"
               "def command(): return helper()\n"
               "def traced(): pass\n")
    roots = names_read(ast.parse("command()\n")) | names_read(
        ast.parse("TARGETS = [('pkg', 'traced')]\n"), strings=True)
    assert unreached_public_defs([package], roots) == ["dead"]


# Reached by no root but kept: the empirical empty-ball scan stands in for
# the exact hole certificate of ROADMAP item 6, which deletes both together
# with scipy.
UNREACHED_ON_PURPOSE = ["EmptyBallScan", "scan_empty_ball"]


def test_every_public_def_is_reached():
    """Roots: every def in cli.py and every name it reads, every name in
    tests/test_acceptance.py, and every name and string in perfbench/*.py."""
    cli = ast.parse((SRC / "cli.py").read_text())
    roots = names_read(cli) | {node.name for node in cli.body if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    roots |= names_read(ast.parse(
        (REPO / "tests" / "test_acceptance.py").read_text()))
    for path in (REPO / "perfbench").glob("*.py"):
        roots |= names_read(ast.parse(path.read_text()), strings=True)
    sources = [(SRC / name).read_text() for name in MODULES]
    assert sorted(unreached_public_defs(sources, roots)) == \
        UNREACHED_ON_PURPOSE


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
