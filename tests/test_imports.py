"""Every name a package module imports is used in that module, every
private (_name) function or class it defines at module or class level is
referenced in it, every public top-level function or class is reached from
the CLI, the acceptance criteria or the benchmark, every public method of
a reached class is read by name there, every parameter default is
overridden by some caller, and the third-party
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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def top_level_defs(sources) -> list:
    """The top-level def and class nodes of the sources."""
    return [node for source in sources for node in ast.parse(source).body
            if isinstance(node, DEFS)]


def reached_names(sources, roots: set[str]) -> set[str]:
    """The closure of the root names: a name reaches the top-level defs and
    classes of that name, and they reach every name their bodies read
    (methods included); by name, across modules."""
    reads = {}
    for node in top_level_defs(sources):
        reads.setdefault(node.name, set()).update(names_read(node))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += reads.get(name, ())
    return reached


def unreached_public_defs(sources, roots: set[str]) -> list[str]:
    """Public top-level defs and classes of the sources that the root names
    do not reach."""
    reached = reached_names(sources, roots)
    return [node.name for node in top_level_defs(sources)
            if not node.name.startswith("_") and node.name not in reached]


def unread_public_methods(sources, roots: set[str]) -> list[str]:
    """Public methods and properties (Class.name) of the reached top-level
    classes whose name neither a root nor the body of a reached top-level
    def or class reads.  Private methods are the private-def scan's;
    dunder methods count as reached with their class."""
    reached = reached_names(sources, roots)
    read = set(roots)
    for node in top_level_defs(sources):
        if node.name in reached:
            read |= names_read(node)
    return [f"{node.name}.{item.name}" for node in top_level_defs(sources)
            if isinstance(node, ast.ClassDef) and node.name in reached
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_") and item.name not in read]


def test_scan_finds_an_unreached_public_def():
    package = ("def dead(): pass\n"
               "def helper(): pass\n"
               "def command(): return helper()\n"
               "def traced(): pass\n")
    roots = names_read(ast.parse("command()\n")) | names_read(
        ast.parse("TARGETS = [('pkg', 'traced')]\n"), strings=True)
    assert unreached_public_defs([package], roots) == ["dead"]


def test_scan_finds_an_unread_public_method():
    package = ("class Shape:\n"
               "    def __len__(self): return 0\n"
               "    def area(self): return self.side()\n"
               "    def side(self): return 1\n"
               "    @property\n"
               "    def name(self): return 'shape'\n"
               "    def unused(self): pass\n"
               "    def _private(self): pass\n"
               "class Dead:\n"
               "    def gone(self): pass\n"
               "def command(): return Shape().area()\n")
    roots = names_read(ast.parse("command()\nprint(x.name)\n"))
    assert unread_public_methods([package], roots) == ["Shape.unused"]


def unset_defaults(sources, callers, reached: set[str]) -> list[str]:
    """Parameters with a default, of the reached top-level functions and of
    the methods of reached classes (a constructor's are its class's), that
    no call in the callers sets, by position or by keyword; a call with *
    or ** sets them all.  Calls are matched by name: f(...) and x.f(...).
    A default that no caller overrides is one value in use, a constant."""
    found = []
    for node in top_level_defs(sources):
        if node.name not in reached:
            continue
        cls = node.name if isinstance(node, ast.ClassDef) else None
        for fn in (node.body if cls else [node]):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            shift = 1 if cls and not static else 0  # self is not passed
            pos = fn.args.posonlyargs + fn.args.args
            first = len(pos) - len(fn.args.defaults)
            params = [(i - shift, p.arg) for i, p in enumerate(pos)
                      if i >= first]
            params += [(None, p.arg) for p, default
                       in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if default is not None]
            name = cls if fn.name == "__init__" else fn.name
            qual = f"{cls}.{fn.name}" if cls else fn.name
            found += [(qual, name, i, p) for i, p in params]
    calls = {}
    for source in callers:
        for c in ast.walk(ast.parse(source)):
            if isinstance(c, ast.Call):
                f = c.func
                key = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(key, []).append(c)

    def sets(c, i, p):
        return (any(isinstance(a, ast.Starred) for a in c.args)
                or (i is not None and len(c.args) > i)
                or any(k.arg in (p, None) for k in c.keywords))

    return [f"{qual}({p})" for qual, name, i, p in found
            if not any(sets(c, i, p) for c in calls.get(name, ()))]


def test_scan_finds_an_unset_default():
    package = ("def count(xs, tol=1e-9, primitive=False, *, fast=True):\n"
               "    return len(xs)\n"
               "class Plot:\n"
               "    def __init__(self, pts, size=640): pass\n"
               "    @staticmethod\n"
               "    def make(pts, pad=30): return Plot(pts, 320)\n"
               "    def draw(self, scale=1, title=None): pass\n"
               "def unused(k=1): pass\n")
    callers = [package, "count(a, primitive=True)\nPlot.make(b).draw(2)\n"
                        "count(*args)\n"]
    roots = names_read(ast.parse(callers[1]))
    reached = reached_names([package], roots)
    assert unset_defaults([package], callers, reached) == \
        ["Plot.make(pad)", "Plot.draw(title)"]
    callers[1] = callers[1].replace("count(*args)", "count(c, fast=False)")
    assert unset_defaults([package], callers, reached) == \
        ["count(tol)", "Plot.make(pad)", "Plot.draw(title)"]


# Reached by no root but kept: the empirical empty-ball scan stands in for
# the exact hole certificate of ROADMAP item 6, which deletes both together
# with scipy.
UNREACHED_ON_PURPOSE = ["EmptyBallScan", "scan_empty_ball"]


def package_roots() -> set[str]:
    """Every def in cli.py and every name it reads, every name in
    tests/test_acceptance.py, and every name and string in perfbench/*.py."""
    cli = ast.parse((SRC / "cli.py").read_text())
    roots = names_read(cli) | {node.name for node in cli.body
                               if isinstance(node, DEFS)}
    roots |= names_read(ast.parse(
        (REPO / "tests" / "test_acceptance.py").read_text()))
    for path in (REPO / "perfbench").glob("*.py"):
        roots |= names_read(ast.parse(path.read_text()), strings=True)
    return roots


def test_every_public_def_is_reached():
    sources = [(SRC / name).read_text() for name in MODULES]
    assert sorted(unreached_public_defs(sources, package_roots())) == \
        UNREACHED_ON_PURPOSE


def test_every_public_method_is_read():
    sources = [(SRC / name).read_text() for name in MODULES]
    assert unread_public_methods(sources, package_roots()) == []


# Set by tests only: the cover check of the definitional oracle, which no
# root passes (the benchmark and strict_inclusion_witness hand the oracle a
# generate() result that covers every point's segment by construction).
UNSET_ON_PURPOSE = ["visible_oracle(cover)"]


def test_every_default_is_overridden():
    """The callers are the package and the roots' files: cli.py,
    tests/test_acceptance.py and perfbench/*.py."""
    sources = [(SRC / name).read_text() for name in MODULES]
    callers = sources + [(REPO / "tests" / "test_acceptance.py").read_text()]
    callers += [path.read_text() for path in (REPO / "perfbench").glob("*.py")]
    reached = reached_names(sources, package_roots())
    assert unset_defaults(sources, callers, reached) == UNSET_ON_PURPOSE


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
