"""The package names the benchmark binds: every tracer target in
perfbench/tracer.py and every package name perfbench/worker.py reads must
resolve, so that deleting one fails here before it crashes a benchmark
run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def _resolve(path: str):
    """The object at a dotted path, importing modules along the way."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, name in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, name)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def quasivis_references(source: str) -> set[str]:
    """Dotted paths of the package names the source imports, and of the
    attributes it reads off them (cutproject.generate, ...)."""
    tree = ast.parse(source)
    local = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "quasivis":
                    local["quasivis"] = "quasivis"
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "quasivis":
            for a in node.names:
                local[a.asname or a.name] = f"{node.module}.{a.name}"
    refs = set(local.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in local:
            refs.add(".".join([local[node.id], *chain]))
    return refs


@pytest.mark.parametrize("module,attr,layer,kind", _tracer_targets())
def test_tracer_target_resolves(module, attr, layer, kind):
    mod = importlib.import_module(module)
    if kind == "class":  # the tracer wraps attr on each class defining it
        assert any(isinstance(c, type) and c.__module__ == module
                   and attr in c.__dict__ for c in vars(mod).values())
    else:
        assert callable(getattr(mod, attr))


def test_worker_references_resolve():
    refs = quasivis_references((BENCH / "worker.py").read_text())
    assert {"quasivis.cutproject.generate", "quasivis.cutproject.visible_fast",
            "quasivis.cutproject.visible_oracle",
            "quasivis.regions.region_from_spec",
            "quasivis.kernels.backend_name", "quasivis.cli.main"} <= refs
    for path in sorted(refs):
        _resolve(path)
