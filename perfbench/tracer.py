"""Spans around calls into quasivis's public functions, installed from the
benchmark's side by rebinding module globals and class attributes.

A span covers one call of a wrapped function, or one ``next()`` of a wrapped
generator.  Per layer the tracer keeps

- ``<layer>.s``      busy time: the union of its outermost spans,
- ``<layer>.self_s`` busy time minus the time of spans nested inside it,
- ``<layer>.calls``  outermost calls (for a generator: generators created),

plus named counters filled from call arguments and results.  Spans are
aggregated as they close, so memory stays flat however many calls a run
makes.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer, kind); kind "class" wraps `attribute` on every
# class of the module that defines it.  Every quasivis module that bound the
# same function object by name is rebound too.
TARGETS = [
    ("quasivis.quadfield", "iter_ring_box", "quadfield.ring_box", "gen"),
    ("quasivis.quadfield", "pair_ideal_norm", "quadfield.gcd", "func"),
    ("quasivis.quadfield", "gcd_is_one", "quadfield.gcd", "func"),
    ("quasivis.quadfield", "moebius", "quadfield.moebius", "func"),
    ("quasivis.quadfield", "dedekind_zeta", "quadfield.zeta", "func"),
    ("quasivis.quadfield", "dedekind_zeta_highprec", "quadfield.zeta", "func"),
    ("quasivis.quadfield", "fundamental_unit", "quadfield.units", "func"),
    ("quasivis.quadfield", "hammarhjelm_witness", "quadfield.units", "func"),
    ("quasivis.regions", "contains_exact", "regions.contains_exact", "class"),
    ("quasivis.lattice", "enumerate_field_points_exact",
     "lattice.enumerate_exact", "gen"),
    ("quasivis.lattice", "box_reduced_basis", "lattice.box_reduce", "func"),
    ("quasivis.cutproject", "visible_fast", "cutproject.visible_fast", "func"),
    ("quasivis.cutproject", "visible_oracle", "cutproject.visible_oracle",
     "func"),
    ("quasivis.counting", "visible_count", "counting.visible_count", "func"),
    ("quasivis.counting", "moebius_count_primitive", "counting.moebius",
     "func"),
    ("quasivis.counting", "random_lattice_experiment", "counting.random",
     "func"),
    ("quasivis.kernels", "count_lattice_points_in_box", "kernels.count_box",
     "func"),
    ("quasivis.holes", "build_crt_hole", "holes.build", "func"),
    ("quasivis.holes", "verify_hole", "holes.verify", "func"),
    ("quasivis.holes", "hole_near_subspace", "holes.search", "func"),
    ("quasivis.svgplot", "svg_scatter", "svgplot", "func"),
    ("quasivis.svgplot", "svg_field_plot", "svgplot", "func"),
]


def _count_points(tracer, item):
    tracer.counters["cutproject.points"] += 1
    if any(item):
        tracer.counters["cutproject.nonzero_points"] += 1


def _count_ring_box(tracer, item):
    tracer.counters["quadfield.ring_box.elements"] += 1


def _count_kernel(tracer, args, result):
    """Preimage-box size and bytes of the U (int64) and X (float64) arrays
    the numpy kernel materializes for it; computed, not measured."""
    basis, lo_u, hi_u = args[0], args[1], args[2]
    box = math.prod(max(0, int(h) - int(lo) + 1) for lo, h in zip(lo_u, hi_u))
    rows, cols = len(basis), len(basis[0])
    tracer.counters["kernels.box_points"] += box
    tracer.counters["kernels.bytes_computed"] += box * 8 * (rows + cols)
    tracer.counters["kernels.counted"] += int(result[0])


ON_ITEM = {"lattice.enumerate_exact": _count_points,
           "quadfield.ring_box": _count_ring_box}
ON_RESULT = {"kernels.count_box": _count_kernel}


class Tracer:
    def __init__(self):
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self._active = Counter()
        self._stack = []  # [layer, start, time of nested spans]

    def enter(self, layer: str, call: bool = True):
        if call and not self._active[layer]:
            self.calls[layer] += 1
        self._active[layer] += 1
        self._stack.append([layer, perf_counter(), 0.0])

    def leave(self):
        layer, start, nested = self._stack.pop()
        dur = perf_counter() - start
        self._active[layer] -= 1
        self.self_s[layer] += dur - nested
        if not self._active[layer]:
            self.busy[layer] += dur
        if self._stack:
            self._stack[-1][2] += dur

    def wrap_func(self, layer: str, fn):
        on_result = ON_RESULT.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if on_result is not None:
                on_result(self, args, result)
            return result
        return wrapper

    def wrap_gen(self, layer: str, fn):
        on_item = ON_ITEM.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active[layer]:
                self.calls[layer] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    self.enter(layer, call=False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    if on_item is not None:
                        on_item(self, item)
                    yield item
            finally:
                it.close()
        return wrapper

    def install(self, cli_module):
        """Wrap every target, and each CLI command as layer ``cli``."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "quasivis" or n.startswith("quasivis.")]
        for mod_name, attr, layer, kind in TARGETS:
            home = sys.modules[mod_name]
            if kind == "class":
                for cls in vars(home).values():
                    if isinstance(cls, type) and cls.__module__ == mod_name \
                            and attr in cls.__dict__:
                        setattr(cls, attr,
                                self.wrap_func(layer, cls.__dict__[attr]))
                continue
            orig = getattr(home, attr)
            wrap = self.wrap_gen if kind == "gen" else self.wrap_func
            new = wrap(layer, orig)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, new)
        for cmd in cli_module.main.commands.values():
            cmd.callback = self.wrap_func("cli", cmd.callback)

    def stats(self) -> dict:
        """Flat raw statistics: <layer>.s, .self_s, .calls and counters."""
        out = dict(self.counters)
        for layer in set(self.busy) | set(self.calls):
            out[f"{layer}.s"] = self.busy[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out["self_total_s"] = sum(self.self_s.values())
        return out
