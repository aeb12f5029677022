"""One iteration of one workload, in a fresh interpreter.

Usage:  python3 perfbench/worker.py SPEC.json

The spec (written by run.py) lists oracle sets and CLI command lines.  The
worker imports quasivis first (set-up: run.py times it from the spawn to the
READY stamp).  It then installs the tracer if asked, runs everything in this
one process, checks the outputs and prints one JSON object on its last
stdout line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

import quasivis.cli
from quasivis import cutproject, kernels, regions
from quasivis.quadfield import field

READY = monotonic()  # set-up ends here; run.py times it from the spawn


class Checks:
    """Tally of correctness checks; keeps the first few failure names."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)


def run_oracle_set(oset: dict) -> dict:
    """generate + visible_fast + visible_oracle on every point of one set."""
    window = regions.region_from_spec(oset["window"])
    desc = cutproject.CPSetDesc(field=field(oset["d"]), d=2, window=window)
    D = regions.region_from_spec(oset["averaging"])
    pts = cutproject.generate(desc, D, Fraction(oset["T"]))
    fast = [cutproject.visible_fast(desc, p) for p in pts]
    oracle = [cutproject.visible_oracle(desc, p, pts) for p in pts]
    return {"fast": fast, "oracle": oracle}


def run_command(argv: list) -> int | str:
    """Run one CLI command in-process; its exit code, or the exception."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            quasivis.cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            return exc.code or 0
        except Exception as exc:  # a crash is a failed check, not a stop
            traceback.print_exc()
            return f"{type(exc).__name__}: {exc}"
    return 0


def _load(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def check_density(cmd: dict, out: Path, checks: Checks) -> dict:
    doc = _load(out / "density.json") or {}
    reports = doc.get("reports", [])
    per_T = []
    for i, T in enumerate(cmd["T_grid"]):
        rep = reports[i] if i < len(reports) else None
        ok = rep is not None and rep["T"] == float(T) and rep["identity_ok"]
        checks.add(f"{cmd['name']}: identity at T={T}", bool(ok))
        if rep is not None:
            per_T.append([rep[k] for k in
                          ("count_vis", "count_pr", "count_pr_inner",
                           "count_all")])
    return {"per_T": per_T}


def check_random(cmd: dict, out: Path, checks: Checks) -> dict:
    doc = _load(out / "random.json") or {}
    res = doc.get("result", {})
    per_T = res.get("per_T", [])
    for i, T in enumerate(cmd["T_grid"]):
        rep = per_T[i] if i < len(per_T) else None
        ok = rep is not None and rep["T"] == float(T) \
            and math.isfinite(rep["mean_density"]) \
            and rep["boundary_ambiguous"] >= 0
        checks.add(f"{cmd['name']}: report at T={T}", bool(ok))
    return {"totals": [res.get("total_count"),
                       res.get("total_boundary_ambiguous")]}


def check_holes(cmd: dict, out: Path, checks: Checks) -> dict:
    doc = _load(out / "holes.json") or {}
    verifs = doc.get("verifications", {})
    for name in ["x0"] + [f"translate_{t}" for t in range(cmd["translates"])]:
        checks.add(f"{cmd['name']}: hole verification {name}",
                   verifs.get(name) is True)
    hole = doc.get("hole", {})
    return {"N": hole.get("N"), "x0": hole.get("x0"),
            "subspace": doc.get("subspace_search")}


def check_files(cmd: dict, out: Path, checks: Checks) -> dict:
    for name in cmd.get("files", []):
        path = out / name
        checks.add(f"{cmd['name']}: wrote {name}",
                   path.is_file() and path.stat().st_size > 0)
    return {}


CHECKERS = {"density": check_density, "random": check_random,
            "holes": check_holes, "files": check_files}


def environment() -> dict:
    import platform

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "kernel_backend": kernels.backend_name()}


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if spec["trace"]:
        from tracer import Tracer  # this script's directory is on sys.path
        tracer = Tracer()
        tracer.install(quasivis.cli)

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    oracle_runs = [run_oracle_set(oset) for oset in spec["oracle_sets"]]
    codes = [run_command(cmd["argv"]) for cmd in spec["commands"]]
    wall = perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    checks = Checks()
    for oset, res in zip(spec["oracle_sets"], oracle_runs):
        for k, (f, o) in enumerate(zip(res["fast"], res["oracle"])):
            checks.add(f"oracle d={oset['d']} {oset['window']['kind']} "
                       f"point {k}", f == o)
    values = {}
    for cmd, code in zip(spec["commands"], codes):
        checks.add(f"{cmd['name']}: exit code {code}", code == 0)
        values[cmd["name"]] = CHECKERS[cmd["check"]](
            cmd, Path(cmd["out"]), checks)
    result = {
        "ready": READY,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "values": values,
        "env": environment(),
        "trace": tracer.stats() if tracer is not None else None,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
