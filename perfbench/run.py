"""quasivis benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload density_direct --seed 3 \
        --seconds 25 --trace 0

Each workload iteration runs in a fresh interpreter (perfbench/worker.py):
quasivis.cli is imported first (setup_s is the time from the spawn to the
end of that import), then the workload's commands run in that one process
(wall_s, cpu_s, peak_rss_mb).  Iterations repeat for about --seconds and the
medians are reported.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json; --trace 1 alternates untraced and traced iterations and
prints the per-layer metrics (layers.json says how each is derived).

The last stdout line is one JSON object: correct, attempted, failed
(correctness checks over all iterations) and metrics.  Lines before it are a
readable report, including fail_rate and the environment record; the same
record goes to .perfbench_work/results/.  Exit code 2 means the source tree
is missing, 1 that a worker crashed; neither prints a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("density_direct", "density_moebius", "random_float",
             "visibility_holes")

# T grid of configs/density.json; each density workload runs it scaled.
DENSITY_SHAPE = (50, 100, 180, 300, 400, 500)
CUBE2 = {"kind": "cube", "half_width": 1, "dim": 2}
SQUARE = {"kind": "square", "half_width": 1}
OCTAGON = {"kind": "octagon", "half_width": 1}

# Workload sizes.  "full" is what the benchmark measures (about 3-5 s per
# iteration on 2 cores); "tiny" exists for the benchmark's own tests.
SIZES = {
    "full": {"direct_scale": Fraction(1, 5), "moebius_scale": Fraction(1, 10),
             "random_T": [10, 20, 35, 56], "random_samples": 80,
             "vis_T": 20, "hc_max": 100, "budget": 1_000_000, "plot_T": 20},
    "tiny": {"direct_scale": Fraction(1, 50), "moebius_scale": Fraction(1, 50),
             "random_T": [5, 8], "random_samples": 2,
             "vis_T": 4, "hc_max": 10, "budget": 1000, "plot_T": 4},
}


class BenchError(RuntimeError):
    pass


def _t_grid(scale: Fraction, seed: int) -> list[float]:
    """The scaled density grid, each T raised by a seeded jitter in (0, 1/2).
    Seeds give different point sets whose sizes agree within about 1%.  The
    jitter always has denominator exactly 64 (odd numerator), because the
    cost of the exact Fraction arithmetic depends on that denominator."""
    rng = random.Random(seed)
    return [float(Fraction(t) * scale
                  + Fraction(2 * rng.randrange(16) + 1, 64))
            for t in DENSITY_SHAPE]


def make_spec(workload: str, seed: int, size: str, run_dir: Path) -> dict:
    """Worker spec for one workload: oracle sets and CLI commands, with the
    config files they read written into run_dir."""
    sz = SIZES[size]
    pseed = seed % (1 << 31)
    cfg_dir = run_dir / "inputs"
    cfg_dir.mkdir(parents=True, exist_ok=True)

    def config(name: str, doc: dict) -> str:
        path = cfg_dir / name
        path.write_text(json.dumps(doc, indent=1))
        return str(path)

    def out(name: str) -> str:
        return str(run_dir / "out" / name)

    oracle_sets, commands = [], []
    if workload in ("density_direct", "density_moebius"):
        direct = workload == "density_direct"
        grid = _t_grid(sz["direct_scale" if direct else "moebius_scale"], seed)
        cfg = config("density.json", {
            "d": 2 if direct else 5, "dim": 2, "window": SQUARE,
            "averaging": CUBE2, "T_grid": grid, "method": "direct"})
        commands.append({
            "name": "density", "check": "density", "T_grid": grid,
            "out": out("density"),
            "argv": ["density", "--config", cfg, "--out", out("density"),
                     "--method", "direct" if direct else "both"]})
    elif workload == "random_float":
        cfg = config("random.json", {
            "n": 3, "d": 2, "window": {"kind": "cube", "half_width": 1,
                                       "dim": 1},
            "omega": CUBE2, "T_grid": sz["random_T"],
            "samples": sz["random_samples"], "seed": 12345})
        commands.append({
            "name": "random", "check": "random", "T_grid": sz["random_T"],
            "out": out("random"),
            "argv": ["random", "--config", cfg, "--seed", str(pseed),
                     "--out", out("random")]})
    elif workload == "visibility_holes":
        for d in (2, 5):
            for window in (SQUARE, OCTAGON):
                oracle_sets.append({"d": d, "window": window,
                                    "averaging": CUBE2, "T": str(sz["vis_T"])})
        plot_cfg = config("plot.json", {
            "d": 2, "dim": 2, "window": SQUARE, "averaging": CUBE2,
            "T": sz["plot_T"]})
        commands += [
            {"name": "check-hc", "check": "files", "out": out("check-hc"),
             "argv": ["check-hc", "2", str(sz["hc_max"])]},
            {"name": "holes", "check": "holes", "translates": 5,
             "out": out("holes"),
             "argv": ["holes", "--n", "2", "--a", "1", "--subspace",
                      "1,1.41421356", "--budget", str(sz["budget"]),
                      "--seed", str(pseed), "--out", out("holes")]},
            {"name": "plot", "check": "files", "out": out("plot"),
             "files": ["points.svg", "points.csv"],
             "argv": ["plot", "--config", plot_cfg, "--out", out("plot")]},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "oracle_sets": oracle_sets,
            "commands": commands}


def reference_checks(values: dict, reference: dict) -> tuple[int, int, list]:
    """Compare exact integers with reference values: one check per per-T
    report, one per other recorded value.  Returns (attempted, failed,
    failure names)."""
    attempted, failed, names = 0, 0, []
    for cmd, ref in reference.items():
        got = values.get(cmd, {})
        for key, want in ref.items():
            if key == "per_T":
                have = got.get("per_T", [])
                pairs = [(f"{cmd}: reference counts at T index {i}",
                          i < len(have) and have[i] == w)
                         for i, w in enumerate(want)]
            else:
                pairs = [(f"{cmd}: reference {key}", got.get(key) == want)]
            for name, ok in pairs:
                attempted += 1
                if not ok:
                    failed += 1
                    names.append(name)
    return attempted, failed, names


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    env.pop("QUASIVIS_THREADS", None)
    return env


def run_iteration(spec: dict, trace: bool, iter_dir: Path, env: dict,
                  timeout: float = 170.0) -> dict:
    spec = dict(spec, trace=trace)
    iter_dir.mkdir(parents=True, exist_ok=True)
    spec_path = iter_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    it = json.loads(lines[-1])
    it["setup_s"] = it.pop("ready") - spawned
    return it


def warm_up(env: dict):
    """Import quasivis.cli once, untimed: it compiles the bytecode a fresh
    checkout lacks, and fails early when the package cannot be imported."""
    try:
        subprocess.run([sys.executable, "-c", "import quasivis.cli"],
                       cwd=ROOT, env=env, check=True, timeout=120,
                       capture_output=True)
    except subprocess.SubprocessError as exc:
        raise BenchError(f"importing quasivis.cli failed: {exc}") from exc


def _raw(stats: dict, key: str) -> float:
    return float(stats.get(key, 0))


def layer_values(layers: list, stats: dict) -> dict:
    """Per-layer metric values of one traced iteration."""
    out = {}
    for m in layers:
        if m.get("from") == "run":
            continue
        if "ratio" in m:
            num, den = (_raw(stats, k) for k in m["ratio"])
            out[m["name"]] = num / den if den else 0.0
        else:
            out[m["name"]] = _raw(stats, m.get("from", m["name"]))
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", reference: dict | None = None) -> dict:
    """Measure one workload; returns the result record (metrics, checks,
    per-iteration data)."""
    env = worker_env()
    run_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        spec = make_spec(workload, seed, size, run_dir)
        warm_up(env)
        plan = [False, True] if trace else [False]
        iters = []
        deadline = perf_counter() + seconds
        while True:
            start = perf_counter()
            plan.reverse()  # traced and untraced take turns going first
            for traced in plan:
                k = len(iters)
                it = run_iteration(spec, traced, run_dir / f"it{k}", env)
                it["traced"] = traced
                shutil.rmtree(run_dir / f"it{k}", ignore_errors=True)
                iters.append(it)
            # stop when one more round would end past the deadline by more
            # than half a round, so a run lasts about --seconds on average
            now = perf_counter()
            if now + (now - start) / 2 >= deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(it["attempted"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    failures = [f for it in iters for f in it["failures"]]
    if reference:
        for it in iters:
            a, f, names = reference_checks(it["values"], reference)
            attempted += a
            failed += f
            failures += names

    plain = [it for it in iters if not it["traced"]]
    record = {"workload": workload, "seed": seed, "size": size,
              "trace": int(trace), "iterations": len(iters),
              "attempted": attempted, "failed": failed,
              "fail_rate": failed / attempted, "failures": failures[:20],
              "iteration_data": [{k: it[k] for k in
                                  ("wall_s", "setup_s", "cpu_s",
                                   "peak_rss_mb", "traced")}
                                 for it in iters],
              "env": dict(iters[0]["env"], **host_env(), seed=seed)}
    if trace:
        layers = json.loads((HERE / "layers.json").read_text())
        traced = [it for it in iters if it["traced"]]
        per_iter = [layer_values(layers, it["trace"]) for it in traced]
        metrics = {name: statistics.median(v[name] for v in per_iter)
                   for name in per_iter[0]}
        metrics["trace_overhead_s"] = (
            statistics.median(it["wall_s"] for it in traced)
            - statistics.median(it["wall_s"] for it in plain))
        metrics["unattributed_s"] = statistics.median(
            it["wall_s"] - it["trace"]["self_total_s"] for it in traced)
        record["metrics"] = metrics
        record["raw_trace"] = traced[0]["trace"]
    else:
        record["metrics"] = {
            "wall_s": statistics.median(it["wall_s"] for it in plain),
            "setup_s": statistics.median(it["setup_s"] for it in plain),
            "cpu_s": statistics.median(it["cpu_s"] for it in plain),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"]
                                             for it in plain),
        }
    return record


def host_env() -> dict:
    """Machine and code identity: cores, git commit (when the checkout is a
    git repository) and a hash of the source tree."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "quasivis").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": h.hexdigest()}


def load_reference(workload: str, seed: int) -> dict | None:
    """Exact integers recorded at the seed commit, for seed 0 only."""
    if seed != 0:
        return None
    return json.loads((HERE / "reference.json").read_text())[workload]


def print_report(record: dict, declared: list) -> dict:
    env = record["env"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} iterations={record['iterations']}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    metrics = {}
    for m in declared:
        value = record["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<34} {value:.6g} {m['unit']}")
    print(f"  {'fail_rate':<34} {record['fail_rate']:.6g} "
          f"({record['failed']}/{record['attempted']} checks)")
    for name in record["failures"]:
        print(f"  FAILED: {name}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quasivis" / "cli.py").is_file():
        print(f"perfbench: no quasivis source tree at {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace),
                              reference=load_reference(args.workload,
                                                       args.seed))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = print_report(record, declared)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
