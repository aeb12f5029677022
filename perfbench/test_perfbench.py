"""Tests of the benchmark itself, on tiny workload sizes.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


def test_benchmark_json_names_and_units_are_well_formed():
    entries = BENCH["workloads"] + BENCH["end_to_end"] + BENCH["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    for e in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", e["unit"])
    for w in BENCH["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    setup = next(e for e in BENCH["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in BENCH["end_to_end"])


def test_benchmark_json_matches_layer_table():
    assert BENCH["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in LAYERS]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    for m in LAYERS:
        assert set(m["on"]) | set(m["flat_on"]) <= set(run.WORKLOADS)
        assert set(m["moves"]) <= {e["name"] for e in BENCH["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    record = run.run_workload(workload, seed=0, seconds=0, trace=bool(trace),
                              size="tiny")
    declared = BENCH["per_layer" if trace else "end_to_end"]
    metrics = run.print_report(record, declared)
    assert list(metrics) == [m["name"] for m in declared]
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], float)
    assert record["failed"] == 0 and record["attempted"] > 0
    if not trace:
        assert all(metrics[m["name"]]["value"] > 0 for m in declared)
    elif workload == "density_direct":
        # the count loop and the cross-check loop each test every point
        assert metrics["quadfield.gcd.calls_per_point"]["value"] == 2.0


def test_wrong_reference_count_fails():
    wrong = {"density": {"per_T": [[-1, 0, 0, 0]]}}
    record = run.run_workload("density_direct", seed=0, seconds=0,
                              trace=False, size="tiny", reference=wrong)
    assert record["fail_rate"] > 0
    assert record["failures"] == ["density: reference counts at T index 0"]


def test_recorded_reference_covers_every_workload():
    ref = json.loads((HERE / "reference.json").read_text())
    assert set(ref) == set(run.WORKLOADS)
    assert len(ref["density_direct"]["density"]["per_T"]) == \
        len(run.DENSITY_SHAPE)


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "density_direct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
