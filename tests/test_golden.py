"""Byte-for-byte regression against the recorded runs in golden/, listed in
RUNS.  After an intended change to an output, re-record it with its run's
argv and say in the change which bytes moved and why."""

import filecmp
import os
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

import pytest
from click.testing import CliRunner

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# argv runs from the repo root; it writes goldens (paths under golden/) to
# --out, and stdout is the golden of its standard output
Run = namedtuple("Run", "name argv goldens stdout env", defaults=(None, {}))


def density(name, config=None, method="both"):
    config = config or f"tests/golden/{name}/config.json"
    return Run(name, f"density --config {config} --method {method}",
               (f"{name}/density.csv", f"{name}/density.json"))


OCTAGON = "plot_d5_octagon_disc"
RANDOM = "random --config configs/random.json --seed 7"
RUNS = [
    Run("plot", "plot --config configs/plot.json",  # square window, box set
        ("points.csv", "points.svg")),
    # an octagon window and a disc averaging set in Q(sqrt5)^2
    Run(OCTAGON, f"plot --config tests/golden/{OCTAGON}/config.json",
        (f"{OCTAGON}/points.csv", f"{OCTAGON}/points.svg")),
    Run("field_d2", "plot --field 2", ("field_d2.svg",)),  # the ring Z[sqrt2]
    Run("field_d5", "plot --field 5", ("field_d5.svg",)),  # half-integers
    # lambda lies past the plotted range, so the unit box is clipped
    Run("field_d94", "plot --field 94", ("field_d94.svg",)),
    # the unit-box criterion on every field in range, on stdout
    Run("check_hc_2_100", "check-hc 2 100", (), "check_hc_2_100.txt"),
    # the CRT hole of n = 2, A = 1, searched near a line
    Run("holes", "holes --n 2 --a 1 --subspace 1,1.41421356", ("holes.json",)),
    # a rational line: almost every candidate ties and is ranked exactly
    Run("holes_diagonal", "holes --n 2 --a 1 --subspace 1,1",
        ("holes_diagonal/holes.json",)),
    Run("random", RANDOM, ("random.json",)),  # one kernel pass per T
    # the certified counts do not depend on how BLAS splits the products
    Run("random_1_blas_thread", RANDOM, ("random.json",),
        env={"OPENBLAS_NUM_THREADS": "1"}),
    density("density_d5_octagon"),  # a Polygon window: the column path
    density("density_d2_disc"),  # a Ball window: the column path
    # a Polygon window given by its vertices, an octagon averaging set
    density("density_d2_polygon"),
    # a disc x box product window, a ball x cube product averaging set off
    # the origin
    density("density_d2_dim3_product_ball"),
    # an open-sided box window, a box averaging set off the origin: per axis
    density("density_d5_open_box"),
    density("density_shipped_d5_both"),  # d = 5: half-integer branches
    density("density_d2_dim3"),  # zeta_K(3) from the series pair
    density("density_d2_product"),  # two 1-D boxes: the per-axis path
    # the shipped sweep to T = 500, direct
    density("density_shipped", "configs/density.json", "direct"),
    density("density_shipped_both", "configs/density.json"),  # with Moebius
]


def argv(run, out):
    return run.argv.split() + (["--out", str(out)] if run.goldens else [])


def first_difference(run, code, out, stdout):
    """The nonzero exit code, or the first golden of run that out (or
    stdout) does not match byte for byte; None when all match."""
    if code:
        return f"exit code {code}"
    if run.stdout and stdout != (GOLDEN / run.stdout).read_bytes():
        return run.stdout
    return next((g for g in run.goldens if not filecmp.cmp(
        out / Path(g).name, GOLDEN / g, shallow=False)), None)


def run_all(runs):
    """Run each of runs as a child `python -m quasivis.cli` and print its
    wall time, its peak RSS (os.wait4 on that child alone) and any
    difference; returns 1 when some run differs, else 0."""
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for run in runs:
            out = Path(tmp) / run.name
            start = time.perf_counter()
            with subprocess.Popen(
                    [sys.executable, "-m", "quasivis.cli", *argv(run, out)],
                    stdout=subprocess.PIPE, cwd=ROOT,
                    env={**os.environ, **run.env}) as child:
                stdout = child.stdout.read()
                _, status, usage = os.wait4(child.pid, 0)
                wall = time.perf_counter() - start
                child.returncode = os.waitstatus_to_exitcode(status)
            diff = first_difference(run, child.returncode, out, stdout)
            print(f"{run.name}: {wall:.2f} s, peak RSS "
                  f"{usage.ru_maxrss / 1024:.1f} MB"
                  + (f", mismatch in {diff}" if diff else ""), flush=True)
            failed |= bool(diff)
    return failed


@pytest.mark.parametrize("run", RUNS, ids=lambda run: run.name)
def test_recorded_run(run, tmp_path, monkeypatch):
    if run.env:
        pytest.skip("a process that has loaded numpy cannot change its BLAS "
                    "threads; the child runner checks this run")
    # not imported at the top: a child's peak RSS counts the runner's at
    # the spawn, which stays below a child's own while it has no numpy
    from quasivis.cli import main
    monkeypatch.chdir(ROOT)
    res = CliRunner().invoke(main, argv(run, tmp_path))
    assert first_difference(run, res.exit_code, tmp_path,
                            res.stdout_bytes) is None, res.output


def test_every_golden_is_in_the_table():
    named = {g for run in RUNS for g in (*run.goldens, run.stdout) if g}
    named |= {a.removeprefix("tests/golden/") for run in RUNS
              for a in run.argv.split() if a.startswith("tests/golden/")}
    assert named == {p.relative_to(GOLDEN).as_posix()
                     for p in GOLDEN.rglob("*") if p.is_file()}


def test_runner_reports_differences(tmp_path, capsys):
    golden = (GOLDEN / "holes.json").read_bytes()
    (tmp_path / "holes.json").write_bytes(golden[:-1] + b"x")
    holes = Run("holes", "", ("holes.json",))
    assert first_difference(holes, 0, tmp_path, b"") == "holes.json"
    # a range past 100 is a configuration error, exit 2
    assert run_all([Run("bad", "check-hc 2 101", (), "check_hc_2_100.txt")])
    assert capsys.readouterr().out.endswith("mismatch in exit code 2\n")


if __name__ == "__main__":
    sys.exit(run_all(RUNS))
