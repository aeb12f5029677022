"""Byte-for-byte regression against the recorded artifacts in golden/: the
plot of configs/plot.json, the field plots `plot --field d` for d = 2, 5
(half-integer ring) and 94 (lambda past the plotted range, so the unit box
is clipped), the `check-hc 2 100` table, the holes
near-subspace search, the random-lattice experiment of
configs/random.json at seed 7 (`random --config configs/random.json
--seed 7`), two density sweeps with `--method both`, each from the
config.json beside its outputs in golden/density_*/: d=5 with an octagon
window and d=2 with a disc window, whose outer sets (Polygon, Ball) and
inner Moebius sets (UnitScaled) go through the exact joint filter of
field-point enumeration, and the shipped sweep `density --config
configs/density.json --method direct` up to T=500 in
golden/density_shipped/.  The same sweep with `--method both` is pinned in
golden/density_shipped_both/, and the sweep of
golden/density_shipped_d5_both/config.json (the shipped config with d = 5)
with `--method both` beside that config; CI compares both byte for byte
after tier-1, since they take several seconds.  After an intended change
to one of these outputs, re-record it with the same command (`--out
tests/golden`, or `--out tests/golden/density_*`, or the stdout of
check-hc) and say in the change which bytes moved and why."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from quasivis.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"

runner = CliRunner()


def test_plot_artifacts(tmp_path):
    res = runner.invoke(main, ["plot", "--config", str(CONFIGS / "plot.json"),
                               "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    for name in ("points.csv", "points.svg"):
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("d", [2, 5, 94])
def test_field_plot(tmp_path, d):
    res = runner.invoke(main, ["plot", "--field", str(d),
                               "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    name = f"field_d{d}.svg"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_check_hc_table():
    res = runner.invoke(main, ["check-hc", "2", "100"])
    assert res.exit_code == EXIT_OK
    assert res.stdout_bytes == (GOLDEN / "check_hc_2_100.txt").read_bytes()


def test_holes_subspace_search(tmp_path):
    res = runner.invoke(main, ["holes", "--n", "2", "--a", "1",
                               "--subspace", "1,1.41421356",
                               "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    assert (tmp_path / "holes.json").read_bytes() == \
        (GOLDEN / "holes.json").read_bytes()


def test_random_experiment(tmp_path):
    res = runner.invoke(main, ["random", "--config",
                               str(CONFIGS / "random.json"), "--seed", "7",
                               "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    assert (tmp_path / "random.json").read_bytes() == \
        (GOLDEN / "random.json").read_bytes()


@pytest.mark.parametrize("name", ["density_d5_octagon", "density_d2_disc"])
def test_density_both_methods(tmp_path, name):
    res = runner.invoke(main, ["density", "--config",
                               str(GOLDEN / name / "config.json"),
                               "--method", "both", "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    for out in ("density.csv", "density.json"):
        assert (tmp_path / out).read_bytes() == \
            (GOLDEN / name / out).read_bytes(), out


def test_density_shipped_direct(tmp_path):
    res = runner.invoke(main, ["density", "--config",
                               str(CONFIGS / "density.json"),
                               "--method", "direct", "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    for out in ("density.csv", "density.json"):
        assert (tmp_path / out).read_bytes() == \
            (GOLDEN / "density_shipped" / out).read_bytes(), out
