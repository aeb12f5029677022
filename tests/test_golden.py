"""Byte-for-byte regression against the recorded artifacts in golden/: the
plot of configs/plot.json (square window, box averaging set) and the plot
of golden/plot_d5_octagon_disc/config.json beside its outputs (d = 5,
octagon window, disc averaging set, recorded when the plot classified the
identity grid of its points), the field plots `plot --field d` for d = 2, 5
(half-integer ring) and 94 (lambda past the plotted range, so the unit box
is clipped), the `check-hc 2 100` table, the holes
near-subspace search, the random-lattice experiment of
configs/random.json at seed 7 (`random --config configs/random.json
--seed 7`), five density sweeps with `--method both`, each from the
config.json beside its outputs in golden/density_*/: d=5 with an octagon
window and d=2 with a disc window, whose outer sets (Polygon, Ball) and
inner Moebius sets (UnitScaled) are tested on the columns of the hull,
and d=5 with a box window open on both sides of axis 0 and a box
averaging set off the origin, half-open on axis 1, whose every region
test runs per axis (density_d5_open_box, recorded when every region
test ran on the columns), d=2 in dim 3 with cube window and averaging
set (density_d2_dim3, whose predicted density takes zeta_K(3) from the
series pair, since zeta_K(2) and zeta_K(4) have a closed form), d=2
with the square window written as a product of two 1-D boxes
(density_d2_product, recorded when only a Box window took the fast
route of the inner window), and the shipped sweep `density --config
configs/density.json --method direct` up to T=500 in
golden/density_shipped/.  The same sweep with `--method both` is pinned in
golden/density_shipped_both/, and the sweep of
golden/density_shipped_d5_both/config.json (the shipped config with d = 5)
with `--method both` beside that config; each takes under a second, and
CI runs both again as commands to log their wall time and peak RSS.
After an intended change to one of these outputs, re-record it with the
same command (`--out tests/golden`, or `--out tests/golden/density_*` or
`plot_*`, or the stdout of check-hc) and say in the change which bytes
moved and why."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from quasivis.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
CONFIGS = Path(__file__).parent.parent / "configs"

runner = CliRunner()


def assert_plot_matches(tmp_path, config, golden):
    res = runner.invoke(main, ["plot", "--config", str(config),
                               "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    for name in ("points.csv", "points.svg"):
        assert (tmp_path / name).read_bytes() == \
            (golden / name).read_bytes(), name


def test_plot_artifacts(tmp_path):
    assert_plot_matches(tmp_path, CONFIGS / "plot.json", GOLDEN)


def test_plot_octagon_window_disc_averaging(tmp_path):
    name = "plot_d5_octagon_disc"
    assert_plot_matches(tmp_path, GOLDEN / name / "config.json",
                        GOLDEN / name)


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


def assert_density_matches(tmp_path, config, method, golden):
    res = runner.invoke(main, ["density", "--config", str(config),
                               "--method", method, "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    for out in ("density.csv", "density.json"):
        assert (tmp_path / out).read_bytes() == \
            (golden / out).read_bytes(), out


@pytest.mark.parametrize("name", ["density_d5_octagon", "density_d2_disc",
                                  "density_d5_open_box",
                                  "density_shipped_d5_both",
                                  "density_d2_dim3", "density_d2_product"])
def test_density_both_methods(tmp_path, name):
    assert_density_matches(tmp_path, GOLDEN / name / "config.json", "both",
                           GOLDEN / name)


def test_density_shipped_direct(tmp_path):
    assert_density_matches(tmp_path, CONFIGS / "density.json", "direct",
                           GOLDEN / "density_shipped")


def test_density_shipped_both(tmp_path):
    assert_density_matches(tmp_path, CONFIGS / "density.json", "both",
                           GOLDEN / "density_shipped_both")
