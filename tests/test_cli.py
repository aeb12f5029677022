"""Command-line interface: exit codes, reproducible outputs, config
validation."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import quasivis
from quasivis.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_OK,
    main,
)

runner = CliRunner()


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


DENSITY_CFG = {
    "d": 2, "dim": 2,
    "window": {"kind": "square", "half_width": 1},
    "averaging": {"kind": "cube", "half_width": 1, "dim": 2},
    "T_grid": [5, 10],
    "method": "both",
}

RANDOM_CFG = {
    "n": 3, "d": 2,
    "window": {"kind": "cube", "half_width": 1, "dim": 1},
    "omega": {"kind": "cube", "half_width": 1, "dim": 2},
    "T_grid": [12],
    "samples": 3,
    "seed": 7,
}

PLOT_CFG = {
    "d": 2, "dim": 2,
    "window": {"kind": "square", "half_width": 1},
    "averaging": {"kind": "cube", "half_width": 1, "dim": 2},
    "T": 6,
}


def test_check_hc_table():
    res = runner.invoke(main, ["check-hc", "2", "60"])
    assert res.exit_code == EXIT_OK
    lines = res.output.strip().splitlines()
    assert lines[0] == "d,disc,lambda,empty_box,witness"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    empties = {d for d, r in rows.items() if r[3] == "1"}
    assert empties == {2, 5, 13, 29, 53}
    for d, r in rows.items():
        if r[3] == "0":
            assert r[4]  # a witness column is populated


def test_check_hc_bad_range():
    res = runner.invoke(main, ["check-hc", "9", "4"])
    assert res.exit_code == EXIT_CONFIG


def test_density_outputs_and_rerun_identical(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", DENSITY_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    r1 = runner.invoke(main, ["density", "--config", cfg, "--out", str(out1)])
    assert r1.exit_code == EXIT_OK, r1.output
    r2 = runner.invoke(main, ["density", "--config", cfg, "--out", str(out2)])
    assert (out1 / "density.csv").read_bytes() == \
        (out2 / "density.csv").read_bytes()
    assert (out1 / "density.json").read_bytes() == \
        (out2 / "density.json").read_bytes()
    doc = json.loads((out1 / "density.json").read_text())
    assert doc["identities_ok"] is True
    assert doc["tool"] == "quasivis"
    assert len(doc["config_sha256"]) == 64
    assert doc["arithmetic_path"] == "exact"
    csv = (out1 / "density.csv").read_text()
    assert csv.startswith("# tool: quasivis\n")


def test_density_method_override(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json",
                    {**DENSITY_CFG, "method": "direct"})
    res = runner.invoke(main, ["density", "--config", cfg, "--out",
                               str(tmp_path / "o"), "--method", "moebius"])
    assert res.exit_code == EXIT_OK, res.output


CUBE1 = {"kind": "cube", "half_width": 1, "dim": 1}


@pytest.mark.parametrize("key", ["window", "averaging"])
def test_density_product_region_matches_box(tmp_path, key):
    """A product of two cubes [-1, 1] prints the rows of the square window
    and of the 2-D cube averaging set."""
    outputs = []
    for region in (DENSITY_CFG[key],
                   {"kind": "product", "left": CUBE1, "right": CUBE1}):
        cfg = write_cfg(tmp_path / "cfg.json", {**DENSITY_CFG, key: region})
        res = runner.invoke(main, ["density", "--config", cfg,
                                   "--out", str(tmp_path / "o")])
        assert res.exit_code == EXIT_OK, res.output
        outputs.append(res.output)
    assert outputs[0] == outputs[1]


def test_density_beta_exp_positive(tmp_path):
    """beta = lambda: both routes run on the window lambda*W and the inner
    window W, and their identities hold."""
    cfg = write_cfg(tmp_path / "cfg.json", {**DENSITY_CFG, "beta_exp": 1})
    res = runner.invoke(main, ["density", "--config", cfg, "--method", "both",
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((tmp_path / "o" / "density.json").read_text())
    assert doc["identities_ok"] is True


def test_plot_beta_exp_positive(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {**PLOT_CFG, "beta_exp": 1})
    res = runner.invoke(main, ["plot", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_OK, res.output
    assert (tmp_path / "o" / "points.csv").exists()


def test_density_rejects_non_hammarhjelm_field(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {**DENSITY_CFG, "d": 3})
    res = runner.invoke(main, ["density", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG


def test_density_rejects_half_open_box_window(tmp_path):
    """[-1, 1)^2 is not centrally symmetric, so not a Hammarhjelm example;
    the fast test disagreed with the oracle on it while it passed as one."""
    window = {"kind": "box", "bounds": [[-1, 1], [-1, 1]],
              "hi_open": [True, True]}
    cfg = write_cfg(tmp_path / "cfg.json",
                    {**DENSITY_CFG, "window": window, "T_grid": [12]})
    res = runner.invoke(main, ["density", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG, res.output


@pytest.mark.parametrize("bad", [
    {**DENSITY_CFG, "T_grid": []},
    {**DENSITY_CFG, "extra_key": 1},
    {k: v for k, v in DENSITY_CFG.items() if k != "window"},
    {**DENSITY_CFG, "beta_exp": 0.5},   # beta_exp is any integer
    {**DENSITY_CFG, "beta_exp": "1"},
])
def test_density_config_schema_rejections(tmp_path, bad):
    cfg = write_cfg(tmp_path / "cfg.json", bad)
    res = runner.invoke(main, ["density", "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG


@pytest.mark.parametrize("command,bad", [
    ("density", {**DENSITY_CFG, "T_grid": [0, 5]}),   # division by T
    ("density", {**DENSITY_CFG, "T_grid": [-3]}),     # a reversed box
    ("plot", {**PLOT_CFG, "T": 0}),
    ("random", {**RANDOM_CFG, "T_grid": [0]}),        # NaN densities
    # JSON's NaN and Infinity, rejected as they are parsed
    ("density", {**DENSITY_CFG, "T_grid": [math.nan]}),
    ("density", {**DENSITY_CFG, "T_grid": [math.inf]}),
    ("plot", {**PLOT_CFG, "T": math.nan}),
    ("plot", {**PLOT_CFG, "T": math.inf}),
    ("random", {**RANDOM_CFG, "T_grid": [math.nan]}),
    ("random", {**RANDOM_CFG, "T_grid": [math.inf]}),
])
def test_non_positive_T_rejected(tmp_path, command, bad):
    cfg = write_cfg(tmp_path / "cfg.json", bad)
    res = runner.invoke(main, [command, "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not any((tmp_path / "o").glob("*"))


HEXAGON = {"kind": "hexagon"}
CW_SQUARE = {"kind": "polygon", "vertices": [[1, 0], [0, -1], [-1, 0], [0, 1]]}
NONCONVEX_HEXAGON = {"kind": "polygon", "vertices": [
    [3, 0], [1, 1], [0, 3], [-3, 0], [-1, -1], [0, -3]]}
TWO_VERTICES = {"kind": "polygon", "vertices": [[1, 0], [-1, 0]]}


@pytest.mark.parametrize("command,bad", [
    ("density", {**DENSITY_CFG, "window": HEXAGON}),
    ("density", {**DENSITY_CFG, "d": 4}),       # 4 is not squarefree
    ("density", {**DENSITY_CFG, "averaging": {"kind": "box"}}),  # no bounds
    ("density", {**DENSITY_CFG, "dim": 3}),     # the window is 2-D
    ("plot", {**PLOT_CFG, "d": 4}),
    ("plot", {**PLOT_CFG, "d": 3}),             # not a Hammarhjelm field
    ("random", {**RANDOM_CFG, "omega": HEXAGON}),
    ("random", {**RANDOM_CFG, "n": 4}),         # window is 1-D, not n - d
    ("density", {**DENSITY_CFG, "d": 2**61 - 1}),  # past the PID table
    ("plot", {**PLOT_CFG, "d": 101}),
    # empty regions, one per kind
    ("density", {**DENSITY_CFG,
                 "window": {"kind": "square", "half_width": -1}}),
    ("plot", {**PLOT_CFG, "window": {"kind": "octagon", "half_width": 0}}),
    ("random", {**RANDOM_CFG,
                "omega": {"kind": "cube", "half_width": -1, "dim": 2}}),
    ("density", {**DENSITY_CFG, "window": {"kind": "disc", "r2": 0}}),
    ("density", {**DENSITY_CFG, "averaging": {"kind": "ball",
                                              "center": [0, 0], "r2": -1}}),
    ("density", {**DENSITY_CFG, "averaging": {
        "kind": "box", "bounds": [[-1, 1], [1, -1]]}}),
    # polygons that are not strictly convex in ccw order
    ("density", {**DENSITY_CFG, "window": CW_SQUARE}),
    ("plot", {**PLOT_CFG, "window": CW_SQUARE}),
    ("density", {**DENSITY_CFG, "window": NONCONVEX_HEXAGON}),
    ("plot", {**PLOT_CFG, "window": NONCONVEX_HEXAGON}),
    ("density", {**DENSITY_CFG, "window": TWO_VERTICES}),
    ("plot", {**PLOT_CFG, "window": TWO_VERTICES}),
    # open flags of the wrong length
    ("density", {**DENSITY_CFG, "averaging": {
        "kind": "box", "bounds": [[-1, 1], [-1, 1]], "lo_open": [True]}}),
    ("plot", {**PLOT_CFG, "averaging": {
        "kind": "box", "bounds": [[-1, 1], [-1, 1]],
        "hi_open": [True, False, True]}}),
    ("density", {**DENSITY_CFG, "averaging": {
        "kind": "box", "bounds": [[-1, 1], [-1, 1]], "lo_open": []}}),
    # a preimage box past int64, rejected before anything is allocated
    ("random", {**RANDOM_CFG, "T_grid": [1e9]}),
    # a key the kind does not hold; open flags that are not booleans
    ("density", {**DENSITY_CFG,
                 "window": {"kind": "square", "half_widht": 2}}),
    ("density", {**DENSITY_CFG, "averaging": {
        "kind": "box", "bounds": [[-1, 1], [-1, 1]],
        "lo_open": ["false", "false"], "hi_open": ["false", "false"]}}),
    # JSON booleans where a region reads a number
    ("random", {**RANDOM_CFG,
                "window": {"kind": "cube", "half_width": 1, "dim": True}}),
    ("density", {**DENSITY_CFG, "averaging": {
        "kind": "box", "bounds": [[-1, True], [-1, 1]]}}),
    ("density", {**DENSITY_CFG, "window": {"kind": "polygon", "vertices": [
        [1, 0], [0, True], [-1, 0], [0, -1]]}}),
    # preimage bounds past int64, which once wrapped to an empty box
    ("random", {**RANDOM_CFG, "T_grid": [1e30]}),
    # a box volume past the float range, which once ended in a NaN
    ("random", {**RANDOM_CFG, "T_grid": [1e300]}),
])
def test_config_errors_past_the_schema(tmp_path, command, bad):
    cfg = write_cfg(tmp_path / "cfg.json", bad)
    res = runner.invoke(main, [command, "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert res.output.startswith("config error:")
    assert len(res.output.splitlines()) == 1
    assert not isinstance(res.exception, (KeyError, ValueError))
    if bad.get("T_grid") == [1e300]:
        assert "T=1e+300" in res.output


CUBE1 = {"kind": "cube", "half_width": 1, "dim": 1}


@pytest.mark.parametrize("command,cfg", [
    ("density", {**DENSITY_CFG, "dim": 1, "window": CUBE1,
                 "averaging": CUBE1}),
    ("plot", {**PLOT_CFG, "dim": 1, "window": CUBE1, "averaging": CUBE1}),
])
def test_dim_one_rejected(tmp_path, command, cfg):
    """zeta_K has a pole at 1 and the plot is planar: dim starts at 2."""
    res = runner.invoke(main, [command, "--config",
                               write_cfg(tmp_path / "cfg.json", cfg),
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert "config error:" in res.output
    assert not any((tmp_path / "o").glob("*"))


# Integral floats and booleans are not JSON integers: each integer key of
# each command at the float of a value it accepts, and at true.
INTEGER_KEYS = [
    ("density", DENSITY_CFG, "d", 2), ("density", DENSITY_CFG, "dim", 2),
    ("density", DENSITY_CFG, "beta_exp", 1),
    ("plot", PLOT_CFG, "d", 2), ("plot", PLOT_CFG, "dim", 2),
    ("plot", PLOT_CFG, "beta_exp", 1),
    ("random", RANDOM_CFG, "n", 3), ("random", RANDOM_CFG, "d", 2),
    ("random", RANDOM_CFG, "samples", 3), ("random", RANDOM_CFG, "seed", 7),
]
CONFIG_TABLE_REJECTIONS = [
    (command, {**cfg, key: bad}, key)
    for command, cfg, key, good in INTEGER_KEYS for bad in (float(good), True)
] + [
    ("plot", {**PLOT_CFG, "T": True}, "T"),
    ("density", {**DENSITY_CFG, "T_grid": [True]}, "T_grid"),
    ("density", {**DENSITY_CFG, "T_grid": True}, "T_grid"),
    ("random", {**RANDOM_CFG, "T_grid": [True]}, "T_grid"),
    ("density", [DENSITY_CFG], "object"),
    ("plot", [], "object"),
    ("random", 3, "object"),
    ("plot", {**PLOT_CFG, "extra_key": 1}, "extra_key"),
    ("random", {**RANDOM_CFG, "extra_key": 1}, "extra_key"),
    ("plot", {k: v for k, v in PLOT_CFG.items() if k != "T"}, "T"),
    ("random", {k: v for k, v in RANDOM_CFG.items() if k != "omega"},
     "omega"),
    ("density", {**DENSITY_CFG, "method": "fast"}, "method"),
    ("density", {**DENSITY_CFG, "window": {"kind": 1}}, "window"),
]


@pytest.mark.parametrize("command,bad,key", CONFIG_TABLE_REJECTIONS)
def test_config_key_table_rejections(tmp_path, command, bad, key):
    cfg = write_cfg(tmp_path / "cfg.json", bad)
    res = runner.invoke(main, [command, "--config", cfg,
                               "--out", str(tmp_path / "o")])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("config error:")
    assert len(res.output.splitlines()) == 1 and key in res.output
    assert not any((tmp_path / "o").glob("*"))


def test_plot_field_not_squarefree(tmp_path):
    res = runner.invoke(main, ["plot", "--field", "4", "--out",
                               str(tmp_path)])
    assert res.exit_code == EXIT_CONFIG
    assert "config error:" in res.output


def test_plot_field_past_the_pid_table(tmp_path):
    res = runner.invoke(main, ["plot", "--field", "101", "--out",
                               str(tmp_path)])
    assert res.exit_code == EXIT_CONFIG
    assert "config error:" in res.output


def test_density_missing_config_file(tmp_path):
    res = runner.invoke(main, ["density", "--config",
                               str(tmp_path / "nope.json")])
    assert res.exit_code == EXIT_CONFIG


def test_plot_points_deterministic(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", PLOT_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        res = runner.invoke(main, ["plot", "--config", cfg, "--out",
                                   str(out)])
        assert res.exit_code == EXIT_OK, res.output
    assert (out1 / "points.svg").read_bytes() == \
        (out2 / "points.svg").read_bytes()
    svg = (out1 / "points.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    csv = (out1 / "points.csv").read_text()
    assert csv.splitlines()[0] == "a1,b1,a2,b2,phys1,phys2,int1,int2,visible"


def test_plot_field(tmp_path):
    res = runner.invoke(main, ["plot", "--field", "5", "--out",
                               str(tmp_path)])
    assert res.exit_code == EXIT_OK
    assert (tmp_path / "field_d5.svg").exists()


def test_plot_needs_config_or_field():
    res = runner.invoke(main, ["plot"])
    assert res.exit_code == EXIT_CONFIG


def test_holes_ok(tmp_path):
    res = runner.invoke(main, ["holes", "--n", "2", "--a", "1",
                               "--translates", "3", "--seed", "1",
                               "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((tmp_path / "holes.json").read_text())
    assert all(doc["verifications"].values())
    assert doc["hole"]["n"] == 2 and doc["hole"]["A"] == 1


def test_holes_subspace_budget_exhausted(tmp_path):
    res = runner.invoke(main, ["holes", "--n", "2", "--a", "1",
                               "--subspace", "1,1.4142135623",
                               "--radius", "1e-9", "--budget", "10",
                               "--out", str(tmp_path)])
    assert res.exit_code == EXIT_BUDGET
    doc = json.loads((tmp_path / "holes.json").read_text())
    assert doc["subspace_search"] == "NotFound"


@pytest.mark.parametrize("args", [
    ["--n", "1", "--a", "1"],
    ["--n", "2", "--a", "-1"],
    ["--n", "2", "--a", "1", "--translates", "-1"],
    ["--n", "2", "--a", "1", "--subspace", "1,x"],
    ["--n", "2", "--a", "1", "--subspace", "1,2,3"],   # n = 2 components
    ["--n", "2", "--a", "1", "--subspace", "1,1.41", "--radius", "nan"],
    ["--n", "2", "--a", "1", "--subspace", "1,1.41", "--radius", "-1"],
    ["--n", "2", "--a", "1", "--subspace", "1,1.41", "--budget", "-5"],
    ["--n", "2", "--a", "1", "--subspace", "0,0"],
])
def test_holes_bad_arguments(tmp_path, args):
    res = runner.invoke(main, ["holes", *args, "--out", str(tmp_path)])
    assert res.exit_code == EXIT_CONFIG, res.output
    assert not isinstance(res.exception, ValueError)
    assert not (tmp_path / "holes.json").exists()


def test_holes_default_radius_past_the_float_range(tmp_path):
    """The default radius is N itself, an int of 648 digits here, which no
    float holds."""
    res = runner.invoke(main, ["holes", "--n", "5", "--a", "1",
                               "--subspace", "1,2,3,5,7", "--budget", "100",
                               "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((tmp_path / "holes.json").read_text())
    assert len(doc["verifications"]) == 6
    assert all(doc["verifications"].values())
    N, x0 = int(doc["hole"]["N"]), [int(v) for v in doc["hole"]["x0"]]
    x = [int(v) for v in doc["subspace_search"]]
    assert all((xi - x0i) % N == 0 for xi, x0i in zip(x, x0))


def test_holes_infinite_radius_accepts_best_translate(tmp_path):
    res = runner.invoke(main, ["holes", "--n", "2", "--a", "1",
                               "--subspace", "1,1.41", "--radius", "inf",
                               "--budget", "10", "--out", str(tmp_path)])
    assert res.exit_code == EXIT_OK, res.output
    doc = json.loads((tmp_path / "holes.json").read_text())
    assert len(doc["subspace_search"]) == 2


def test_random_deterministic(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", RANDOM_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        res = runner.invoke(main, ["random", "--config", cfg, "--out",
                                   str(out)])
        assert res.exit_code == EXIT_OK, res.output
    assert (out1 / "random.json").read_bytes() == \
        (out2 / "random.json").read_bytes()
    doc = json.loads((out1 / "random.json").read_text())
    assert doc["arithmetic_path"] == "float"
    assert doc["result"]["per_T"][0]["boundary_ambiguous"] == 0


def test_random_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", RANDOM_CFG)
    r1 = runner.invoke(main, ["random", "--config", cfg, "--seed", "7",
                              "--out", str(tmp_path / "a")])
    r2 = runner.invoke(main, ["random", "--config", cfg, "--seed", "8",
                              "--out", str(tmp_path / "b")])
    assert r1.exit_code == r2.exit_code == EXIT_OK
    a = json.loads((tmp_path / "a" / "random.json").read_text())
    b = json.loads((tmp_path / "b" / "random.json").read_text())
    assert a["result"]["per_T"] != b["result"]["per_T"]


def test_version_flag():
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == EXIT_OK
    assert "quasivis" in res.output


def test_cli_import_loads_neither_sympy_nor_scipy():
    src = str(Path(quasivis.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, quasivis.cli; "
         "print(sorted({'sympy', 'scipy', 'jsonschema'} "
         "& sys.modules.keys()))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
