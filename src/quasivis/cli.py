"""Command-line front-end: field inspection, density sweeps, plots, hole
construction and random-lattice experiments, with reproducible outputs."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import (__version__, counting, cutproject, holes, kernels, lattice,
               svgplot)
from .quadfield import (
    PID_D,
    field,
    fundamental_unit,
    hammarhjelm_witness,
    ring_box_size,
)
from .regions import region_from_spec

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

_INTEGER = (lambda v: type(v) is int, "an integer")  # not 2.0, not true
_POSITIVE = (lambda v: type(v) in (int, float) and v > 0, "a number > 0")
_REGION = (lambda v: isinstance(v, dict) and isinstance(v.get("kind"), str),
           "an object with a string kind")
_T_GRID = (lambda v: isinstance(v, list) and len(v) > 0
           and all(map(_POSITIVE[0], v)), "a non-empty list of numbers > 0")


def _integer_from(lo: int):
    return (lambda v: type(v) is int and v >= lo), f"an integer >= {lo}"


# Per command: (check, wording) for every key a config may hold, and the
# keys it must hold.  A region's other keys are region_from_spec's to check.
DENSITY_KEYS = ({"d": _integer_from(2), "dim": _integer_from(2),
                 "window": _REGION, "averaging": _REGION, "T_grid": _T_GRID,
                 "beta_exp": _INTEGER,
                 "method": (lambda v: v in ("direct", "moebius", "both"),
                            "direct, moebius or both")},
                ("d", "dim", "window", "averaging", "T_grid"))

PLOT_KEYS = ({"d": _integer_from(2), "dim": _integer_from(2),
              "window": _REGION, "averaging": _REGION, "T": _POSITIVE,
              "beta_exp": _INTEGER},
             ("d", "dim", "window", "averaging", "T"))

RANDOM_KEYS = ({"n": _integer_from(3), "d": _integer_from(1),
                "window": _REGION, "omega": _REGION, "T_grid": _T_GRID,
                "samples": _integer_from(1), "seed": _integer_from(0)},
               ("n", "d", "window", "omega", "T_grid", "samples"))


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _load_config(path: str, table: tuple) -> dict:
    """The config at path: a JSON object that holds every key the command's
    table requires, no key it does not name, and passes each key's check.
    NaN and +-Infinity, which JSON parsers accept, are rejected."""
    checks, required = table
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
        if not isinstance(cfg, dict):
            raise ValueError("a config must be a JSON object")
        bad = [f"missing key {k!r}" for k in required if k not in cfg]
        for k, v in cfg.items():
            if k not in checks:
                bad.append(f"unknown key {k!r}")
            elif not checks[k][0](v):
                bad.append(f"{k!r} must be {checks[k][1]}, "
                           f"got {json.dumps(v)}")
        if bad:
            raise ValueError("; ".join(bad))
    except (OSError, ValueError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    return cfg


@contextlib.contextmanager
def _config_errors():
    """Exit with EXIT_CONFIG when building objects from a checked config
    fails: an unknown region kind, a missing key, a d that is not
    squarefree in [2, 100], regions of the wrong kind or dimension, a field
    that is not a Hammarhjelm example, a window or averaging set whose
    volume is 0 or past the float range, a T whose ring boxes or
    random-lattice box are too large to index in int64; or when an
    argument click does not type is rejected, such as a --subspace of the
    wrong length or a NaN --radius."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


def _header(cfg: dict, path_kind: str) -> dict:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return {
        "tool": "quasivis",
        "version": __version__,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "arithmetic_path": path_kind,
        "kernel_backend": kernels.backend_name(),
        "config": cfg,
    }


def _header_comments(header: dict) -> str:
    keys = ("tool", "version", "config_sha256", "arithmetic_path",
            "kernel_backend")
    return "".join(f"# {k}: {header[k]}\n" for k in keys)


def _desc_from_config(cfg: dict):
    """The cut-and-project set and the averaging region of a density or
    plot config; raises ValueError when they do not fit together."""
    desc = cutproject.CPSetDesc(
        field=field(cfg["d"]), d=cfg["dim"],
        window=region_from_spec(cfg["window"]),
        beta_exp=cfg.get("beta_exp", 0))
    D = region_from_spec(cfg["averaging"])
    if desc.window.dim != desc.d or D.dim != desc.d:
        raise ValueError(f"window and averaging set must have dimension "
                         f"dim={desc.d}")
    desc.require_hammarhjelm()
    return desc, D


def _require_indexable(desc, D, T):
    """Reject a T at which the exact enumeration could not end: one whose
    per-axis ring boxes of T*D x window hold more candidate combinations,
    the product the enumeration indexes, than int64 can index, the bound
    the kernel applies to its integer box too."""
    size = math.prod(ring_box_size(desc.field, *phys, *internal)
                     for phys, internal in zip(
                         D.scaled(Fraction(str(T))).bbox(),
                         desc.scaled_window().bbox()))
    if size > kernels.INT64_MAX:
        raise ValueError(f"T={T} gives T*averaging x window more ring-box "
                         f"candidates than int64 can index")


@click.group()
@click.version_option(version=__version__, prog_name="quasivis")
def main():
    """Cut-and-project point sets over real quadratic fields: generation,
    visibility, densities, and certified holes."""


@main.command("check-hc")
@click.argument("d_min", type=int)
@click.argument("d_max", type=int)
@click.option("--out", type=click.Path(), default=None,
              help="Directory for the CSV table.")
def cmd_check_hc(d_min, d_max, out):
    """Classify PID fields in [D_MIN, D_MAX] by the unit-box criterion:
    the Minkowski lattice misses (1, lambda) x [-1, 1]."""
    if not (2 <= d_min <= d_max <= 100):
        click.echo("config error: need 2 <= d_min <= d_max <= 100, the range "
                   "of the PID table", err=True)
        sys.exit(EXIT_CONFIG)
    lines = ["d,disc,lambda,empty_box,witness"]
    for d in sorted(d for d in PID_D if d_min <= d <= d_max):
        fld = field(d)
        wit = hammarhjelm_witness(fld)
        lines.append(f"{d},{fld.disc},{float(fundamental_unit(fld)):.6f},"
                     f"{int(wit is None)},{'' if wit is None else repr(wit)}")
    for line in lines:
        click.echo(line)
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / "check_hc.csv").write_text("\n".join(lines) + "\n")


@main.command("density")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default=".")
@click.option("--method", type=click.Choice(["direct", "moebius", "both"]),
              default=None, help="Overrides the config's method.")
def cmd_density(config_path, out, method):
    """Visible-density sweep over a T grid with identity cross-checks."""
    cfg = _load_config(config_path, DENSITY_KEYS)
    if method:
        cfg["method"] = method
    with _config_errors():
        desc, D = _desc_from_config(cfg)
        for key, role, region in (("window", "window", desc.scaled_window()),
                                  ("averaging", "averaging set", D)):
            try:
                volume = region.volume()
            except OverflowError:
                raise ValueError(f"the volume of the {cfg[key]['kind']} "
                                 f"{role} lies past the float range") from None
            if volume == 0:
                raise ValueError(f"the {cfg[key]['kind']} {role} has "
                                 f"volume 0")
        predicted = counting.predicted_density_hammarhjelm(desc)
        for T in cfg["T_grid"]:
            _require_indexable(desc, D, T)
    use_moebius = cfg.get("method", "direct") in ("moebius", "both")
    reports = counting.visible_count(
        desc, D, [Fraction(str(T)) for T in cfg["T_grid"]],
        method="moebius" if use_moebius else "direct", predicted=predicted)
    for rep in reports:
        click.echo(rep.csv_row())
    header = _header(cfg, "exact")
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = _header_comments(header) + counting.CountReport.CSV_HEADER + "\n"
    csv += "".join(r.csv_row() + "\n" for r in reports)
    (out_dir / "density.csv").write_text(csv)
    summary = dict(header)
    summary["predicted_density"] = predicted
    summary["reports"] = [r.to_json() for r in reports]
    try:
        summary["rate_fit"] = counting.rate_fit(reports).to_json()
    except counting.DegenerateFit as exc:
        summary["rate_fit"] = {"error": str(exc)}
    all_ok = all(r.identity_ok for r in reports)
    summary["identities_ok"] = all_ok
    (out_dir / "density.json").write_text(json.dumps(summary, indent=1))
    if not all_ok:
        click.echo("identity violation detected", err=True)
        sys.exit(EXIT_IDENTITY)


@main.command("plot")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--field", "field_d", type=int, default=None,
              help="Plot the Minkowski embedding of the ring for this d.")
@click.option("--out", type=click.Path(), default=".")
def cmd_plot(config_path, field_d, out):
    """Deterministic SVG scatter: points with visibility styling, or a
    Minkowski-embedding field plot with the unit-box overlay."""
    if (config_path is None) == (field_d is None):
        click.echo("config error: need one of --config and --field", err=True)
        sys.exit(EXIT_CONFIG)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if field_d is not None:
        with _config_errors():
            fld = field(field_d)
        svg = svgplot.svg_field_plot(fld)
        (out_dir / f"field_d{field_d}.svg").write_text(svg)
        return
    cfg = _load_config(config_path, PLOT_KEYS)
    with _config_errors():
        desc, D = _desc_from_config(cfg)
        _require_indexable(desc, D, cfg["T"])
    _, grid = lattice.field_point_arrays(
        desc.field, D.scaled(Fraction(str(cfg["T"]))), desc.scaled_window())
    primitive, inner = cutproject.classify(desc, grid)
    vis = primitive & ~inner
    P, Q = grid.columns()
    (out_dir / "points.svg").write_text(
        svgplot.svg_scatter(desc.field, P, Q, vis))
    (out_dir / "points.csv").write_text(
        cutproject.points_to_csv(desc.field, P, Q, vis))


@main.command("holes")
@click.option("--n", "n_dim", type=click.IntRange(min=2), required=True)
@click.option("--a", "--A", "a_half", type=click.IntRange(min=0),
              required=True)
@click.option("--translates", type=click.IntRange(min=0), default=5)
@click.option("--seed", type=int, default=0)
@click.option("--subspace", type=str, default=None,
              help="Comma-separated direction vector for the near-subspace "
                   "search.")
@click.option("--radius", type=float, default=None)
@click.option("--budget", type=click.IntRange(min=1), default=1_000_000)
@click.option("--out", type=click.Path(), default=".")
def cmd_holes(n_dim, a_half, translates, seed, subspace, radius, budget, out):
    """Build a CRT gcd-hole, verify it on random translates, optionally
    search for a translate near a subspace."""
    if subspace is not None:
        with _config_errors():
            vec = [float(v) for v in subspace.split(",")]
            if len(vec) != n_dim:
                raise ValueError(f"--subspace needs {n_dim} components, "
                                 f"got {len(vec)}")
    hole = holes.build_crt_hole(n_dim, a_half)
    rng = np.random.default_rng(seed)
    checks = [("x0", holes.verify_hole(hole, hole.x0))]
    for t in range(translates):
        k = rng.integers(-10, 11, size=n_dim)
        x = tuple(x0 + hole.N * int(kj) for x0, kj in zip(hole.x0, k))
        checks.append((f"translate_{t}", holes.verify_hole(hole, x)))
    doc = {
        "hole": hole.to_json(),
        "verifications": {name: ok for name, ok in checks},
    }
    exit_code = EXIT_OK if all(ok for _, ok in checks) else EXIT_IDENTITY
    if subspace is not None:
        r = radius if radius is not None else hole.N
        with _config_errors():
            found = holes.hole_near_subspace(hole, [vec], r, budget)
        if found is None:
            doc["subspace_search"] = "NotFound"
            exit_code = EXIT_BUDGET
        else:
            doc["subspace_search"] = [str(v) for v in found]
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "holes.json").write_text(json.dumps(doc, indent=1))
    click.echo(json.dumps(doc["verifications"]))
    if exit_code:
        sys.exit(exit_code)


@main.command("random")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None,
              help="Overrides the config's seed.")
@click.option("--out", type=click.Path(), default=".")
def cmd_random(config_path, seed, out):
    """Random-lattice primitive-density experiment against 1/zeta(n)."""
    cfg = _load_config(config_path, RANDOM_KEYS)
    if seed is not None:
        cfg["seed"] = seed
    cfg.setdefault("seed", 0)
    with _config_errors():
        res = counting.random_lattice_experiment(
            n=cfg["n"], d=cfg["d"], window=region_from_spec(cfg["window"]),
            omega=region_from_spec(cfg["omega"]), T_list=cfg["T_grid"],
            samples=cfg["samples"], seed=cfg["seed"])
    doc = _header(cfg, "float")
    doc["result"] = res
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "random.json").write_text(json.dumps(doc, indent=1))
    click.echo(json.dumps(res["per_T"][-1]))


if __name__ == "__main__":
    main()
