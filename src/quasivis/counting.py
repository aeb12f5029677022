"""Density estimation for visible points of cut-and-project sets: direct and
Moebius inclusion-exclusion primitive counts, predicted-density formulas,
convergence-rate fitting and the random-lattice 1/zeta(n) experiment."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import mpmath
import numpy as np

from . import kernels
from .cutproject import CPSetDesc, classify
from .lattice import AxisGrid, box_reduced_basis, field_point_arrays
from .quadfield import (
    FieldDesc,
    dedekind_zeta_highprec,
    divisible_by,
    fundamental_unit,
    int_lin,
    int_mul,
    iter_ring_box,
    moebius,
    omega_coords,
    quad_sign_array,
)
from .regions import Box, axis_factors


class DegenerateFit(ValueError):
    pass


@dataclass
class CountReport:
    """One (T, counts, prediction) record of a density experiment."""

    T: float
    count_vis: int
    count_pr: int
    count_all: int
    vol_TD: float
    M_T: float
    predicted: float
    rel_error: float
    count_pr_inner: int = 0
    identity_ok: bool = True

    def csv_row(self) -> str:
        # T as the shortest form that reads back to it, "10" for 10.0
        return (f"{repr(self.T).removesuffix('.0')},{self.count_vis},"
                f"{self.count_pr},"
                f"{self.count_all},{self.vol_TD:.12g},{self.M_T:.12g},"
                f"{self.predicted:.12g},{self.rel_error:.12g},"
                f"{self.count_pr_inner},"
                f"{int(self.identity_ok)}")

    def to_json(self) -> dict:
        return asdict(self)


CountReport.CSV_HEADER = ",".join(f.name for f in fields(CountReport))


def predicted_density_hammarhjelm(desc: CPSetDesc) -> float:
    """Density of the visible points of Lambda(beta*W, L) per unit volume of
    physical space: (1 - lambda^(-d)) * (vol(beta*W)/covol(L)) / zeta_K(d)."""
    desc.require_hammarhjelm()
    lam_inv_d = float(desc.unit_power(-desc.d))
    vol_w = desc.scaled_window().volume()
    z = dedekind_zeta_highprec(desc.field, desc.d)
    return (1.0 - lam_inv_d) * (vol_w / desc.covolume()) / z


def _norm_gcd(d: int, grid: AxisGrid) -> np.ndarray:
    """Per column x of grid, the gcd over i of |N(x_i)| = |p^2 - d*q^2|/4
    for x_i = (p + q*sqrt(d))/2; 0 for a zero column.  The norms are taken
    once per axis candidate and gathered through the index grid."""
    G = np.zeros(grid.idx.shape[1], dtype=np.int64)
    for p, q, k in zip(grid.p, grid.q, grid.idx):
        n = int_lin([(1, int_mul(p, p)), (-d, int_mul(q, q))]) // 4
        G = np.gcd(G, np.abs(n)[k])
    return G


def _sweep(desc: CPSetDesc, D, Ts):
    """Per group of the Ts (Fractions) that share one enumeration, in grid
    order, yield (group, grid, masks): the group's indices, the AxisGrid of
    the set over the box hull of their sets' bboxes, and per T the mask of
    its columns in T*D, made as it is read.  All Ts form one group when
    bbox(D) holds the origin, else each T is one: a hull of boxes off the
    origin can be far larger than the sets it serves."""
    regions = [D.scaled(T) for T in Ts]
    if Ts and all(lo <= 0 <= hi for lo, hi in D.bbox()):
        groups = [range(len(Ts))]
    else:
        groups = [[i] for i in range(len(Ts))]
    for group in groups:
        # not T_max*bbox(D): a Ball's bbox rounds up at each T on its own
        hull = Box(tuple(
            (min(lo for lo, _ in axis), max(hi for _, hi in axis))
            for axis in zip(*(regions[i].bbox() for i in group))))
        _, grid = field_point_arrays(desc.field, hull, desc.scaled_window())
        yield group, grid, (grid.mask(regions[i], desc.field.d)
                            for i in group)


def _moebius_weights(fld: FieldDesc, grid: AxisGrid) -> np.ndarray:
    """Per column x of grid, the sum of mu(g) over the unit-class
    representatives g in [1, lambda) that divide x: 1 when the coordinates
    of x generate O_K and 0 otherwise, by Moebius inversion, with no use of
    classify's ideal norms.

    g | x implies N(g) | G(x) = gcd_i N(x_i), so a g whose norm divides no
    column's G has no term and is skipped before its mu is computed; the
    others are tested on the columns with N(g) | G only.  So every g with a
    term has |sigma(g)| <= |N(g)| <= max G, the bound of the walk.  g | x
    iff g | x_i for every i: each g tests each axis candidate once."""
    G = _norm_gcd(fld.d, grid)
    weights = (G != 0).astype(np.int64)  # g = 1, the only unit in [1, lambda)
    # the nonzero columns sorted by G, so that each value of G is one slice
    nonzero = np.flatnonzero(G)
    order = nonzero[np.argsort(G[nonzero], kind="stable")]
    G = G[order]
    axes = [omega_coords(fld, p, q) for p, q in zip(grid.p, grid.q)]
    G_values, starts = np.unique(G, return_index=True)
    slices = [slice(a, b) for a, b in zip(starts, [*starts[1:], len(G)])]
    lam = fundamental_unit(fld)
    cutoff = int(G[-1]) if len(G) else 0
    for g in iter_ring_box(fld, 1, lam, -cutoff, cutoff, x_hi_open=True):
        n = abs(g.norm())
        if n == 1 or n > cutoff:
            continue
        groups = np.flatnonzero(G_values % n == 0)
        if not len(groups):
            continue
        mu = moebius(g)
        if mu == 0:
            continue
        cols = order[np.r_[tuple(slices[j] for j in groups)]]
        divides = grid._replace(idx=grid.idx[:, cols]).gather(
            [divisible_by(g, [a], [b]) for a, b in axes])
        weights[cols[divides]] += mu
    return weights


def moebius_count_primitive(desc: CPSetDesc, D, T_grid) -> list[int]:
    """Primitive-point count of the set in T*D for every T of T_grid, in
    grid order: the Moebius weights of T*D's columns summed, that is sum_g
    mu(g) * #(nonzero points of Lambda(beta*W, L_g) in T*D) over unit-class
    representatives g in [1, lambda) with mu(g) != 0.  One enumeration and
    one g-walk per group of _sweep: the one-set count, on a grid of its
    own, not visible_count's."""
    desc.require_hammarhjelm()
    Ts = [Fraction(T) for T in T_grid]
    counts = []
    for _, grid, masks in _sweep(desc, D, Ts):
        weights = _moebius_weights(desc.field, grid)
        counts += [int(weights[m].sum()) for m in masks]
    return counts


def _in_inner_box(desc: CPSetDesc, grid: AxisGrid) -> np.ndarray:
    """Fast route for a window W that regions.axis_factors splits into 1-D
    boxes, per column x: sigma(x) lies in lambda^(beta_exp-1)*W iff
    mult*sigma(x) lies in W, mult = lambda^(1-beta_exp), tested in integers
    per side over its bounds' denominator L, once per axis candidate."""
    d = desc.field.d
    mult = desc.unit_power(1 - desc.beta_exp)
    axis_masks = []
    for side, P, Q in zip(axis_factors(desc.window), grid.p, grid.q):
        (lo, hi), = side.bounds
        L = math.lcm(lo.denominator, hi.denominator)
        # sigma(x_i) = (P - Q*sqrt(d))/2, and 4*L*mult*sigma(x_i) = A +
        # B*sqrt(d), with mult = (p + q*sqrt(d))/2
        A = int_lin([(L * mult.p, P), (-L * mult.q * d, Q)])
        B = int_lin([(L * mult.q, P), (-L * mult.p, Q)])
        s = quad_sign_array(int_lin([(1, A)], -int(4 * L * lo)), B, d)
        inside = (s > 0) if side.lo_open[0] else (s >= 0)
        s = quad_sign_array(int_lin([(-1, A)], int(4 * L * hi)), -B, d)
        inside &= (s > 0) if side.hi_open[0] else (s >= 0)
        axis_masks.append(inside)
    return grid.gather(axis_masks)


def visible_count(desc: CPSetDesc, D, T_grid, method: str = "direct", *,
                  predicted: float) -> list[CountReport]:
    """Classify the set in T*D for every T of T_grid and assemble one report
    per T, in grid order.

    The Ts are served in _sweep's groups: classify decides every point of
    a group's hull once, and T*D takes its points by its mask.  For a window
    that regions.axis_factors splits, the integer fast route decides the
    inner window again, per axis on its own, and identity_ok records that
    the two agree on each primitive point of T*D.  method='moebius' also
    decides every column again, by one g-walk per group: its Moebius weight
    must equal its primitive label, and its inner label must equal weight 1
    with sigma(x) in the inner window (which W's central symmetry and
    convexity put inside beta*W), decided apart from classify.  identity_ok
    records that every column of T*D agrees, which implies equal counts.
    rel_error compares the counts with predicted."""
    Ts = [Fraction(T) for T in T_grid]
    vol_w = desc.scaled_window().volume()
    reports = []
    for group, grid, masks in _sweep(desc, D, Ts):
        primitive, inner = classify(desc, grid)
        # the per-axis fast route decides sigma(x) again on each primitive x
        agree = np.ones_like(primitive)
        if axis_factors(desc.window) is not None:
            agree = ~primitive | (_in_inner_box(desc, grid) == inner)
        if method == "moebius":
            weights = _moebius_weights(desc.field, grid)
            within = grid.mask(desc.inner_window, desc.field.d,
                               conjugate=True)
            agree &= ((weights == primitive)
                      & (inner == ((weights == 1) & within)))
        for i, m in zip(group, masks):
            count_pr = int((primitive & m).sum())
            count_pr_inner = int((inner & m).sum())
            count_vis = count_pr - count_pr_inner
            vol_td = D.scaled(Ts[i]).volume()
            reports.append(CountReport(
                T=float(Ts[i]), count_vis=count_vis, count_pr=count_pr,
                count_all=int(m.sum()), vol_TD=vol_td,
                M_T=vol_w * vol_td / desc.covolume(), predicted=predicted,
                rel_error=abs(count_vis / vol_td - predicted) / predicted,
                count_pr_inner=count_pr_inner,
                identity_ok=bool(agree[m].all())))
    return reports


@dataclass
class RateFit:
    pairs: list
    slope: float
    intercept: float
    residual: float

    def to_json(self) -> dict:
        return asdict(self)


def rate_fit(reports: list[CountReport]) -> RateFit:
    """Least-squares slope of log|relative error| against log vol(TD)."""
    if len(reports) < 6:
        raise DegenerateFit("need at least 6 reports")
    if any(r.rel_error <= 0 for r in reports):
        raise DegenerateFit("zero error hit; jitter the T grid")
    xs = np.log([r.vol_TD for r in reports])
    ys = np.log([r.rel_error for r in reports])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return RateFit(pairs=list(zip(xs.tolist(), ys.tolist())),
                   slope=float(slope), intercept=float(intercept),
                   residual=resid)


def random_lattice_experiment(n: int, d: int, window: Box, omega: Box,
                              T_list, samples: int, seed: int) -> dict:
    """Counts of primitive integer vectors u (gcd over Z equal 1) with
    g*u in (T*Omega) x W for iid Gaussian g normalized to |det| = 1.

    The mean of count/(vol(W)*vol(T*Omega)) over samples estimates
    1/zeta(n).  Deterministic for a fixed seed."""
    m = n - d
    if not isinstance(window, Box) or not isinstance(omega, Box):
        raise ValueError("the random experiment needs box regions")
    if window.dim != m or omega.dim != d:
        raise ValueError("omega and window dimensions must be d and n - d")
    boxes = []
    for T in T_list:
        bbox = [(float(lo) * T, float(hi) * T) for lo, hi in omega.bbox()]
        bbox += [(float(lo), float(hi)) for lo, hi in window.bbox()]
        widths = [hi - lo for lo, hi in bbox]
        vol = math.prod(widths)
        # box_reduced_basis scales the Gram entries of a sample by 1/w^2,
        # which these widths keep in [2^-800, 2^800], inside the float range
        if not (0 < vol < math.inf
                and all(2.0 ** -400 <= w <= 2.0 ** 400 for w in widths)):
            raise ValueError(f"T={T} gives the box T*omega x window the "
                             f"widths {widths}; each must lie in [2^-400, "
                             f"2^400] and their product in (0, inf)")
        boxes.append((T, bbox, np.array(widths), vol))
    rng = np.random.default_rng(seed)
    bases = []
    for _ in range(samples):
        g = rng.standard_normal((n, n))
        g /= abs(np.linalg.det(g)) ** (1.0 / n)
        bases.append(g)
    bases = np.stack(bases)
    zn = float(mpmath.zeta(n))
    per_T = []
    total_count = 0
    total_boundary = 0
    for T, bbox, widths, vol in boxes:
        lo_x = np.array([b[0] for b in bbox])
        hi_x = np.array([b[1] for b in bbox])
        # every sample at once: one stacked call per stage
        g = box_reduced_basis(bases, widths)
        lo_u, hi_u = kernels.integer_preimage_box(np.linalg.inv(g), bbox)
        counts, bnds = kernels.count_lattice_points_in_boxes(
            g, lo_u, hi_u, lo_x, hi_x)
        boundary = int(bnds.sum())
        total_count += int(counts.sum())
        total_boundary += boundary
        dens = counts / vol
        per_T.append({
            "T": float(T), "volume": vol,
            "mean_density": float(dens.mean()),
            "std_density": float(dens.std()),
            "rel_error_vs_zeta": float(abs(dens.mean() - 1 / zn) * zn),
            "boundary_ambiguous": int(boundary),
        })
    return {
        "n": n, "d": d, "m": m, "samples": samples, "seed": seed,
        "zeta_n": zn, "predicted_density": 1 / zn,
        "backend": kernels.backend_name(),
        "per_T": per_T,
        "total_count": int(total_count),
        "total_boundary_ambiguous": int(total_boundary),
        "boundary_fraction": (total_boundary / total_count
                              if total_count else 0.0),
    }
