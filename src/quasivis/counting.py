"""Density estimation for visible points of cut-and-project sets: direct and
Moebius inclusion-exclusion primitive counts, predicted-density formulas,
convergence-rate fitting and the random-lattice 1/zeta(n) experiment."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np

from . import kernels
from .cutproject import CPSetDesc, iter_raw
from .lattice import box_reduced_basis, field_point_arrays
from .quadfield import (
    as_scalar,
    dedekind_zeta_highprec,
    enumerate_ring_box,
    fundamental_unit,
    ideal_from_generators,
    ideal_norms,
    int_lin,
    moebius,
    omega_coords,
    principal_ideal,
    quad_floor,
    quad_sign,
    quad_sign_array,
)
from .regions import Box, s_float


class DegenerateFit(ValueError):
    pass


def riemann_zeta(s: int, tol: float = 1e-9) -> float:
    """zeta(s) for integer s >= 2 by partial sums; the tail is replaced by
    the midpoint of its integral-test bracket, leaving error below tol."""
    if s < 2:
        raise ValueError("s must be >= 2")
    N = 16
    while s / 2 * N ** (-s) > tol:
        N *= 2
    n = np.arange(1, N + 1, dtype=np.float64)
    partial = float(np.sum(n ** (-float(s))))
    lo = (N + 1) ** (1 - s) / (s - 1)
    hi = N ** (1 - s) / (s - 1)
    return partial + (lo + hi) / 2


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
    boundary_ambiguous: int = 0
    count_pr_inner: int = 0
    identity_ok: bool = True

    CSV_HEADER = ("T,count_vis,count_pr,count_all,vol_TD,M_T,predicted,"
                  "rel_error,boundary_ambiguous,count_pr_inner,identity_ok")

    def csv_row(self) -> str:
        return (f"{self.T:g},{self.count_vis},{self.count_pr},"
                f"{self.count_all},{self.vol_TD:.12g},{self.M_T:.12g},"
                f"{self.predicted:.12g},{self.rel_error:.12g},"
                f"{self.boundary_ambiguous},{self.count_pr_inner},"
                f"{int(self.identity_ok)}")

    def to_json(self) -> dict:
        return {
            "T": self.T, "count_vis": self.count_vis,
            "count_pr": self.count_pr, "count_all": self.count_all,
            "vol_TD": self.vol_TD, "M_T": self.M_T,
            "predicted": self.predicted, "rel_error": self.rel_error,
            "boundary_ambiguous": self.boundary_ambiguous,
            "count_pr_inner": self.count_pr_inner,
            "identity_ok": self.identity_ok,
        }


def predicted_density_hammarhjelm(desc: CPSetDesc,
                                  tol: float = 1e-9) -> float:
    """Density of the visible points of Lambda(beta*W, L) per unit volume of
    physical space: (1 - lambda^(-d)) * (vol(beta*W)/covol(L)) / zeta_K(d)."""
    desc.require_hammarhjelm()
    fld = desc.field
    lam_inv_d = s_float(desc.unit_power_scalar(-desc.d), fld.d)
    vol_w = desc.scaled_window().volume()
    covol = desc.lattice.covolume()
    z = dedekind_zeta_highprec(fld, desc.d, tol)
    return (1.0 - lam_inv_d) * (vol_w / covol) / z


def _norm_cutoff(desc: CPSetDesc, D, T) -> int:
    """Any g whose sublattice term is nonempty divides a nonzero coordinate
    x_i with |x_i| <= R_T and |sigma(x_i)| <= R_W, so |N(g)| <= R_T*R_W.
    Returns floor(R_T*R_W) + 1, computed exactly."""
    d = desc.field.d
    r_t = Fraction(T) * max(max(abs(lo), abs(hi)) for lo, hi in D.bbox())
    products = []
    for b in (b for lohi in desc.scaled_window().bbox() for b in lohi):
        A, B = as_scalar(b)
        if quad_sign(A, B, d) < 0:
            A, B = -A, -B
        products.append(quad_floor(r_t * A, r_t * B, d))
    return max(products) + 1


def moebius_count_primitive(desc: CPSetDesc, D, T,
                            beta_exp: int | None = None) -> int:
    """Primitive-point count by inclusion-exclusion over unit-class
    representatives g in [1, lambda) with mu(g) != 0:
    sum_g mu(g) * #(nonzero points of Lambda(beta*W, L_g) in T*D).

    Terms beyond the certified norm cutoff are provably empty."""
    if beta_exp is not None:
        desc = replace(desc, beta_exp=beta_exp)
    desc.require_hammarhjelm()
    fld = desc.field
    lam = fundamental_unit(fld).value
    ideal_mult = Counter(ideal_from_generators(list(xs))
                         for xs in iter_raw(desc, D, T) if any(xs))
    cutoff = _norm_cutoff(desc, D, T)
    total = 0
    for g in enumerate_ring_box(fld, 1, lam, -cutoff, cutoff,
                                x_hi_open=True):
        if abs(g.norm()) > cutoff:
            continue
        pg = principal_ideal(g)
        mu = moebius(pg)
        if mu == 0:
            continue
        cnt = sum(m for ix, m in ideal_mult.items()
                  if pg.contains_ideal(ix))
        total += mu * cnt
    return total


def _inner_mult(desc: CPSetDesc):
    """lambda^(1 - beta_exp) as a QuadInt (beta_exp <= 1), so that
    sigma(x) in lambda^(beta_exp-1)*W  iff  mult*sigma(x) in W."""
    k = 1 - desc.beta_exp
    if k < 0:
        raise ValueError("beta_exp > 1 not supported on the integer fast path")
    return fundamental_unit(desc.field).value ** k


def _in_inner_box(desc: CPSetDesc, P: np.ndarray,
                  Q: np.ndarray) -> np.ndarray:
    """Fast route for a box window W: sigma(x) = (P + Q*sqrt(d))/2 lies in
    lambda^(beta_exp-1)*W iff mult*sigma(x) lies in W, tested in integers
    against the box bounds over one common denominator L."""
    box, d = desc.window, desc.field.d
    mult = _inner_mult(desc)
    lo_open, hi_open = box._flags()
    bounds = [b for lohi in box.bounds for b in lohi]
    L = math.lcm(*(b.denominator for b in bounds))
    inside = np.ones(len(P), dtype=bool)
    for i, (lo, hi) in enumerate(box.bounds):
        # 4*L*mult*sigma(x_i) = A + B*sqrt(d), with mult = (p + q*sqrt(d))/2
        A = int_lin([(L * mult.p, P[:, i]), (L * mult.q * d, Q[:, i])])
        B = int_lin([(L * mult.q, P[:, i]), (L * mult.p, Q[:, i])])
        s = quad_sign_array(int_lin([(1, A)], -int(4 * L * lo)), B, d)
        inside &= (s > 0) if lo_open[i] else (s >= 0)
        s = quad_sign_array(int_lin([(-1, A)], int(4 * L * hi)), -B, d)
        inside &= (s > 0) if hi_open[i] else (s >= 0)
    return inside


def visible_count(desc: CPSetDesc, D, T, method: str = "direct",
                  predicted: float | None = None) -> CountReport:
    """Classify one window of the cut-and-project set and assemble a report.

    A point is visible iff its coordinate gcd is one and its conjugate lies
    outside the closed inner window.  Both run on integer arrays: the gcd
    as one batch of ideal norms over the whole set (the origin has norm 0),
    the inner window through the generic region code (contains_exact_batch);
    for a box window the integer fast route decides it again independently,
    and identity_ok records that the two agree on every point.
    method='moebius' additionally checks both primitive counts against
    inclusion-exclusion sums."""
    desc.require_hammarhjelm()
    _, P, Q, keep = field_point_arrays(desc.lattice, D.scaled(Fraction(T)),
                                       desc.scaled_window())
    P, Q = P[keep], Q[keep]
    count_all = len(P)
    primitive = ideal_norms(desc.field, *omega_coords(desc.field, P, Q)) == 1
    count_pr = int(primitive.sum())
    # sigma(x) = (p - q*sqrt(d))/2 for x = (p + q*sqrt(d))/2
    P, Q = P[primitive], -Q[primitive]
    inner = desc.scaled_window(extra_exp=-1).contains_exact_batch(
        P, Q, 2, desc.field.d)
    identity_ok = True
    if isinstance(desc.window, Box):
        fast = _in_inner_box(desc, P, Q)
        identity_ok = bool(np.array_equal(fast, inner))
        inner = fast
    count_pr_inner = int(inner.sum())
    count_vis = count_pr - count_pr_inner
    if method == "moebius":
        m_outer = moebius_count_primitive(desc, D, T)
        m_inner = moebius_count_primitive(desc, D, T,
                                          beta_exp=desc.beta_exp - 1)
        identity_ok = identity_ok and m_outer == count_pr \
            and m_inner == count_pr_inner
    if predicted is None:
        predicted = predicted_density_hammarhjelm(desc)
    vol_td = D.scaled(Fraction(T)).volume()
    m_t = desc.scaled_window().volume() * vol_td / desc.lattice.covolume()
    rel = abs(count_vis / vol_td - predicted) / predicted
    return CountReport(T=float(T), count_vis=count_vis, count_pr=count_pr,
                       count_all=count_all, vol_TD=vol_td, M_T=m_t,
                       predicted=predicted, rel_error=rel,
                       count_pr_inner=count_pr_inner,
                       identity_ok=identity_ok)


@dataclass
class RateFit:
    pairs: list
    slope: float
    intercept: float
    residual: float

    def to_json(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs], "slope": self.slope,
                "intercept": self.intercept, "residual": self.residual}


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
                              T_list, samples: int, seed: int,
                              tol: float = 1e-9) -> dict:
    """Counts of primitive integer vectors u (gcd over Z equal 1) with
    g*u in (T*Omega) x W for iid Gaussian g normalized to |det| = 1.

    The mean of count/(vol(W)*vol(T*Omega)) over samples estimates
    1/zeta(n).  Deterministic for a fixed seed."""
    m = n - d
    if window.dim != m or omega.dim != d:
        raise ValueError("window/omega dimensions must split n")
    rng = np.random.default_rng(seed)
    bases = []
    for _ in range(samples):
        g = rng.standard_normal((n, n))
        g /= abs(np.linalg.det(g)) ** (1.0 / n)
        bases.append(g)
    zn = riemann_zeta(n)
    per_T = []
    total_count = 0
    total_boundary = 0
    for T in T_list:
        bbox = [(float(lo) * T, float(hi) * T) for lo, hi in omega.bbox()]
        bbox += [(float(lo), float(hi)) for lo, hi in window.bbox()]
        lo_x = np.array([b[0] for b in bbox])
        hi_x = np.array([b[1] for b in bbox])
        vol = float(np.prod(hi_x - lo_x))
        widths = hi_x - lo_x
        results = []
        for g0 in bases:
            g = box_reduced_basis(g0, widths)
            lo_u, hi_u = kernels.integer_preimage_box(np.linalg.inv(g), bbox)
            results.append(kernels.count_lattice_points_in_box(
                g, lo_u, hi_u, lo_x, hi_x, tol=tol, primitive=True))
        densities = [cnt / vol for cnt, _ in results]
        boundary = sum(bnd for _, bnd in results)
        total_count += sum(cnt for cnt, _ in results)
        total_boundary += boundary
        dens = np.array(densities)
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
