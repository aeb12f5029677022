"""Density estimation for visible points of cut-and-project sets: direct and
Moebius inclusion-exclusion primitive counts, predicted-density formulas,
convergence-rate fitting and the random-lattice 1/zeta(n) experiment."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction

import numpy as np

from . import kernels
from .cutproject import CPSetDesc
from .lattice import box_reduced_basis, field_point_arrays
from .quadfield import (
    ZETA_TOL,
    as_scalar,
    dedekind_zeta_highprec,
    divisible_by,
    floor_quad,
    fundamental_unit,
    ideal_norms,
    int_lin,
    int_mul,
    iter_ring_box,
    moebius,
    omega_coords,
    over_common_den,
    quad_sign_array,
)
from .regions import Box


class DegenerateFit(ValueError):
    pass


def riemann_zeta(s: int) -> float:
    """zeta(s) for integer s >= 2 by partial sums; the tail is replaced by
    the midpoint of its integral-test bracket, leaving error below
    ZETA_TOL."""
    if s < 2:
        raise ValueError("s must be >= 2")
    N = 16
    while s / 2 * N ** (-s) > ZETA_TOL:
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

    def csv_row(self) -> str:
        return (f"{self.T:g},{self.count_vis},{self.count_pr},"
                f"{self.count_all},{self.vol_TD:.12g},{self.M_T:.12g},"
                f"{self.predicted:.12g},{self.rel_error:.12g},"
                f"{self.boundary_ambiguous},{self.count_pr_inner},"
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


def _norm_cutoff(desc: CPSetDesc, D, T) -> int:
    """Any g whose sublattice term is nonempty divides a nonzero coordinate
    x_i with |x_i| <= R_T and |sigma(x_i)| <= R_W, so |N(g)| <= R_T*R_W.
    Returns floor(R_T*R_W) + 1, computed exactly."""
    d = desc.field.d
    r_t = Fraction(T) * max(max(abs(lo), abs(hi)) for lo, hi in D.bbox())
    # R_T = r/L and each bound of the window (a + b*sqrt(d))/L; the floor
    # of R_T*|bound| is the larger floor of the two signs
    (r, *nums), L = over_common_den(
        [r_t, *(c for lohi in desc.scaled_window().bbox() for bound in lohi
                for c in as_scalar(bound))])
    return 1 + max(floor_quad(s * r * a, s * r * b, L * L, d)
                   for a, b in zip(nums[::2], nums[1::2]) for s in (1, -1))


def _norm_gcd(d: int, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Per row of integer arrays P, Q of shape (N, k), the gcd over i of
    |N(x_i)| = |p_i^2 - d*q_i^2|/4 for x_i = (p_i + q_i*sqrt(d))/2; 0 for a
    zero row."""
    G = np.zeros(len(P), dtype=np.int64)
    for p, q in zip(P.T, Q.T):
        n = int_lin([(1, int_mul(p, p)), (-d, int_mul(q, q))]) // 4
        G = np.gcd(G, np.abs(n))
    return G


def moebius_count_primitive(desc: CPSetDesc, D, T,
                            beta_exp: int | None = None, *,
                            points=None) -> int:
    """Primitive-point count by inclusion-exclusion over unit-class
    representatives g in [1, lambda) with mu(g) != 0:
    sum_g mu(g) * #(nonzero points of Lambda(beta*W, L_g) in T*D).

    points, if given, is the (P, Q) pair of integer arrays of that set (as
    field_point_arrays filters it); otherwise the set is enumerated here.
    g | x implies N(g) | G(x) = gcd_i N(x_i), so a g whose norm divides no
    point's G has an empty term and is skipped before its mu is computed;
    the others are tested on the points with N(g) | G only.  Terms beyond
    the certified norm cutoff are provably empty."""
    if beta_exp is not None:
        desc = replace(desc, beta_exp=beta_exp)
    desc.require_hammarhjelm()
    fld = desc.field
    if points is None:
        _, P, Q, keep = field_point_arrays(
            fld, D.scaled(Fraction(T)), desc.scaled_window())
        points = P[keep], Q[keep]
    P, Q = points
    G = _norm_gcd(fld.d, P, Q)
    # the nonzero rows sorted by G, so that each value of G is one slice
    nonzero = np.flatnonzero(G)
    order = nonzero[np.argsort(G[nonzero], kind="stable")]
    (A, B), G = omega_coords(fld, P[order], Q[order]), G[order]
    G_values, starts = np.unique(G, return_index=True)
    slices = [slice(a, b) for a, b in zip(starts, [*starts[1:], len(G)])]
    lam = fundamental_unit(fld)
    cutoff = _norm_cutoff(desc, D, T)
    total = 0
    for g in iter_ring_box(fld, 1, lam, -cutoff, cutoff, x_hi_open=True):
        n = abs(g.norm())
        if n > cutoff:
            continue
        if n == 1:  # g = 1, the only unit in [1, lambda)
            total += len(G)
            continue
        groups = np.flatnonzero(G_values % n == 0)
        if not len(groups):
            continue
        mu = moebius(g)
        if mu == 0:
            continue
        rows = np.r_[tuple(slices[j] for j in groups)]
        total += mu * int(divisible_by(g, A[rows].T, B[rows].T).sum())
    return total


def _in_inner_box(desc: CPSetDesc, P: np.ndarray,
                  Q: np.ndarray) -> np.ndarray:
    """Fast route for a box window W: sigma(x) = (P + Q*sqrt(d))/2 lies in
    lambda^(beta_exp-1)*W iff mult*sigma(x) lies in W, mult =
    lambda^(1-beta_exp), tested in integers against the box bounds over one
    common denominator L."""
    box, d = desc.window, desc.field.d
    mult = desc.unit_power(1 - desc.beta_exp)
    bounds = [b for lohi in box.bounds for b in lohi]
    L = math.lcm(*(b.denominator for b in bounds))
    inside = np.ones(len(P), dtype=bool)
    for i, (lo, hi) in enumerate(box.bounds):
        # 4*L*mult*sigma(x_i) = A + B*sqrt(d), with mult = (p + q*sqrt(d))/2
        A = int_lin([(L * mult.p, P[:, i]), (L * mult.q * d, Q[:, i])])
        B = int_lin([(L * mult.q, P[:, i]), (L * mult.p, Q[:, i])])
        s = quad_sign_array(int_lin([(1, A)], -int(4 * L * lo)), B, d)
        inside &= (s > 0) if box.lo_open[i] else (s >= 0)
        s = quad_sign_array(int_lin([(-1, A)], int(4 * L * hi)), -B, d)
        inside &= (s > 0) if box.hi_open[i] else (s >= 0)
    return inside


def visible_count(desc: CPSetDesc, D, T, method: str = "direct",
                  predicted: float | None = None) -> CountReport:
    """Classify one window of the cut-and-project set and assemble a report.

    A point is visible iff its coordinate gcd is one and its conjugate lies
    outside the closed inner window.  Both run on integer arrays: the gcd
    as one batch of ideal norms over the whole set (the origin has norm 0),
    the inner window through the generic region code (contains_exact);
    for a box window the integer fast route decides it again independently,
    and identity_ok records that the two agree on every point.
    method='moebius' additionally checks both primitive counts against
    inclusion-exclusion sums: the outer one over this same set of points,
    the inner one over its own enumeration of the beta/lambda set."""
    desc.require_hammarhjelm()
    _, P, Q, keep = field_point_arrays(desc.field, D.scaled(Fraction(T)),
                                       desc.scaled_window())
    P, Q = P[keep], Q[keep]
    outer = P, Q
    count_all = len(P)
    primitive = ideal_norms(desc.field,
                            *omega_coords(desc.field, P.T, Q.T)) == 1
    count_pr = int(primitive.sum())
    # sigma(x) = (p - q*sqrt(d))/2 for x = (p + q*sqrt(d))/2
    P, Q = P[primitive], -Q[primitive]
    inner = desc.inner_window.contains_exact(P.T, Q.T, 2, desc.field.d)
    identity_ok = True
    if isinstance(desc.window, Box):
        fast = _in_inner_box(desc, P, Q)
        identity_ok = bool(np.array_equal(fast, inner))
        inner = fast
    count_pr_inner = int(inner.sum())
    count_vis = count_pr - count_pr_inner
    if method == "moebius":
        m_outer = moebius_count_primitive(desc, D, T, points=outer)
        m_inner = moebius_count_primitive(desc, D, T,
                                          beta_exp=desc.beta_exp - 1)
        identity_ok = identity_ok and m_outer == count_pr \
            and m_inner == count_pr_inner
    if predicted is None:
        predicted = predicted_density_hammarhjelm(desc)
    vol_td = D.scaled(Fraction(T)).volume()
    m_t = desc.scaled_window().volume() * vol_td / desc.covolume()
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
        widths = hi_x - lo_x
        vol = math.prod(widths.tolist())
        if vol == math.inf:
            raise ValueError(f"T={T} puts the volume of T*omega x window "
                             f"past the float range")
        results = []
        for g0 in bases:
            g = box_reduced_basis(g0, widths)
            lo_u, hi_u = kernels.integer_preimage_box(np.linalg.inv(g), bbox)
            results.append(kernels.count_lattice_points_in_box(
                g, lo_u, hi_u, lo_x, hi_x, primitive=True))
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
