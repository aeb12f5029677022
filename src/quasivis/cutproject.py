"""Cut-and-project sets over Minkowski-embedded field lattices: generation,
exact visibility classification and strict-inclusion witnesses.

Visibility is decided two independent ways, both in exact arithmetic: the
fast gcd/window characterization on Hammarhjelm examples (classify), and the
definitional oracle, which keys each point by its exact open ray from the
origin and compares exact lengths along it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernels, lattice
from .lattice import (AxisGrid, box_reduced_basis,
                      enumerate_field_points_exact)
from .quadfield import (
    FieldDesc,
    QuadInt,
    check_hammarhjelm,
    fundamental_unit,
    gcd_is_one,
    ideal_norms,
    omega_coords,
)
from .regions import Box, UnitScaled


class NotHammarhjelm(ValueError):
    pass


@dataclass(frozen=True)
class CPSetDesc:
    """Description of a cut-and-project set Lambda(beta*W, L) with
    L the d-fold Minkowski lattice of the field and beta = lambda^beta_exp."""

    field: FieldDesc
    d: int
    window: object
    beta_exp: int = 0

    def covolume(self) -> float:
        """Covolume of the d-fold Minkowski lattice: each block (1, omega;
        1, sigma(omega)) has |det| = sqrt(disc)."""
        return math.sqrt(self.field.disc ** self.d)

    def unit_power(self, k: int) -> QuadInt:
        """lambda^k for any integer k; 1/lambda = N(lambda)*sigma(lambda)."""
        lam = fundamental_unit(self.field)
        if k < 0:
            lam, k = lam.norm() * lam.conj(), -k
        return lam ** k

    def scaled_window(self, extra_exp: int = 0):
        """Region lambda^(beta_exp + extra_exp) * W with exact membership."""
        e = self.beta_exp + extra_exp
        if e == 0:
            return self.window
        return UnitScaled(self.window, self.unit_power(-e))

    @cached_property
    def inner_window(self):
        """The closed window (1/lambda)*beta*W of the visibility test."""
        return self.scaled_window(extra_exp=-1)

    @cached_property
    def is_hammarhjelm(self) -> bool:
        """A PID field that passes the unit-box test, with a centrally
        symmetric window; decided once per description."""
        return (self.field.is_pid
                and self.window.is_centrally_symmetric()
                and check_hammarhjelm(self.field))

    def require_hammarhjelm(self):
        if not self.is_hammarhjelm:
            raise NotHammarhjelm(
                f"d={self.field.d} with this window is not a Hammarhjelm example")


@dataclass(frozen=True)
class CPPoint:
    quad_coords: tuple

    @property
    def is_origin(self) -> bool:
        return all(not x for x in self.quad_coords)

    @cached_property
    def ray(self) -> tuple:
        """(key, length) of the open ray from the origin through this point.

        With x_k the first nonzero coordinate, key = (k, sign(x_k), n,
        *nums): nums are the omega-coordinates of x_i*sigma(x_k) (i > k)
        and n = N(x_k), all divided by +-gcd(n, *nums) so that n > 0, which
        is the ratios x_i/x_k in lowest terms.  Two points share the key
        exactly when they lie on one open ray, and length = |x_k| orders
        them along it.  The origin gets (None, None)."""
        xs = self.quad_coords
        k = next((i for i, x in enumerate(xs) if x), None)
        if k is None:
            return None, None
        xk = xs[k]
        n = xk.norm()
        nums = []
        for xi in xs[k + 1:]:
            z = xi * xk.conj()
            nums += [z.a, z.b]
        g = math.gcd(n, *nums) * (1 if n > 0 else -1)
        return (k, xk.sign(), n // g, *(c // g for c in nums)), abs(xk)


class PointSet(tuple):
    """An immutable tuple of CPPoints that indexes its rays once."""

    @cached_property
    def shortest(self) -> dict:
        """Per ray key, the shortest exact length among the points on it."""
        out = {}
        for p in self:
            key, length = p.ray
            if key is not None and (key not in out or length < out[key]):
                out[key] = length
        return out


def generate(desc: CPSetDesc, D, T) -> PointSet:
    """All points of the cut-and-project set inside T*D (exact path)."""
    return PointSet(map(CPPoint, enumerate_field_points_exact(
        desc.field, D.scaled(Fraction(T)), desc.scaled_window())))


def classify(desc: CPSetDesc, grid: AxisGrid) -> tuple:
    """Hammarhjelm's characterization on the columns of an AxisGrid: masks
    of the points whose coordinates generate O_K (not the origin) and of
    the primitive ones with sigma(x) in the closed window
    (1/lambda)*beta*W.  Visible is primitive & ~inner.  The ideal norms are
    per column; a window that is a product of 1-D sets (a box) is decided
    once per axis candidate, any other on the primitive columns."""
    desc.require_hammarhjelm()
    fld = desc.field
    primitive = ideal_norms(fld, *omega_coords(fld, *grid.columns())) == 1
    inner = np.zeros_like(primitive)
    inner[primitive] = grid._replace(idx=grid.idx[:, primitive]).mask(
        desc.inner_window, fld.d, conjugate=True)
    return primitive, inner


def visible_fast(desc: CPSetDesc, x: CPPoint) -> bool:
    """classify's reference, one point at a time: coordinate gcd is a unit
    and the conjugate vector avoids the closed window (1/lambda)*beta*W."""
    desc.require_hammarhjelm()
    xs = x.quad_coords
    if not gcd_is_one(list(xs)):  # the origin has ideal norm 0
        return False
    # sigma(x) = (p - q*sqrt(d))/2 for x = (p + q*sqrt(d))/2
    return not desc.inner_window.contains_exact(
        [q.p for q in xs], [-q.q for q in xs], 2, desc.field.d)


def visible_oracle(desc: CPSetDesc, x: CPPoint, points) -> bool:
    """Definitional visibility: x is visible iff no supplied point lies on the
    open segment from the origin to x, that is on the ray of x and shorter.
    The caller must supply points covering Lambda on that segment (e.g. a
    generate() result for a star-shaped averaging set containing x); desc
    names the set, and the test reads only the points.  The shortest
    length per ray is indexed once per PointSet; any other
    sequence of points is wrapped in one first."""
    if x.is_origin:
        return False
    if not isinstance(points, PointSet):
        points = PointSet(points)
    key, length = x.ray
    shortest = points.shortest.get(key)
    return shortest is None or shortest >= length


def strict_inclusion_witness(desc: CPSetDesc, D, T) -> list[CPPoint]:
    """Points of Lambda(W, L_vis) inside T*D that are invisible in Lambda
    (classify's verdict, so desc must be a Hammarhjelm example): a lattice
    point y is visible in L iff its integer coordinate vector, the
    omega-coordinates of x, is primitive over Z.  The witnesses come in
    generate's order."""
    axes, grid = lattice.field_point_arrays(
        desc.field, D.scaled(Fraction(T)), desc.scaled_window())
    primitive, inner = classify(desc, grid)
    z_primitive = np.gcd.reduce(
        np.concatenate(omega_coords(desc.field, *grid.columns())), axis=0) == 1
    witness = grid.idx[:, z_primitive & (inner | ~primitive)]
    return [CPPoint(tuple(a[k] for a, k in zip(axes, col)))
            for col in witness.T.tolist()]


def strict_inclusion_witness_random(basis: np.ndarray, window, D, T: float):
    """Float-path witness search for a lattice basis in R^n: returns the
    points of Lambda(W, L_vis) \\ Lambda(W, L)_vis found in T*D, along with
    the total number of points examined; points within kernels.TOL of the
    origin are not examined.  D and the window are boxes, searched as they
    are."""
    if not isinstance(window, Box) or not isinstance(D, Box):
        raise ValueError("the witness search needs box regions")
    dphys = D.dim
    bbox = [(float(lo) * T, float(hi) * T) for lo, hi in D.bbox()] + \
        [(float(lo), float(hi)) for lo, hi in window.bbox()]
    lo_x = np.array([b[0] for b in bbox])
    hi_x = np.array([b[1] for b in bbox])
    basis = box_reduced_basis(basis, hi_x - lo_x)
    lo_u, hi_u = kernels.integer_preimage_box(np.linalg.inv(basis), bbox)
    U, X = kernels.collect_lattice_points_in_box(
        basis, lo_u, hi_u, lo_x, hi_x)
    phys = X[:, :dphys]
    keep = np.linalg.norm(phys, axis=1) > kernels.TOL
    U, phys = U[keep], phys[keep]
    norms = np.linalg.norm(phys, axis=1)
    dirs = phys / norms[:, None]
    # Group by direction; on a Haar-random lattice every group is a.s. a
    # full ray of multiples or a singleton.
    buckets: dict[tuple, list[int]] = {}
    for i, v in enumerate(dirs):
        key = tuple(np.round(v / 1e-7).astype(np.int64))
        buckets.setdefault(key, []).append(i)
    witnesses = []
    for key, idxs in buckets.items():
        if len(idxs) < 2:
            continue
        idxs.sort(key=lambda i: norms[i])
        shortest = idxs[0]
        a = phys[shortest].astype(np.longdouble)
        for i in idxs[1:]:
            # genuine ray multiples have a cross product at rounding-error
            # scale; accidental near-parallels sit orders of magnitude above.
            # A point as long as the shortest (a projection that is not
            # injective) has no point on its open segment.
            b = phys[i].astype(np.longdouble)
            resid = b - (a @ b / (a @ a)) * a
            cross_ok = float(np.sqrt(resid @ resid)) <= 1e-12 * norms[i]
            longer = norms[i] - norms[shortest] > 1e-12 * norms[i]
            if cross_ok and longer and math.gcd(*[int(v) for v in U[i]]) == 1:
                witnesses.append((U[i], phys[i]))
    return witnesses, len(U)


def points_to_csv(fld: FieldDesc, P, Q, visible) -> str:
    """One row per column x = (P + Q*sqrt(d))/2: the omega-coordinates a, b
    of each coordinate, then x and sigma(x) as floats (QuadInt.__float__
    and conj_float, elementwise), then the visibility flag."""
    d = len(P)
    cols = [f"a{i+1},b{i+1}" for i in range(d)]
    cols += [f"phys{i+1}" for i in range(d)]
    cols += [f"int{i+1}" for i in range(d)]
    header = ",".join(cols) + ",visible\n"
    lines = [header]
    A, B = (zip(*M.tolist()) for M in omega_coords(fld, P, Q))
    r = math.sqrt(fld.d)
    X, S = (zip(*M.tolist()) for M in ((P + Q * r) / 2, (P - Q * r) / 2))
    for a, b, x, s, vis in zip(A, B, X, S, visible):
        row = ([f"{ai},{bi}" for ai, bi in zip(a, b)]
               + [f"{v:.12g}" for v in x + s] + [str(int(vis))])
        lines.append(",".join(row) + "\n")
    return "".join(lines)
