"""Cut-and-project sets over Minkowski-embedded field lattices: generation,
exact visibility classification and strict-inclusion witnesses.

Visibility is decided two independent ways, both in exact arithmetic: the
fast gcd/window characterization on Hammarhjelm examples, and the
definitional oracle, which keys each point by its exact open ray from the
origin and compares exact lengths along it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernels
from .lattice import box_reduced_basis, enumerate_field_points_exact
from .quadfield import (
    FieldDesc,
    QuadInt,
    check_hammarhjelm,
    fundamental_unit,
    gcd_is_one,
)
from .regions import UnitScaled


class NotHammarhjelm(ValueError):
    pass


class InsufficientCover(ValueError):
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
    coords_phys: tuple
    coords_int: tuple

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


def _make_point(xs: tuple[QuadInt, ...]) -> CPPoint:
    return CPPoint(
        quad_coords=xs,
        coords_phys=tuple(float(x) for x in xs),
        coords_int=tuple(x.conj_float() for x in xs),
    )


class PointSet(tuple):
    """An immutable tuple of CPPoints that indexes its own rays once."""

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
    return PointSet(_make_point(xs) for xs in enumerate_field_points_exact(
        desc.field, D.scaled(Fraction(T)), desc.scaled_window()))


def visible_fast(desc: CPSetDesc, x: CPPoint) -> bool:
    """Visibility via the Hammarhjelm characterization: coordinate gcd is a
    unit and the conjugate vector avoids the closed window (1/lambda)*beta*W."""
    desc.require_hammarhjelm()
    xs = x.quad_coords
    if not gcd_is_one(list(xs)):  # the origin has ideal norm 0
        return False
    # sigma(x) = (p - q*sqrt(d))/2 for x = (p + q*sqrt(d))/2
    return not desc.inner_window.contains_exact(
        [q.p for q in xs], [-q.q for q in xs], 2, desc.field.d)


def visible_oracle(desc: CPSetDesc, x: CPPoint, points, cover=None) -> bool:
    """Definitional visibility: x is visible iff no supplied point lies on the
    open segment from the origin to x, that is on the ray of x and shorter.
    The caller must supply points covering Lambda on that segment (e.g. a
    generate() result for a star-shaped averaging set containing x);
    cover=(D, T) with rational T > 0 checks that x lies in T*D.  The
    shortest length per ray is indexed once per PointSet; any other
    sequence of points is wrapped in one first."""
    if x.is_origin:
        return False
    if cover is not None:
        D, T = cover
        # x = (p + q*sqrt(d))/2 lies in T*D iff m*x/n lies in D, T = n/m
        n, m = T.as_integer_ratio()
        xs = x.quad_coords
        if not D.contains_exact([m * q.p for q in xs], [m * q.q for q in xs],
                                2 * n, desc.field.d):
            raise InsufficientCover("x outside the covered region")
    if not isinstance(points, PointSet):
        points = PointSet(points)
    key, length = x.ray
    shortest = points.shortest.get(key)
    return shortest is None or shortest >= length


def integer_coords(xs: tuple[QuadInt, ...]) -> tuple[int, ...]:
    out = []
    for x in xs:
        out.append(x.a)
        out.append(x.b)
    return tuple(out)


def strict_inclusion_witness(desc: CPSetDesc, D, T) -> list[CPPoint]:
    """Points of Lambda(W, L_vis) inside T*D that are invisible in Lambda.

    A lattice point y is visible in L iff its integer coordinate vector is
    primitive over Z; the projected point is then checked against Lambda
    visibility (fast characterization on Hammarhjelm examples, else the
    definitional oracle)."""
    pts = generate(desc, D, T)
    hamm = desc.is_hammarhjelm
    out = []
    for p in pts:
        if p.is_origin:
            continue
        u = integer_coords(p.quad_coords)
        if math.gcd(*u) != 1:
            continue  # y not visible in L
        if hamm:
            vis = visible_fast(desc, p)
        else:
            vis = visible_oracle(desc, p, pts)
        if not vis:
            out.append(p)
    return out


def strict_inclusion_witness_random(basis: np.ndarray, window, D, T: float):
    """Float-path witness search for a lattice basis in R^n: returns the
    points of Lambda(W, L_vis) \\ Lambda(W, L)_vis found in T*D, along with
    the total number of points examined; points within kernels.TOL of the
    origin are not examined."""
    dphys = D.dim
    bbox = [(float(lo) * T, float(hi) * T) for lo, hi in D.bbox()] + \
        [(float(lo), float(hi)) for lo, hi in window.bbox()]
    lo_x = np.array([b[0] for b in bbox])
    hi_x = np.array([b[1] for b in bbox])
    basis = box_reduced_basis(basis, hi_x - lo_x)
    lo_u, hi_u = kernels.integer_preimage_box(np.linalg.inv(basis), bbox)
    U, X, _ = kernels.collect_lattice_points_in_box(
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
            # scale; accidental near-parallels sit orders of magnitude above
            b = phys[i].astype(np.longdouble)
            resid = b - (a @ b / (a @ a)) * a
            cross_ok = float(np.sqrt(resid @ resid)) <= 1e-12 * norms[i]
            if cross_ok and math.gcd(*[int(v) for v in U[i]]) == 1:
                witnesses.append((U[i], phys[i]))
    return witnesses, len(U)


def points_to_csv(points: list[CPPoint], visible: list[bool]) -> str:
    d = len(points[0].quad_coords) if points else 0
    cols = [f"a{i+1},b{i+1}" for i in range(d)]
    cols += [f"phys{i+1}" for i in range(d)]
    cols += [f"int{i+1}" for i in range(d)]
    header = ",".join(cols) + ",visible\n"
    lines = [header]
    for p, vis in zip(points, visible):
        row = []
        for x in p.quad_coords:
            row += [str(x.a), str(x.b)]
        row += [f"{v:.12g}" for v in p.coords_phys]
        row += [f"{v:.12g}" for v in p.coords_int]
        row.append(str(int(vis)))
        lines.append(",".join(row) + "\n")
    return "".join(lines)
