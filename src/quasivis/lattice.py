"""Lattices and grids in R^n: exact enumeration of the points of O_K^dim
with physical and internal parts in two regions, float-path enumeration of
grid points in convex regions (points within kernels.TOL of the boundary
flagged), covolume and Schmidt-style counting checks."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .quadfield import FieldDesc, int_array, iter_ring_box
from .regions import BOUNDARY


class HypothesisFailed(ValueError):
    def __init__(self, which: str):
        super().__init__(f"Schmidt hypothesis failed: {which}")
        self.which = which


@dataclass(frozen=True)
class GridDesc:
    """Grid basis * Z^n with an R^d x R^m splitting."""

    basis: np.ndarray
    d: int
    m: int

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.float64)
        object.__setattr__(self, "basis", b)
        if abs(np.linalg.det(b)) < 1e-14:
            raise ValueError("basis is singular")

    @property
    def n(self) -> int:
        return self.d + self.m

    def covolume(self) -> float:
        return abs(np.linalg.det(self.basis))

    @cached_property
    def independent_lengths(self) -> list[float]:
        """Lengths of greedily chosen linearly independent short vectors.

        The nonzero combinations with coefficients in [-3, 3] are scanned in
        order of length (ties in lexicographic coefficient order), keeping
        each vector that raises the rank.  The greedy choice of k vectors is
        a prefix of the choice of k + 1, so one scan serves every k."""
        n = self.n
        coeffs = np.array(list(itertools.product(range(-3, 4), repeat=n)),
                          dtype=float)
        coeffs = coeffs[np.any(coeffs != 0, axis=1)]
        vecs = coeffs @ self.basis.T
        lengths = np.linalg.norm(vecs, axis=1)
        order = np.argsort(lengths, kind="stable")
        chosen, out = [], []
        for i in order:
            cand = chosen + [vecs[i]]
            if np.linalg.matrix_rank(np.array(cand), tol=1e-9) == len(cand):
                chosen.append(vecs[i])
                out.append(float(lengths[i]))
                if len(chosen) == n:
                    break
        return out


def enumerate_points(grid: GridDesc, region):
    """All grid points in the region (float path).

    Returns (preimages int array, points float array, boundary flags),
    sorted lexicographically by preimage.  Points within kernels.TOL of the
    region boundary are included and flagged.
    """
    bbox = [(float(lo), float(hi)) for lo, hi in region.bbox()]
    inv = np.linalg.inv(grid.basis)
    lo_u, hi_u = kernels.integer_preimage_box(inv, bbox)
    lo_x = np.array([b[0] for b in bbox])
    hi_x = np.array([b[1] for b in bbox])
    U, X, _ = kernels.collect_lattice_points_in_box(
        grid.basis, lo_u, hi_u, lo_x, hi_x)
    status = region.contains_float(X)
    keep = status != 0
    return U[keep], X[keep], status[keep] == BOUNDARY


def field_point_arrays(fld: FieldDesc, phys_region, int_region):
    """Exact filter of the points x of O_K^dim (dim the regions' dimension)
    with physical part x in phys_region and internal part sigma(x) in
    int_region (regions with rational data).  Returns the per-axis
    candidates (from Minkowski boxes), the integer arrays P, Q of every
    combination in itertools.product order, x_i = (P[:, i] +
    Q[:, i]*sqrt(d))/2, and the mask keep of those in both regions."""
    axes = [list(iter_ring_box(fld, *phys, *internal)) for phys, internal
            in zip(phys_region.bbox(), int_region.bbox())]
    # row i of idx: the axis-i candidate of each combination, product order
    idx = np.indices([len(a) for a in axes]).reshape(len(axes), -1)
    P = np.stack([int_array([x.p for x in a])[k]
                  for a, k in zip(axes, idx)], axis=-1)
    Q = np.stack([int_array([x.q for x in a])[k]
                  for a, k in zip(axes, idx)], axis=-1)
    # x = (p + q*sqrt(d))/2 and its conjugate (p - q*sqrt(d))/2
    keep = (phys_region.contains_exact(P.T, Q.T, 2, fld.d)
            & int_region.contains_exact(P.T, -Q.T, 2, fld.d))
    return axes, P, Q, keep


def enumerate_field_points_exact(fld: FieldDesc, phys_region, int_region):
    """The points field_point_arrays keeps, as QuadInt tuples in its order."""
    axes, _, _, keep = field_point_arrays(fld, phys_region, int_region)
    yield from itertools.compress(itertools.product(*axes), keep)


def box_reduced_basis(basis: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Unimodular column reduction of the basis in box-scaled coordinates.

    Greedy pairwise size reduction of diag(1/widths) @ basis keeps the
    integer bounding box of a [widths]-proportioned region close to the
    count itself; the returned basis spans the same lattice, and coordinate
    gcds of preimages are preserved under the unimodular change.  At most
    100 rounds."""
    n = basis.shape[1]
    scaled = basis / widths[:, None]
    U = np.eye(n, dtype=np.int64)
    for _ in range(100):
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                denom = scaled[:, j] @ scaled[:, j]
                mu = round(float(scaled[:, i] @ scaled[:, j] / denom))
                if mu:
                    scaled[:, i] -= mu * scaled[:, j]
                    U[:, i] -= mu * U[:, j]
                    changed = True
        if not changed:
            break
    return basis @ U


def shortest_independent_bound(grid: GridDesc, count: int) -> float:
    """Max length among `count` linearly independent short lattice vectors
    (GridDesc.independent_lengths); 0.0 for the empty set (count 0), inf
    when the scan finds too few."""
    if count == 0:
        return 0.0
    lengths = grid.independent_lengths
    return lengths[count - 1] if 0 < count <= len(lengths) else math.inf


@dataclass
class SchmidtReport:
    count: int
    expected: float
    discrepancy: float
    bound: float
    ratio: float
    c: float
    T0: float


def schmidt_count_check(grid: GridDesc, region, c: float,
                        T0: float) -> SchmidtReport:
    """Check |#(S cap L) - vol(S)/covol(L)| against the bound shape
    c * T0^(n-1); hypotheses are verified, not assumed."""
    if region.diameter() > T0 + 1e-9:
        raise HypothesisFailed("diameter exceeds T0")
    if shortest_independent_bound(grid, grid.n) > T0 + 1e-9:
        raise HypothesisFailed(f"no {grid.n} independent vectors of length <= T0")
    if shortest_independent_bound(grid, grid.n - 1) > c + 1e-9:
        raise HypothesisFailed(f"no {grid.n - 1} independent vectors of length <= c")
    U, X, _ = enumerate_points(grid, region)
    count = len(U)
    expected = region.volume() / grid.covolume()
    disc = abs(count - expected)
    bound = c * T0 ** (grid.n - 1)
    return SchmidtReport(count=count, expected=expected, discrepancy=disc,
                         bound=bound, ratio=disc / bound if bound else math.inf,
                         c=c, T0=T0)
