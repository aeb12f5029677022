"""Lattices and grids in R^n: exact enumeration of the points of O_K^dim
with physical and internal parts in two regions, as per-axis candidates and
an index grid (AxisGrid), covolume and Schmidt-style counting checks of
grid points in boxes (float path)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .quadfield import FieldDesc, int_array, iter_ring_box
from .regions import Box, axis_factors


class HypothesisFailed(ValueError):
    def __init__(self, which: str):
        super().__init__(f"Schmidt hypothesis failed: {which}")


@dataclass(frozen=True)
class GridDesc:
    """Grid basis * Z^n in R^n."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.float64)
        object.__setattr__(self, "basis", b)
        if abs(np.linalg.det(b)) < 1e-14:
            raise ValueError("basis is singular")

    @property
    def n(self) -> int:
        return self.basis.shape[1]

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


class AxisGrid(NamedTuple):
    """Points of O_K^dim in grid form.  Axis i has the candidates
    (p[i] + q[i]*sqrt(d))/2, integer arrays, and column j of the index grid
    idx, shape (dim, N), is the point whose coordinate i is candidate
    idx[i, j] of axis i."""

    p: list
    q: list
    idx: np.ndarray

    def columns(self) -> tuple:
        """(P, Q) of shape (dim, N), the coordinates of every column."""
        return (np.stack([a[k] for a, k in zip(self.p, self.idx)]),
                np.stack([a[k] for a, k in zip(self.q, self.idx)]))

    def gather(self, axis_masks) -> np.ndarray:
        """Per column, the AND of its candidates' axis masks."""
        out = np.ones(self.idx.shape[1], dtype=bool)
        for mask, k in zip(axis_masks, self.idx):
            out &= mask[k]
        return out

    def mask(self, region, d: int, *, conjugate: bool = False) -> np.ndarray:
        """Exact membership in region of the columns x, or of sigma(x) =
        (P - Q*sqrt(d))/2 when conjugate.  A region that is a product of
        1-D sets (regions.axis_factors) tests each axis's candidates once
        and gathers; any other region tests the columns."""
        factors = axis_factors(region)
        if factors is None:
            P, Q = self.columns()
            return region.contains_exact(P, -Q if conjugate else Q, 2, d)
        qs = [-q for q in self.q] if conjugate else self.q
        return self.gather([f.contains_exact([p], [q], 2, d) for f, p, q
                            in zip(factors, self.p, qs)])


def field_point_arrays(fld: FieldDesc, phys_region, int_region):
    """Exact filter of the points x of O_K^dim (dim the regions' dimension)
    with physical part x in phys_region and internal part sigma(x) in
    int_region (regions with rational data).  Returns the per-axis
    candidates (QuadInts, from Minkowski boxes) and the AxisGrid of the
    points kept, columns in itertools.product order.  Both regions are
    decided per axis when they are products of 1-D sets (boxes, unit-scaled
    boxes, products of those), otherwise on every column of the hull."""
    axes = [list(iter_ring_box(fld, *phys, *internal)) for phys, internal
            in zip(phys_region.bbox(), int_region.bbox())]
    # row i of idx: the axis-i candidate of each combination, product order
    grid = AxisGrid([int_array([x.p for x in a]) for a in axes],
                    [int_array([x.q for x in a]) for a in axes],
                    np.indices([len(a) for a in axes]).reshape(len(axes), -1))
    keep = (grid.mask(phys_region, fld.d)
            & grid.mask(int_region, fld.d, conjugate=True))
    return axes, grid._replace(idx=grid.idx[:, keep])


def enumerate_field_points_exact(fld: FieldDesc, phys_region, int_region):
    """The points field_point_arrays keeps, as QuadInt tuples in its order."""
    axes, grid = field_point_arrays(fld, phys_region, int_region)
    yield from zip(*(map(a.__getitem__, k.tolist())
                     for a, k in zip(axes, grid.idx)))


def box_reduced_basis(basis: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Unimodular column reduction of the basis in box-scaled coordinates.

    Greedy pairwise size reduction of diag(1/widths) @ basis keeps the
    integer bounding box of a [widths]-proportioned region close to the
    count itself; the returned basis spans the same lattice, and coordinate
    gcds of preimages are preserved under the unimodular change.  basis is
    one n x n basis or a stack (S x n x n) reduced in one pass: each step
    takes a mu per basis, rounded half-even as round() does, and the rounds
    stop when no basis changed, at most 100 of them.  A basis that stopped
    changing sees only mu = 0 after that, so each ends where it would end
    alone."""
    n = basis.shape[-1]
    scaled = basis / widths[:, None]
    U = np.broadcast_to(np.eye(n, dtype=np.int64), basis.shape).copy()
    for _ in range(100):
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                sj = scaled[..., j]
                # vecdot takes the dot of each column pair as @ does
                mu = np.rint(np.vecdot(scaled[..., i], sj) / np.vecdot(sj, sj))
                if mu.any():
                    scaled[..., i] -= mu[..., None] * sj
                    U[..., i] -= mu.astype(np.int64)[..., None] * U[..., j]
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


def schmidt_count_check(grid: GridDesc, box: Box, c: float,
                        T0: float) -> SchmidtReport:
    """Check |#(S cap L) - vol(S)/covol(L)| against the bound shape
    c * T0^(n-1) for a box S; hypotheses are verified, not assumed.  The
    count is the kernel's listing of the grid points in S widened by
    kernels.TOL."""
    if not isinstance(box, Box):
        raise ValueError("the Schmidt check needs a box region")
    if box.diameter() > T0 + 1e-9:
        raise HypothesisFailed("diameter exceeds T0")
    if shortest_independent_bound(grid, grid.n) > T0 + 1e-9:
        raise HypothesisFailed(f"no {grid.n} independent vectors of length <= T0")
    if shortest_independent_bound(grid, grid.n - 1) > c + 1e-9:
        raise HypothesisFailed(f"no {grid.n - 1} independent vectors of length <= c")
    bbox = [(float(lo), float(hi)) for lo, hi in box.bbox()]
    lo_u, hi_u = kernels.integer_preimage_box(np.linalg.inv(grid.basis), bbox)
    U, _ = kernels.collect_lattice_points_in_box(
        grid.basis, lo_u, hi_u, *np.array(bbox).T)
    count = len(U)
    expected = box.volume() / grid.covolume()
    disc = abs(count - expected)
    bound = c * T0 ** (grid.n - 1)
    return SchmidtReport(count=count, expected=expected, discrepancy=disc,
                         bound=bound, ratio=disc / bound if bound else math.inf,
                         c=c, T0=T0)
