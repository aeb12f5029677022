"""Float-path lattice-point counting: one pure-numpy kernel that slices the
integer preimage box into lines along one coordinate.

Fix a prefix (the other coordinates).  Every coordinate of x = B u,
computed in floats as the pointwise test computes it, is monotone in the
line coordinate u_n, so the u_n whose image lies in the box widened by TOL
form one interval.  The kernel estimates its ends by division and settles each
end with the pointwise test, so every count is the count that testing every
box point would give, yet no point between the two ends is visited.  Lines
left empty by the settle are dropped; only the others reach the interior
settle and the Moebius step.  A line's points that are not near a face (the
open box shrunk by TOL) form an interval too, barring a coordinate that
falls exactly on the float lo - TOL or hi + TOL; the boundary tally is the
difference of the two interval lengths.  Primitive counts take Moebius over
the divisors of the prefix gcd; a gcd-1 prefix needs no divisor table.

Counting takes the longest preimage range as the line, which makes the
fewest prefixes: the count, the boundary tally and the prefix gcd do not
depend on coordinate order.  Listing keeps the last coordinate as the line,
so its points come in lexicographic order.

The kernel is deterministic and order-independent (integer accumulators).
"""

from __future__ import annotations

import math

import numpy as np

from .quadfield import factorint

# The float boundary tolerance: a point within TOL of a face counts as
# inside and is tallied as boundary-ambiguous.
TOL = 1e-9
_CHUNK = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)


def _np_int_grid(lo: np.ndarray, hi: np.ndarray):
    """Iterate the integer box [lo, hi] in lexicographic chunks (N x n)."""
    sizes = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    total = math.prod(sizes)
    n = len(sizes)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        U = np.empty((len(idx), n), dtype=np.int64)
        rem = idx
        for j in range(n - 1, -1, -1):
            U[:, j] = lo[j] + rem % sizes[j]
            rem = rem // sizes[j]
        yield U


def _image(U, basis):
    """basis @ u for each row u of U, by one matrix product of at least
    two rows: numpy computes a lone row by a vector product, whose last bit
    can differ from that of the same row in a larger product."""
    if len(U) == 1:
        return (np.repeat(U, 2, axis=0) @ basis.T)[:1]
    return U @ basis.T


def _mobius_divisors(g: int) -> list[tuple[int, int]]:
    """(e, mu(e)) for the squarefree divisors e of g >= 1."""
    out = [(1, 1)]
    for p in factorint(g):
        out += [(e * p, -mu) for e, mu in out]
    return out


def _coprime_counts(g: np.ndarray, a: np.ndarray, z: np.ndarray):
    """Number of u_n in [a, z] with gcd(g, u_n) = 1, summed over prefixes.

    g holds gcd(prefix) per prefix; a and z are (k, m): k intervals on each
    of the m lines.  Returns the k sums.  A gcd-1 prefix counts every u_n, a
    zero prefix only u_n = +-1.  For g > 1, Moebius over the squarefree
    divisors e of g gives sum mu(e) * (floor(z/e) - floor((a-1)/e)), summed
    over one flat row per (prefix, e)."""
    z = np.maximum(z, a - 1)
    total = (z - a + 1)[:, g == 1].sum(axis=-1)
    pm1 = ((a <= -1) & (-1 <= z)).astype(np.int64) + ((a <= 1) & (1 <= z))
    total += pm1[:, g == 0].sum(axis=-1)
    many = np.flatnonzero(g > 1)
    if not len(many):
        return total
    gs, owner = np.unique(g[many], return_inverse=True)
    tables = [_mobius_divisors(int(x)) for x in gs]
    sizes = np.array([len(t) for t in tables])
    table = np.array([row for t in tables for row in t], dtype=np.int64)
    # Prefix i takes the sizes[owner[i]] rows of its gcd's table, which
    # start at first[owner[i]].
    first, reps = np.cumsum(sizes) - sizes, sizes[owner]
    offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    e, mu = table[np.repeat(first[owner], reps) + offset].T
    cols = np.repeat(many, reps)
    a, z = a[:, cols], z[:, cols]
    return total + (mu * (z // e - (a - 1) // e)).sum(axis=-1)


class _Lines:
    """One box query cut into lines of constant prefix (u_1..u_{n-1}),
    with the pointwise predicates the lines are settled against."""

    def __init__(self, basis, lo_u, hi_u, lo_x, hi_x):
        self.basis = np.ascontiguousarray(basis, dtype=np.float64)
        self.lo_u = np.asarray(lo_u, dtype=np.int64)
        self.hi_u = np.asarray(hi_u, dtype=np.int64)
        self.lo_x = np.asarray(lo_x, dtype=np.float64)
        self.hi_x = np.asarray(hi_x, dtype=np.float64)
        self.lo_w, self.hi_w = self.lo_x - TOL, self.hi_x + TOL
        b = self.basis[:, -1]
        rising, falling, self.flat = b > 0, b < 0, b == 0
        self.slope = np.where(self.flat, 1.0, b)
        # Per row, the face a line crosses on its way in (the lower one where
        # the row rises along the line, the upper one where it falls) and on
        # its way out; a flat row has both faces on both sides.
        inf = np.full_like(self.lo_w, np.inf)
        self.entry = (np.where(falling, -inf, self.lo_w),
                      np.where(rising, inf, self.hi_w))
        self.exit = (np.where(rising, -inf, self.lo_w),
                     np.where(falling, inf, self.hi_w))
        self.enter_at = np.where(rising, self.lo_w,
                                 np.where(falling, self.hi_w, -inf))
        self.leave_at = np.where(rising, self.hi_w,
                                 np.where(falling, self.lo_w, inf))

    def image(self, P, u):
        """The images of the points (P[i], u[..., i]), one per row: u is one
        u_n per prefix, or a stack of such rows."""
        u = np.atleast_2d(u)
        U = np.empty(u.shape + (P.shape[1] + 1,), dtype=np.int64)
        U[..., :-1] = P
        U[..., -1] = u
        return _image(U.reshape(-1, U.shape[-1]), self.basis)

    def inside(self, X, rows=slice(None)):
        X = X[:, rows]
        return np.all((X >= self.lo_w[rows]) & (X <= self.hi_w[rows]), axis=1)

    def near(self, X, rows=slice(None)):
        X = X[:, rows]
        return np.any((np.abs(X - self.lo_x[rows]) <= TOL)
                      | (np.abs(X - self.hi_x[rows]) <= TOL), axis=1)

    def _inner(self, X):
        """The pointwise test of the open box shrunk by TOL."""
        return self.inside(X) & ~self.near(X)

    def _entered(self, X):
        """The entry faces of inside; non-decreasing in u_n."""
        return np.all((X >= self.entry[0]) & (X <= self.entry[1]), axis=1)

    def _not_left(self, X):
        """The exit faces of inside; non-increasing in u_n."""
        return np.all((X >= self.exit[0]) & (X <= self.exit[1]), axis=1)

    def _settle(self, P, a, z, ok_a, ok_z, first, last):
        """Move the ends a..z of each line to the first u_n in [first, last]
        at which ok_a holds (last + 1 if none) and the last at which ok_z
        holds (first - 1 if none).  ok_a is non-decreasing and ok_z
        non-increasing along the line; a and z start at estimates, so each
        round tests the four points a - 1, a, z, z + 1 of the lines still
        moving, and the first round mostly settles them all."""
        a, z = a.copy(), z.copy()
        idx = np.arange(len(a))
        while len(idx):
            k, ca, cz, lo, hi = len(idx), a[idx], z[idx], first[idx], last[idx]
            X = self.image(P[idx], np.stack([ca - 1, ca, cz + 1, cz]))
            below, at_a = ok_a(X[:2 * k]).reshape(2, k)
            above, at_z = ok_z(X[2 * k:]).reshape(2, k)
            down = (ca > lo) & below
            up = ~down & (ca <= hi) & ~at_a
            out = (cz < hi) & above
            back = ~out & (cz >= lo) & ~at_z
            a[idx] = ca + up - down
            z[idx] = cz + out - back
            idx = idx[down | up | out | back]
        return a, z

    def lines(self):
        """Yield (P, a, z) per chunk of prefixes in lexicographic order: the
        prefixes P (m x n-1) whose line meets the widened box and, per
        prefix, the ends a <= z of the u_n whose image lies in it."""
        if np.any(self.hi_u < self.lo_u):
            return
        size = math.prod(int(h) - int(l) + 1
                         for l, h in zip(self.lo_u, self.hi_u))
        if size > _INT64_MAX:
            raise ValueError(f"integer box of {size} points cannot be "
                             f"indexed in int64")
        lo_n, hi_n = int(self.lo_u[-1]), int(self.hi_u[-1])
        for P in _np_int_grid(self.lo_u[:-1], self.hi_u[:-1]):
            c = P @ self.basis[:, :-1].T
            enter = ((self.enter_at - c) / self.slope).max(axis=1)
            leave = ((self.leave_at - c) / self.slope).min(axis=1)
            a = np.clip(np.ceil(enter), lo_n, hi_n + 1)
            z = np.clip(np.floor(leave), lo_n - 1, hi_n)
            a, z = a.astype(np.int64), z.astype(np.int64)
            if self.flat.any():
                # Rows constant along the line: test them once per line.
                X = self.image(P, np.clip(a, lo_n, hi_n))
                off = ~self.inside(X, self.flat)
                a[off], z[off] = hi_n + 1, lo_n - 1
            first, last = np.full(len(P), lo_n), np.full(len(P), hi_n)
            a, z = self._settle(P, a, z, self._entered, self._not_left,
                                first, last)
            hit = a <= z
            yield P[hit], a[hit], z[hit]

    def interior(self, P, a, z):
        """The ends of each line's points with inside & ~near (the open box
        shrunk by TOL).  That test is not monotone along the line, but its
        points form an interval inside a..z, so settling from a and z walks
        in to the interval's ends."""
        first, last = a, z
        if self.flat.any():
            # A row constant along the line and near a face makes the
            # whole line near: skip the walk.
            hit = self.near(self.image(P, a), self.flat)
            a, z = a.copy(), z.copy()
            a[hit], z[hit] = last[hit] + 1, first[hit] - 1
        return self._settle(P, a, z, self._inner, self._inner, first, last)


def count_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x,
                                primitive: bool = False):
    """Count integer vectors u in [lo_u, hi_u] with basis @ u inside the
    box [lo_x, hi_x] widened by TOL; returns (count,
    boundary_ambiguous_count), the second counting those within TOL of a
    face.

    With primitive=True only gcd-1 integer vectors are counted (and the
    all-zero vector is excluded).  Raises ValueError when the integer box
    has more points than int64 can index.
    """
    lo_u, hi_u = np.asarray(lo_u), np.asarray(hi_u)
    # The longest range as the line (the last coordinate), for the fewest
    # prefixes.
    order = np.argsort(hi_u - lo_u, kind="stable")
    scan = _Lines(np.asarray(basis)[:, order], lo_u[order], hi_u[order],
                  lo_x, hi_x)
    count = interior = 0
    for P, a, z in scan.lines():
        ai, zi = scan.interior(P, a, z)
        if primitive:
            g = np.gcd.reduce(np.abs(P), axis=1)
            c, i = _coprime_counts(g, np.stack([a, ai]), np.stack([z, zi]))
        else:
            c = (z - a + 1).sum()
            i = np.maximum(zi - ai + 1, 0).sum()
        count += int(c)
        interior += int(i)
    return count, count - interior


def collect_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x):
    """As count_lattice_points_in_box but materializes (preimages, points,
    boundary flags) in canonical lexicographic preimage order."""
    scan = _Lines(basis, lo_u, hi_u, lo_x, hi_x)
    us = [np.empty((0, scan.basis.shape[1]), dtype=np.int64)]
    for P, a, z in scan.lines():
        lens = z - a + 1
        U = np.empty((int(lens.sum()), P.shape[1] + 1), dtype=np.int64)
        U[:, :-1] = np.repeat(P, lens, axis=0)
        U[:, -1] = np.arange(len(U)) + np.repeat(a - np.cumsum(lens) + lens,
                                                 lens)
        us.append(U)
    U = np.concatenate(us)
    X = _image(U, scan.basis)
    return U, X, scan.near(X)


def integer_preimage_box(basis_inv: np.ndarray,
                         bbox: list[tuple[float, float]]):
    """Integer bounds covering the preimage of a bounding box: map all box
    corners through the inverse basis and pad by 1 against float
    rounding.  Raises ValueError when a bound is not finite or lies outside
    int64, where the cast would wrap."""
    n = basis_inv.shape[0]
    corners = []
    for mask in range(1 << n):
        c = [bbox[j][1] if mask >> j & 1 else bbox[j][0] for j in range(n)]
        corners.append(c)
    with np.errstate(invalid="ignore"):  # inf * 0 is rejected below
        pre = np.array(corners, dtype=np.float64) @ basis_inv.T
    lo, hi = np.floor(pre.min(axis=0)), np.ceil(pre.max(axis=0))
    # The floats past -2^63 and below 2^63 are at least 1024 inside int64,
    # which leaves room for the padding.
    if not (np.all(lo > -2.0 ** 63) and np.all(hi < 2.0 ** 63)):
        raise ValueError(f"integer preimage bounds {lo.tolist()}.."
                         f"{hi.tolist()} are not finite int64 values")
    return lo.astype(np.int64) - 1, hi.astype(np.int64) + 1


def backend_name() -> str:
    """Name of the counting kernel, recorded in artifact headers."""
    return "numpy"
