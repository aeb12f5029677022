"""Float-path lattice-point counting: one pure-numpy kernel that slices the
integer preimage box into lines along one coordinate.

Fix a prefix (the other coordinates).  Every coordinate of x = B u,
computed in floats as the pointwise test computes it, is monotone in the
line coordinate u_n, so the u_n whose image lies in the box widened by TOL
form one interval.  The kernel estimates its ends by division and certifies
each end by a proven rounding margin: when the estimate lies farther from
the integers around it than any rounding of the pointwise test or of the
estimate can reach, the pointwise test must agree with it.  Only the ends
the margin cannot decide are settled with the pointwise test, so every
count is the count that testing every box point would give, yet no point
between the two ends is visited.  Empty lines are dropped; only the others
reach the interior and the Moebius step.  A line's points that are not near
a face (the open box shrunk by TOL) form an interval too, barring a
coordinate that falls exactly on the float lo - TOL or hi + TOL; its ends
are the line's own when both lie deeper inside every face than TOL plus the
margin, and are settled pointwise otherwise.  The boundary tally is the
difference of the two interval lengths.  Only primitive vectors are
counted, by Moebius over the divisors of the prefix gcd; a gcd-1 prefix
needs no divisor table.  Listing returns every vector of the lines.

Counting takes the longest preimage range as the line, which makes the
fewest prefixes: the count, the boundary tally and the prefix gcd do not
depend on coordinate order.  Listing keeps the last coordinate as the line,
so its points come in lexicographic order.

The kernel is deterministic and order-independent (integer accumulators).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .quadfield import factorint

# The float boundary tolerance: a point within TOL of a face counts as
# inside and is tallied as boundary-ambiguous.
TOL = 1e-9
_CHUNK = 1 << 18
INT64_MAX = int(np.iinfo(np.int64).max)
# Twice the unit roundoff 2^-53: the factor of the margin that certifies a
# line end (_Lines.__init__ derives it).
_MARGIN = 2.0 ** -52


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
        slope = np.where(self.flat, 1.0, b)
        # Per row, the face a line crosses on its way in (the lower one where
        # the row rises along the line, the upper one where it falls) and on
        # its way out; a flat row has both faces on both sides.
        inf = np.full_like(self.lo_w, np.inf)
        self.entry = (np.where(falling, -inf, self.lo_w),
                      np.where(rising, inf, self.hi_w))
        self.exit = (np.where(rising, -inf, self.lo_w),
                     np.where(falling, inf, self.hi_w))
        enter_at = np.where(rising, self.lo_w,
                            np.where(falling, self.hi_w, -inf))
        leave_at = np.where(rising, self.hi_w,
                            np.where(falling, self.lo_w, inf))
        # lines() estimates, per row, the u_n at which the row enters and
        # the one at which it leaves as (face - c)/slope, c the prefix part
        # of the row, by one product for both.
        self.prefix = np.concatenate([self.basis[:, :-1]] * 2)
        self.faces = np.concatenate([enter_at, leave_at])
        self.slopes = np.concatenate([slope, slope])
        # The margin, in units of u_n.  With eps = 2^-53, gamma_k =
        # k*eps/(1 - k*eps) and U_j the largest |u_j| of the box: while
        # every |u_j| <= 2^53, so that u casts to float exactly, the
        # pointwise x_i = sum_j b_ij u_j, summed in any order, with or
        # without FMA, errs by at most gamma_n*(S_i + |b_in|*U_n), S_i =
        # sum_{j<n} |b_ij|*U_j.  An estimate errs from the true crossing by
        # at most gamma_{n-1}*S_i/|b_in| (its prefix part) plus
        # 1.01*gamma_2*|estimate| (its subtraction and division), and
        # |estimate| <= U_n + 1 + |gap| at the ends tested.  The near test
        # adds the roundings of lo - TOL and of x - lo, at most
        # eps*(W_i + 3*TOL) with W_i = max(|lo_i|, |hi_i|), and subnormal
        # products at most n*2^-1075.  margin_i is at least twice the sum of
        # these bounds with |gap| left out; the factor 2 covers that part
        # (under 2.1*eps*|gap|) and the rounding of the gaps and of margin_i
        # itself.  So a gap past margin_i puts the end on the side of the
        # face that the estimate puts it on, whatever the pointwise test's
        # rounding.
        n = self.basis.shape[1]
        reach = np.maximum(np.abs(self.lo_u.astype(np.float64)),
                           np.abs(self.hi_u.astype(np.float64)))
        span = (2 * (np.abs(self.basis[:, :-1]) @ reach[:-1])
                + np.maximum(np.abs(self.lo_x), np.abs(self.hi_x))
                + 4 * TOL + 2.0 ** -1000)
        margin = _MARGIN * (n + 3) * (span / np.abs(slope) + reach[-1] + 2)
        if reach.max() > 2.0 ** 53:
            margin[:] = np.inf  # the cast rounds: settle every end
        # An end passes the pointwise test where its gap to every row's
        # estimate clears the margin, and its neighbour outside fails it
        # where some row's gap falls short of 1 by the margin.  The ends
        # a..z are the interior's too where every gap clears the margin and
        # 2*TOL more: their images then lie deeper than TOL inside every
        # face.  A flat row's estimates are -inf and inf, so its gaps are
        # inf; lines() tests flat rows pointwise.
        self.clear = np.concatenate([margin, margin])
        self.short = 1 - self.clear
        self.deep = self.clear + np.concatenate([2 * TOL / np.abs(slope)] * 2)

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
        return reduce(np.logical_and,
                      ((X >= self.lo_w[rows]) & (X <= self.hi_w[rows])).T)

    def near(self, X, rows=slice(None)):
        X = X[:, rows]
        return reduce(np.logical_or,
                      ((np.abs(X - self.lo_x[rows]) <= TOL)
                       | (np.abs(X - self.hi_x[rows]) <= TOL)).T)

    def _inner(self, X):
        """The pointwise test of the open box shrunk by TOL."""
        return self.inside(X) & ~self.near(X)

    def _entered(self, X):
        """The entry faces of inside; non-decreasing in u_n."""
        return reduce(np.logical_and,
                      ((X >= self.entry[0]) & (X <= self.entry[1])).T)

    def _not_left(self, X):
        """The exit faces of inside; non-increasing in u_n."""
        return reduce(np.logical_and,
                      ((X >= self.exit[0]) & (X <= self.exit[1])).T)

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
        """Yield (P, a, z, deep) per chunk of prefixes in lexicographic
        order: the prefixes P (m x n-1) whose line meets the widened box,
        per prefix the ends a <= z of the u_n whose image lies in it, and
        the flags of the lines whose interior (see interior) has the same
        ends.  The ends the margin cannot certify are settled pointwise."""
        if np.any(self.hi_u < self.lo_u):
            return
        size = math.prod(int(h) - int(l) + 1
                         for l, h in zip(self.lo_u, self.hi_u))
        if size > INT64_MAX:
            raise ValueError(f"integer box of {size} points cannot be "
                             f"indexed in int64")
        lo_n, hi_n = int(self.lo_u[-1]), int(self.hi_u[-1])
        rows = len(self.flat)
        for P in _np_int_grid(self.lo_u[:-1], self.hi_u[:-1]):
            est = (self.faces - P @ self.prefix.T) / self.slopes
            enter, leave = est[:, :rows], est[:, rows:]
            a = np.clip(np.ceil(reduce(np.maximum, enter.T)), lo_n, hi_n + 1)
            z = np.clip(np.floor(reduce(np.minimum, leave.T)), lo_n - 1, hi_n)
            # Per row, how far a lies past its entry and z short of its exit.
            gap = np.concatenate([a[:, None] - enter, leave - z[:, None]], 1)
            clear, short = (gap > self.clear).T, (gap < self.short).T
            sure = ((reduce(np.logical_and, clear[:rows]) | (a > hi_n))
                    & (reduce(np.logical_or, short[:rows]) | (a <= lo_n))
                    & (reduce(np.logical_and, clear[rows:]) | (z < lo_n))
                    & (reduce(np.logical_or, short[rows:]) | (z >= hi_n)))
            deep = reduce(np.logical_and, (gap > self.deep).T)
            a, z = a.astype(np.int64), z.astype(np.int64)
            if self.flat.any():
                # Rows constant along the line: test them once per line.
                X = self.image(P, np.clip(a, lo_n, hi_n))
                off = ~self.inside(X, self.flat)
                a[off], z[off] = hi_n + 1, lo_n - 1
                sure |= off
            todo = np.flatnonzero(~sure)
            if len(todo):
                a[todo], z[todo] = self._settle(
                    P[todo], a[todo], z[todo], self._entered, self._not_left,
                    np.full(len(todo), lo_n), np.full(len(todo), hi_n))
                deep[todo] = False
            hit = a <= z
            yield P[hit], a[hit], z[hit], deep[hit]

    def interior(self, P, a, z, deep):
        """The ends of each line's points with inside & ~near (the open box
        shrunk by TOL): a and z on the deep lines, settled on the others.
        That test is not monotone along the line, but its points form an
        interval inside a..z, so settling from a and z walks in to the
        interval's ends."""
        ai, zi = a.copy(), z.copy()
        if self.flat.any():
            # A row constant along the line and near a face makes the
            # whole line near: skip the walk.
            hit = self.near(self.image(P, a), self.flat)
            ai[hit], zi[hit] = z[hit] + 1, a[hit] - 1
            deep = deep | hit
        todo = np.flatnonzero(~deep)
        if len(todo):
            ai[todo], zi[todo] = self._settle(
                P[todo], ai[todo], zi[todo], self._inner, self._inner,
                a[todo], z[todo])
        return ai, zi


def count_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x):
    """Count the primitive integer vectors u (coordinate gcd 1, so not the
    zero vector) in [lo_u, hi_u] with basis @ u inside the box [lo_x, hi_x]
    widened by TOL; returns (count, boundary_ambiguous_count), the second
    counting those within TOL of a face.  Raises ValueError when the
    integer box has more points than int64 can index.
    """
    lo_u, hi_u = np.asarray(lo_u), np.asarray(hi_u)
    # The longest range as the line (the last coordinate), for the fewest
    # prefixes.
    order = np.argsort(hi_u - lo_u, kind="stable")
    scan = _Lines(np.asarray(basis)[:, order], lo_u[order], hi_u[order],
                  lo_x, hi_x)
    count = interior = 0
    for P, a, z, deep in scan.lines():
        ai, zi = scan.interior(P, a, z, deep)
        # gcd(0, x) = |x|: the fold over no column leaves the empty
        # prefix's 0
        g = reduce(np.gcd, P.T, np.zeros(len(P), dtype=np.int64))
        c, i = _coprime_counts(g, np.stack([a, ai]), np.stack([z, zi]))
        count += int(c)
        interior += int(i)
    return count, count - interior


def collect_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x):
    """Every integer vector u in [lo_u, hi_u], primitive or not, with
    basis @ u inside the box [lo_x, hi_x] widened by TOL: (preimages,
    points) in lexicographic preimage order."""
    scan = _Lines(basis, lo_u, hi_u, lo_x, hi_x)
    us = [np.empty((0, scan.basis.shape[1]), dtype=np.int64)]
    for P, a, z, _ in scan.lines():
        lens = z - a + 1
        U = np.empty((int(lens.sum()), P.shape[1] + 1), dtype=np.int64)
        U[:, :-1] = np.repeat(P, lens, axis=0)
        U[:, -1] = np.arange(len(U)) + np.repeat(a - np.cumsum(lens) + lens,
                                                 lens)
        us.append(U)
    U = np.concatenate(us)
    return U, _image(U, scan.basis)


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
