"""Float-path lattice-point counting: one pure-numpy kernel that slices the
integer preimage boxes of a stack of queries into lines along one
coordinate and runs the lines of every query in one pass.

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

The prefixes of all the queries form one stream, query by query and
lexicographic within a query, cut into chunks of at most _ROWS rows; each
row carries its query's index, and the chunk gathers that query's
constants.  So a stack of S queries costs the fixed numpy work of one, and
count_lattice_points_in_box and collect_lattice_points_in_box are the
stack of one.  Counting takes each query's longest preimage range as its
line, which makes the fewest prefixes: the count, the boundary tally and
the prefix gcd do not depend on coordinate order.  Listing keeps the last
coordinate as the line, so its points come in lexicographic order.

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
# Rows of the prefix stream per chunk.  Each row holds about a hundred
# floats of gathered constants and intermediates, so the cap bounds the
# kernel's share of peak RSS; more rows per chunk save little time.
_ROWS = 1 << 12
INT64_MAX = int(np.iinfo(np.int64).max)
# Twice the unit roundoff 2^-53: the factor of the margin that certifies a
# line end (_Lines.__init__ derives it).
_MARGIN = 2.0 ** -52


def _columns(q):
    """The query index of each row of a chunk, for gathering per-query
    constants: q itself, or the one query of a chunk that holds one (the
    rows come sorted by query), whose constants then broadcast."""
    return q[:1] if q[0] == q[-1] else q


def _prefix_stream(lo: np.ndarray, hi: np.ndarray, counts: np.ndarray):
    """Iterate the integer boxes [lo[s], hi[s]] (S x k) of counts[s] points
    each, one after another and each in lexicographic order, in chunks of
    at most _ROWS rows: (q, P) with the query q of each row and the rows'
    coordinates P (k x m, coordinate-major)."""
    ends = counts.cumsum()
    # per query, coordinate-major: the first index, then lo and the sizes
    table = np.concatenate([(ends - counts)[None], lo.T, (hi - lo + 1).T])
    k = lo.shape[1]
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, _ROWS):
        idx = np.arange(start, min(start + _ROWS, total), dtype=np.int64)
        q = ends.searchsorted(idx, side="right")
        first, *lo_sizes = table.take(_columns(q), axis=1)
        rem = idx - first
        P = np.empty((k, len(idx)), dtype=np.int64)
        for j in range(k - 1, -1, -1):
            rem, P[j] = np.divmod(rem, lo_sizes[k + j])
            P[j] += lo_sizes[j]
        del idx, first, lo_sizes, rem  # not held while the chunk is used
        yield q, P


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
    """Number of u_n in [a, z] with gcd(g, u_n) = 1, per prefix.

    g holds gcd(prefix) per prefix; a and z are (k, m): k intervals on each
    of the m lines.  Returns the (k, m) counts.  A gcd-1 prefix counts every
    u_n, a zero prefix only u_n = +-1.  For g > 1, Moebius over the
    squarefree divisors e of g gives sum mu(e) * (floor(z/e) -
    floor((a-1)/e)), over one flat row per (prefix, e)."""
    z = np.maximum(z, a - 1)
    out = (z - a + 1) * (g == 1)
    zero = (g == 0).nonzero()[0]
    if len(zero):
        a0, z0 = a[:, zero], z[:, zero]
        out[:, zero] = (((a0 <= -1) & (-1 <= z0)).astype(np.int64)
                        + ((a0 <= 1) & (1 <= z0)))
    many = (g > 1).nonzero()[0]
    if not len(many):
        return out
    gs, owner = np.unique(g[many], return_inverse=True)
    tables = [_mobius_divisors(int(x)) for x in gs]
    sizes = np.array([len(t) for t in tables])
    table = np.array([row for t in tables for row in t], dtype=np.int64)
    # Prefix i takes the sizes[owner[i]] rows of its gcd's table, which
    # start at first[owner[i]].
    first, reps = np.cumsum(sizes) - sizes, sizes[owner]
    start = np.cumsum(reps) - reps
    offset = np.arange(reps.sum()) - np.repeat(start, reps)
    e, mu = table[np.repeat(first[owner], reps) + offset].T
    cols = np.repeat(many, reps)
    a, z = a[:, cols] - 1, z[:, cols]
    a //= e
    z //= e
    z -= a
    z *= mu
    out[:, many] += np.add.reduceat(z, start, axis=1)
    return out


class _Lines:
    """A stack of box queries, each cut into lines of constant prefix
    (u_1..u_{n-1}), with the pointwise predicates the lines are settled
    against.  Query s asks for the u in [lo_u[s], hi_u[s]] with bases[s] @ u
    in [lo_x[s], hi_x[s]] (lo_x and hi_x broadcast over the stack)."""

    def __init__(self, bases, lo_u, hi_u, lo_x, hi_x):
        self.bases = np.ascontiguousarray(bases, dtype=np.float64)
        S, rows, n = self.bases.shape
        self.lo_u = np.asarray(lo_u, dtype=np.int64).reshape(S, n)
        self.hi_u = np.asarray(hi_u, dtype=np.int64).reshape(S, n)
        self.lo_x, self.hi_x = np.empty((2, S, rows))
        self.lo_x[...], self.hi_x[...] = lo_x, hi_x
        self.lo_w, self.hi_w = self.lo_x - TOL, self.hi_x + TOL
        b = self.bases[:, :, -1]
        rising, falling, self.flat = b > 0, b < 0, b == 0
        self.has_flat = self.flat.any(axis=1)
        self.any_flat = bool(self.has_flat.any())
        slope = np.where(self.flat, 1.0, b)
        # Per row, the face a line crosses on its way in (the lower one where
        # the row rises along the line, the upper one where it falls) and on
        # its way out; a flat row has both faces on both sides.
        self.entry = (np.where(falling, -np.inf, self.lo_w),
                      np.where(rising, np.inf, self.hi_w))
        self.exit = (np.where(rising, -np.inf, self.lo_w),
                     np.where(falling, np.inf, self.hi_w))
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
        reach = np.maximum(np.abs(self.lo_u.astype(np.float64)),
                           np.abs(self.hi_u.astype(np.float64)))
        span = (2 * (np.abs(self.bases[:, :, :-1])
                     * reach[:, None, :-1]).sum(axis=-1)
                + np.maximum(np.abs(self.lo_x), np.abs(self.hi_x))
                + 4 * TOL + 2.0 ** -1000)
        margin = _MARGIN * (n + 3) * (span / np.abs(slope)
                                      + reach[:, -1:] + 2)
        # the cast rounds: settle every end
        margin[reach.max(axis=1) > 2.0 ** 53] = np.inf
        # An end passes the pointwise test where its gap to every row's
        # estimate clears the margin, and its neighbour outside fails it
        # where some row's gap falls short of 1 by the margin.  The ends
        # a..z are the interior's too where every gap clears the margin and
        # 2*TOL more: their images then lie deeper than TOL inside every
        # face.  A flat row's estimates are -inf and inf, so its gaps are
        # inf; lines() tests flat rows pointwise.
        #
        # _estimate estimates, per row, the u_n at which the row enters the
        # widened box and the one at which it leaves as (face - c)/slope, c
        # the prefix part of the row.  Per query, the table holds,
        # coordinate-major, blocks of 2*rows constants, for the entries and
        # for the exits: the faces, the slopes, the prefix coefficients of
        # each prefix coordinate, and the thresholds of clear, short and
        # deep.  _estimate gathers a few blocks at a time at each line's
        # query.
        table = np.empty((n + 4, 2, rows, S))
        table[0, 0] = np.where(rising, self.lo_w,
                               np.where(falling, self.hi_w, -np.inf)).T
        table[0, 1] = np.where(rising, self.hi_w,
                               np.where(falling, self.lo_w, np.inf)).T
        table[1] = slope.T
        table[2:n + 1] = self.bases[:, :, :-1].T[:, None]
        table[n + 1] = margin.T
        table[n + 2] = 1 - margin.T
        table[n + 3] = (margin + 2 * TOL / np.abs(slope)).T
        self.table = table.reshape(n + 4, 2 * rows, S)

    def image(self, P, u, q):
        """The images of the points (P[:, i], u[..., i]) of the queries
        q[i] (sorted), one per row: u is one u_n per prefix, or a stack of
        such rows.  Each query's rows are one product with its basis."""
        u = np.atleast_2d(u)
        U = np.empty(u.shape + (len(P) + 1,), dtype=np.int64)
        U[..., :-1] = P.T
        U[..., -1] = u
        U = U.reshape(-1, U.shape[-1])
        if len(q) and q[0] == q[-1]:
            return _image(U, self.bases[q[0]])
        q = np.tile(q, len(u))
        X = np.empty((len(U), self.bases.shape[1]))
        for s in np.unique(q):
            at = q == s
            X[at] = _image(U[at], self.bases[s])
        return X

    def inside(self, X, q, rows=None):
        """The test of the widened box, on the rows flagged in rows (per
        point) or on every row."""
        ok = (X >= self.lo_w[q]) & (X <= self.hi_w[q])
        if rows is not None:
            ok |= ~rows
        return reduce(np.logical_and, ok.T)

    def near(self, X, q, rows=None):
        """The test of a face within TOL, on the rows flagged in rows (per
        point) or on every row."""
        hit = ((np.abs(X - self.lo_x[q]) <= TOL)
               | (np.abs(X - self.hi_x[q]) <= TOL))
        if rows is not None:
            hit &= rows
        return reduce(np.logical_or, hit.T)

    def _inner(self, X, q):
        """The pointwise test of the open box shrunk by TOL."""
        return self.inside(X, q) & ~self.near(X, q)

    def _entered(self, X, q):
        """The entry faces of inside; non-decreasing in u_n."""
        return reduce(np.logical_and, ((X >= self.entry[0][q])
                                       & (X <= self.entry[1][q])).T)

    def _not_left(self, X, q):
        """The exit faces of inside; non-increasing in u_n."""
        return reduce(np.logical_and, ((X >= self.exit[0][q])
                                       & (X <= self.exit[1][q])).T)

    def _settle(self, P, a, z, ok_a, ok_z, first, last, q):
        """Move the ends a..z of each line (of query q) to the first u_n in
        [first, last] at which ok_a holds (last + 1 if none) and the last at
        which ok_z holds (first - 1 if none).  ok_a is non-decreasing and
        ok_z non-increasing along the line; a and z start at estimates, so
        each round tests the four points a - 1, a, z, z + 1 of the lines
        still moving, and the first round mostly settles them all."""
        a, z = a.copy(), z.copy()
        idx = np.arange(len(a))
        while len(idx):
            k, ca, cz, lo, hi = len(idx), a[idx], z[idx], first[idx], last[idx]
            qi = q[idx]
            X = self.image(P[:, idx], np.stack([ca - 1, ca, cz + 1, cz]), qi)
            # the query of each row of X, which holds qi twice: qi is
            # sorted, so its ends tell whether one query's bounds serve all
            qq = qi[0] if qi[0] == qi[-1] else np.tile(qi, 2)
            below, at_a = ok_a(X[:2 * k], qq).reshape(2, k)
            above, at_z = ok_z(X[2 * k:], qq).reshape(2, k)
            down = (ca > lo) & below
            up = ~down & (ca <= hi) & ~at_a
            out = (cz < hi) & above
            back = ~out & (cz >= lo) & ~at_z
            a[idx] = ca + up - down
            z[idx] = cz + out - back
            idx = idx[down | up | out | back]
        return a, z

    def _line_counts(self):
        """Per query, the number of its prefixes (0 for an empty integer
        range).  Raises ValueError, before any prefix exists, when a
        query's integer box, or the whole stream, has more points than
        int64 can index."""
        counts = []
        for lo, hi in zip(self.lo_u.tolist(), self.hi_u.tolist()):
            sizes = [h - l + 1 for l, h in zip(lo, hi)]
            size = math.prod(sizes) if min(sizes) > 0 else 0
            if size > INT64_MAX:
                raise ValueError(f"integer box of {size} points cannot be "
                                 f"indexed in int64")
            counts.append(size and size // sizes[-1])
        if sum(counts) > INT64_MAX:
            raise ValueError(f"{sum(counts)} lines cannot be indexed in "
                             f"int64")
        return np.array(counts, dtype=np.int64)

    def _gather(self, blocks, q):
        """The blocks of the table (see __init__) at the queries q."""
        return self.table[blocks].take(q, axis=-1)

    def _estimate(self, q, P, lo_n, hi_n):
        """Per line of the prefixes P of the queries q: the estimated ends
        a and z (floats, clipped to lo_n - 1..hi_n + 1), whether the margin
        certifies both, and whether the interior has the same ends.  The
        table is gathered a few blocks at a time, each freed after its one
        use, which keeps the chunk's peak memory low."""
        rows, n = self.bases.shape[1:]
        q = _columns(q)
        # est holds c, then the estimates, then the gaps
        est = np.zeros((2 * rows, P.shape[1]))
        for j, p in enumerate(P):
            est += self._gather(2 + j, q) * p
        face, slope = self._gather(slice(2), q)
        np.subtract(face, est, out=est)
        est /= slope
        del face, slope
        enter, leave = est[:rows], est[rows:]
        a = np.minimum(np.maximum(np.ceil(reduce(np.maximum, enter)), lo_n),
                       hi_n + 1)
        z = np.minimum(np.maximum(np.floor(reduce(np.minimum, leave)),
                                  lo_n - 1), hi_n)
        # Per row, how far a lies past its entry and z short of its exit.
        gap = est
        np.subtract(a, enter, out=gap[:rows])
        np.subtract(leave, z, out=gap[rows:])
        clear = gap > self._gather(n + 1, q)
        short = gap < self._gather(n + 2, q)
        deep = gap > self._gather(n + 3, q)
        sure = ((reduce(np.logical_and, clear[:rows]) | (a > hi_n))
                & (reduce(np.logical_or, short[:rows]) | (a <= lo_n))
                & (reduce(np.logical_and, clear[rows:]) | (z < lo_n))
                & (reduce(np.logical_or, short[rows:]) | (z >= hi_n)))
        return a, z, sure, reduce(np.logical_and, deep)

    def lines(self):
        """Yield (q, P, a, z, deep) per chunk of the prefix stream: the
        prefixes P (n-1 x m) whose line meets the widened box, with their
        queries q, per prefix the ends a <= z of the u_n whose image lies
        in it, and the flags of the lines whose interior (see interior) has
        the same ends.  The ends the margin cannot certify are settled
        pointwise."""
        counts = self._line_counts()
        for q, P in _prefix_stream(self.lo_u[:, :-1], self.hi_u[:, :-1],
                                   counts):
            lo_n, hi_n = self.lo_u[q, -1], self.hi_u[q, -1]
            a, z, sure, deep = self._estimate(q, P, lo_n, hi_n)
            a, z = a.astype(np.int64), z.astype(np.int64)
            if self.any_flat:
                # Rows constant along the line: test them once per line.
                f = self.has_flat[q].nonzero()[0]
                X = self.image(P[:, f], np.clip(a[f], lo_n[f], hi_n[f]), q[f])
                off = f[~self.inside(X, q[f], self.flat[q[f]])]
                a[off], z[off] = hi_n[off] + 1, lo_n[off] - 1
                sure[off] = True
            todo = (~sure).nonzero()[0]
            if len(todo):
                a[todo], z[todo] = self._settle(
                    P[:, todo], a[todo], z[todo], self._entered,
                    self._not_left, lo_n[todo], hi_n[todo], q[todo])
                deep[todo] = False
            hit = (a <= z).nonzero()[0]
            if len(hit):
                yield q[hit], P[:, hit], a[hit], z[hit], deep[hit]

    def interior(self, q, P, a, z, deep):
        """The ends of each line's points with inside & ~near (the open box
        shrunk by TOL): a and z on the deep lines, settled on the others.
        That test is not monotone along the line, but its points form an
        interval inside a..z, so settling from a and z walks in to the
        interval's ends."""
        ai, zi = a.copy(), z.copy()
        if self.any_flat:
            # A row constant along the line and near a face makes the
            # whole line near: skip the walk.
            f = self.has_flat[q].nonzero()[0]
            hit = f[self.near(self.image(P[:, f], a[f], q[f]), q[f],
                              self.flat[q[f]])]
            ai[hit], zi[hit] = z[hit] + 1, a[hit] - 1
            deep = deep.copy()
            deep[hit] = True
        todo = (~deep).nonzero()[0]
        if len(todo):
            ai[todo], zi[todo] = self._settle(
                P[:, todo], ai[todo], zi[todo], self._inner, self._inner,
                a[todo], z[todo], q[todo])
        return ai, zi


def count_lattice_points_in_boxes(bases, lo_u, hi_u, lo_x, hi_x):
    """Per query s of a stack, count the primitive integer vectors u
    (coordinate gcd 1, so not the zero vector) in [lo_u[s], hi_u[s]] with
    bases[s] @ u inside the box [lo_x[s], hi_x[s]] widened by TOL (lo_x and
    hi_x may be one box for every query); returns (counts,
    boundary_ambiguous_counts), int64 arrays, the second counting those
    within TOL of a face.  Raises ValueError when an integer box has more
    points than int64 can index.
    """
    bases = np.asarray(bases, dtype=np.float64)
    lo_u = np.asarray(lo_u, dtype=np.int64)
    hi_u = np.asarray(hi_u, dtype=np.int64)
    # Per query, the longest range as the line (the last coordinate), for
    # the fewest prefixes.
    pick = np.arange(len(bases))[:, None], np.argsort(hi_u - lo_u, axis=1,
                                                      kind="stable")
    scan = _Lines(bases.transpose(0, 2, 1)[pick].transpose(0, 2, 1),
                  lo_u[pick], hi_u[pick], lo_x, hi_x)
    count = np.zeros(len(bases), dtype=np.int64)
    interior = np.zeros_like(count)
    for q, P, a, z, deep in scan.lines():
        ai, zi = scan.interior(q, P, a, z, deep)
        # gcd(0, x) = |x|: the fold over no row leaves the empty prefix's 0
        g = reduce(np.gcd, P, np.zeros(len(q), dtype=np.int64))
        c = _coprime_counts(g, np.stack([a, ai]), np.stack([z, zi]))
        # the rows come sorted by query
        first = np.concatenate(([0], (q[1:] != q[:-1]).nonzero()[0] + 1))
        c = np.add.reduceat(c, first, axis=1)
        count[q[first]] += c[0]
        interior[q[first]] += c[1]
    return count, count - interior


def count_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x):
    """count_lattice_points_in_boxes of the one query: (count,
    boundary_ambiguous_count) as ints."""
    count, boundary = count_lattice_points_in_boxes(
        np.asarray(basis)[None], np.asarray(lo_u)[None],
        np.asarray(hi_u)[None], lo_x, hi_x)
    return int(count[0]), int(boundary[0])


def collect_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x):
    """Every integer vector u in [lo_u, hi_u], primitive or not, with
    basis @ u inside the box [lo_x, hi_x] widened by TOL: (preimages,
    points) in lexicographic preimage order."""
    scan = _Lines(np.asarray(basis)[None], lo_u, hi_u, lo_x, hi_x)
    us = [np.empty((0, scan.bases.shape[2]), dtype=np.int64)]
    for _, P, a, z, _ in scan.lines():
        lens = z - a + 1
        U = np.empty((int(lens.sum()), len(P) + 1), dtype=np.int64)
        U[:, :-1] = np.repeat(P.T, lens, axis=0)
        U[:, -1] = np.arange(len(U)) + np.repeat(a - np.cumsum(lens) + lens,
                                                 lens)
        us.append(U)
    U = np.concatenate(us)
    return U, _image(U, scan.bases[0])


def integer_preimage_box(basis_inv: np.ndarray,
                         bbox: list[tuple[float, float]]):
    """Integer bounds covering the preimage of a bounding box: map all box
    corners through the inverse basis, or through each of a stack of them
    (S x n x n, giving S x n bounds), and pad by 1 against float rounding.
    Raises ValueError when a bound is not finite or lies outside int64,
    where the cast would wrap."""
    n = basis_inv.shape[-1]
    corners = []
    for mask in range(1 << n):
        c = [bbox[j][1] if mask >> j & 1 else bbox[j][0] for j in range(n)]
        corners.append(c)
    with np.errstate(invalid="ignore"):  # inf * 0 is rejected below
        pre = np.array(corners, dtype=np.float64) @ np.swapaxes(basis_inv,
                                                                -1, -2)
    lo, hi = np.floor(pre.min(axis=-2)), np.ceil(pre.max(axis=-2))
    # The floats past -2^63 and below 2^63 are at least 1024 inside int64,
    # which leaves room for the padding.
    if not (np.all(lo > -2.0 ** 63) and np.all(hi < 2.0 ** 63)):
        raise ValueError(f"integer preimage bounds {lo.tolist()}.."
                         f"{hi.tolist()} are not finite int64 values")
    return lo.astype(np.int64) - 1, hi.astype(np.int64) + 1


def backend_name() -> str:
    """Name of the counting kernel, recorded in artifact headers."""
    return "numpy"
