"""Certified holes in the visible points: CRT construction of gcd-holes in
Z^n, their exact verification, and a budgeted search for hole translates
near a subspace."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .quadfield import factorint


class NotInResidueClass(ValueError):
    pass


# candidates ranked at a time by hole_near_subspace
SEARCH_BLOCK = 1 << 16
# the unit roundoff of float64
EPS = 2.0 ** -53


@dataclass(frozen=True)
class CRTHole:
    """A residue class x0 + N*Z^n every translate of which carries a
    (2A+1)^n box of integer vectors with coordinate gcd > 1."""

    n: int
    A: int
    prime_table: dict  # tuple in [-A, A]^n -> distinct rational prime
    x0: tuple
    N: int

    def to_json(self) -> dict:
        """The hole as JSON-ready data; the big integers as strings."""
        return {
            "n": self.n, "A": self.A,
            "primes": {",".join(map(str, k)): str(p)
                       for k, p in sorted(self.prime_table.items())},
            "x0": [str(v) for v in self.x0],
            "N": str(self.N),
        }


def build_crt_hole(n: int, A: int) -> CRTHole:
    """Assign the smallest (2A+1)^n primes to box tuples in lexicographic
    order and solve x0_j = -i_j mod P_i for all tuples simultaneously;
    x0 is the canonical solution in [0, N)^n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if A < 0:
        raise ValueError("A must be >= 0")
    table = {}
    p = 1
    for tup in itertools.product(range(-A, A + 1), repeat=n):
        p += 1
        while factorint(p) != {p: 1}:
            p += 1
        table[tup] = p
    N = math.prod(table.values())
    x0 = []
    for j in range(n):
        # CRT accumulate over the congruences x = -i_j (mod P_i)
        x, mod = 0, 1
        for tup, pr in table.items():
            r = (-tup[j]) % pr
            t = ((r - x) * pow(mod, -1, pr)) % pr
            x += mod * t
            mod *= pr
        x0.append(x % N)
    return CRTHole(n=n, A=A, prime_table=dict(table), x0=tuple(x0), N=N)


def verify_hole(hole: CRTHole, x) -> bool:
    """Exhaustively check that every point of x + [-A, A]^n has coordinate
    gcd > 1, with the assigned prime as an explicit divisor witness."""
    x = tuple(int(v) for v in x)
    if len(x) != hole.n:
        raise NotInResidueClass("dimension mismatch")
    if any((xi - x0i) % hole.N for xi, x0i in zip(x, hole.x0)):
        raise NotInResidueClass("x is not congruent to x0 mod N")
    for tup, pr in hole.prime_table.items():
        point = [xi + ti for xi, ti in zip(x, tup)]
        if any(v % pr for v in point):
            return False
        if math.gcd(*point) == 1:  # gcd 0 means the zero vector: invisible
            return False
    return True


def hole_near_subspace(hole: CRTHole, V, R, search_budget: int):
    """Search translates x0 + N*k for one whose hole box approaches the
    subspace V = span(rows of V) within distance R, a float or an int.

    Candidates are a budgeted grid J along V, in directions from the QR
    factorization of V, each mapped to the translate with k the half-even
    rounding of J*Q^T - x0/N computed elementwise in float64, SEARCH_BLOCK
    at a time, until the block in which the count reaches the budget.
    Each block is ranked by float64 distances in units of N, and every
    candidate that the ranking's proven error bound cannot rule out is
    ranked by its exact rational distance to span(V), taking the floats of
    V at their binary values.  Equal distances all pass that bound, so on a
    rational line, where most candidates tie, most are ranked exactly.  The
    first candidate in grid order of least exact distance is returned as an
    integer vector if that distance is at most R (R = inf accepts any
    distance); otherwise None.
    Linearly dependent rows of V raise ValueError."""
    if not R >= 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    if search_budget <= 0:
        return None
    Vb = np.atleast_2d(np.asarray(V, dtype=np.float64))
    if Vb.shape[1] != hole.n or not np.isfinite(Vb).all():
        raise ValueError("subspace basis must be finite, in R^n")
    n, N, x0 = hole.n, hole.N, hole.x0
    ortho = _gram_schmidt(Vb.tolist())
    Q, _ = np.linalg.qr(Vb.T)
    r = Q.shape[1]
    # The exact distance: c^T P c, with P = I - sum_j u_j u_j^T/|u_j|^2 the
    # projection off span(V) over the Gram-Schmidt rows u_j, written as M/den
    # with M an integer matrix.  For c = x0 + N*k it is (C + N*F(k))/den,
    # F(k) = N*k^T M k + g^T k, g = 2*M*x0 and C = x0^T M x0, so the
    # integers F rank the candidates exactly.
    P = [[Fraction(i == j) - sum(u[i] * u[j] / uu for u, uu in ortho)
          for j in range(n)] for i in range(n)]
    den = math.lcm(*(p.denominator for row in P for p in row))
    M = [[int(p * den) for p in row] for row in P]
    g = [2 * sum(Mi[j] * x0[j] for j in range(n)) for Mi in M]
    # the Gram-Schmidt rows normalized, each entry within 1.5*eps relative
    # of its exact value (2^-537 absolute where its square is subnormal)
    E = np.array([[math.copysign(math.sqrt(ui * ui / uu), ui) for ui in u]
                  for u, uu in ortho])
    a = np.array([v / N for v in x0])[:, None]  # int true division: exact
    side = max(1, int(round(search_budget ** (1.0 / r))))
    best_F, best_k, reach = None, None, math.inf
    tried = 0
    while tried < min(search_budget, side ** r):
        # the next indices of the grid [-(side//2), side - side//2)^r in
        # lexicographic order, one row per coordinate
        block = np.arange(tried, min(tried + SEARCH_BLOCK, side ** r))
        tried += len(block)
        J = np.stack(np.unravel_index(block, (side,) * r)) - side // 2
        y = -a
        for j in range(r):
            y = y + Q[:, j, None] * J[j]
        k = np.rint(y)
        w = a + k
        resid = w - E.T @ (E @ w)
        dist = np.sqrt((resid * resid).sum(axis=0))
        # With W the block's largest |w|, the computed w errs by at most
        # eps*(1 + W) per coordinate (x0/N and the sum), so by
        # eps*sqrt(n)*(1 + W) in norm; E's rows by 2*eps each from the exact
        # orthonormal ones; the r dot products by gamma_n*sqrt(n)*W each,
        # and the residual's sums by gamma_{r+1}*(1 + r)*sqrt(n)*W.  The
        # exact basis needs no condition number: to first order the
        # residual errs by eps*sqrt(n)*(W + 1)*(1 + r*(n + 4) + (r + 1)^2),
        # and the sum of squares and sqrt add (n/2 + 1)*eps relative to a
        # residual of norm at most sqrt(n)*(W + 1).  With r <= n the sum is
        # at most 2*(n + 3)*(r + 1)*eps*sqrt(n)*(W + 1); tol is twice that,
        # which covers the second-order and subnormal terms and the
        # roundings of tol and of the sums it enters below.
        W = float(np.abs(w).max())
        tol = 4 * (n + 3) * (r + 1) * EPS * math.sqrt(n) * (W + 1)
        # reach bounds the least exact distance so far; a candidate whose
        # float distance is past reach + tol is farther than that
        reach = min(reach, float(dist.min()) + tol)
        near = np.flatnonzero(dist <= reach + tol)
        if not near.size:
            continue
        K = k[:, near].astype(np.int64).astype(object)
        MK = [sum(M[i][j] * K[j] for j in range(n)) for i in range(n)]
        F = sum(K[i] * (N * MK[i] + g[i]) for i in range(n))
        i = int(np.argmin(F))
        if best_F is None or F[i] < best_F:
            best_F, best_k = F[i], [int(v) for v in K[:, i]]
    c = tuple(x0[j] + N * best_k[j] for j in range(n))
    C = sum(x0[i] * M[i][j] * x0[j] for i in range(n) for j in range(n))
    if R < math.inf and Fraction(C + N * best_F, den) > Fraction(R) ** 2:
        return None
    return c


def _gram_schmidt(V) -> list:
    """The exact Gram-Schmidt rows (u, u.u) of the rows of V, in
    rationals; ValueError if the rows are linearly dependent."""
    ortho = []
    for i, row in enumerate(V):
        u = [Fraction(v) for v in row]
        for b, bb in ortho:
            t = sum(x * y for x, y in zip(u, b)) / bb
            u = [x - t * y for x, y in zip(u, b)]
        if not any(u):
            raise ValueError(f"subspace rows {list(range(i + 1))} are "
                             "linearly dependent")
        ortho.append((u, sum(x * x for x in u)))
    return ortho
