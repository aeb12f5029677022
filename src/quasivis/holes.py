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

    Candidates are a budgeted grid along V with step N, each mapped to its
    nearest translate by componentwise rounding and ranked in long doubles,
    SEARCH_BLOCK at a time, until the block in which the count reaches the
    budget.  The best one is returned as an integer vector only if its
    exact distance to span(V), taking the floats of V and R at their binary
    values, is at most R (R = inf accepts any distance); otherwise None."""
    if not R >= 0:
        raise ValueError(f"radius must be >= 0, got {R}")
    if search_budget <= 0:
        return None
    Vb = np.atleast_2d(np.asarray(V, dtype=np.float64))
    if Vb.shape[1] != hole.n or not np.isfinite(Vb).all() or not Vb.any():
        raise ValueError("subspace basis must be finite, nonzero, in R^n")
    Q64, _ = np.linalg.qr(Vb.T)
    Q = Q64.astype(np.longdouble)
    r = Q.shape[1]
    x0 = np.array(hole.x0, dtype=np.longdouble)
    N = np.longdouble(hole.N)
    side = max(1, int(round(search_budget ** (1.0 / r))))
    best = (np.longdouble(np.inf), None)
    tried = 0
    while tried < min(search_budget, side ** r):
        # the next indices of the grid [-(side//2), side - side//2)^r in
        # lexicographic order
        block = np.arange(tried, min(tried + SEARCH_BLOCK, side ** r))
        tried += len(block)
        J = np.stack(np.unravel_index(block, (side,) * r), axis=1)
        J = (J - side // 2).astype(np.longdouble) * N
        t = J @ Q.T
        k = np.rint((t - x0) / N)
        c = x0 + N * k
        resid = c - (c @ Q) @ Q.T
        dist = np.sqrt((resid * resid).sum(axis=1))
        i = int(np.argmin(dist))
        if dist[i] < best[0]:
            best = (dist[i], tuple(int(v) for v in k[i]))
    if best[1] is None:
        return None
    c = tuple(int(hole.x0[j]) + hole.N * best[1][j] for j in range(hole.n))
    if R < math.inf and _dist2_to_span(c, Vb.tolist()) > Fraction(R) ** 2:
        return None
    return c


def _dist2_to_span(x, V) -> Fraction:
    """Exact squared distance from the vector x to span(rows of V), by
    Gram-Schmidt in rationals."""
    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def reject(v, ortho):
        for u, uu in ortho:
            t = dot(v, u) / uu
            v = [a - t * b for a, b in zip(v, u)]
        return v

    ortho = []
    for row in V:
        u = reject([Fraction(v) for v in row], ortho)
        if any(u):
            ortho.append((u, dot(u, u)))
    r = reject([Fraction(v) for v in x], ortho)
    return dot(r, r)
