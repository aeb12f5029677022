"""Certified gcd-holes via CRT and translate search near a subspace."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from quasivis import holes
from quasivis.holes import (
    CRTHole,
    NotInResidueClass,
    build_crt_hole,
    hole_near_subspace,
    verify_hole,
)


@pytest.mark.parametrize("n,A", [(2, 0), (2, 1), (3, 1)])
def test_build_and_verify(n, A):
    hole = build_crt_hole(n, A)
    assert len(hole.prime_table) == (2 * A + 1) ** n
    assert len(set(hole.prime_table.values())) == len(hole.prime_table)
    assert hole.N == math.prod(hole.prime_table.values())
    assert all(0 <= v < hole.N for v in hole.x0)
    assert verify_hole(hole, hole.x0)
    # every point in the box has the assigned prime as a divisor witness
    for tup, pr in hole.prime_table.items():
        point = [x + t for x, t in zip(hole.x0, tup)]
        assert all(v % pr == 0 for v in point)
        assert math.gcd(*point) != 1


def test_prime_table_lex_order_smallest_primes():
    hole = build_crt_hole(2, 1)
    tuples = list(hole.prime_table)
    assert tuples == sorted(tuples)
    assert sorted(hole.prime_table.values()) == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert hole.prime_table[(-1, -1)] == 2


@pytest.mark.parametrize("n,A", [(2, 1), (3, 1)])
def test_verify_random_translates(n, A):
    hole = build_crt_hole(n, A)
    rng = np.random.default_rng(17)
    for _ in range(5):
        k = rng.integers(-10 ** 6, 10 ** 6, size=n)
        x = tuple(int(x0) + hole.N * int(kj) for x0, kj in zip(hole.x0, k))
        assert verify_hole(hole, x)


def test_verify_rejects_wrong_residue():
    hole = build_crt_hole(2, 1)
    off = (hole.x0[0] + 1, hole.x0[1])
    with pytest.raises(NotInResidueClass):
        verify_hole(hole, off)
    with pytest.raises(NotInResidueClass):
        verify_hole(hole, (1, 2, 3))


def test_verify_detects_corrupt_certificate():
    hole = build_crt_hole(2, 1)
    bad = CRTHole(n=2, A=1, prime_table=hole.prime_table,
                  x0=(hole.x0[0], (hole.x0[1] + hole.N // 7) % hole.N),
                  N=hole.N)
    # same residue class as itself, so no exception, but the divisor
    # witnesses fail
    assert not verify_hole(bad, bad.x0)


def test_json_roundtrip():
    hole = build_crt_hole(3, 1)
    data = json.loads(json.dumps(hole.to_json()))
    assert (data["n"], data["A"]) == (hole.n, hole.A)
    assert {tuple(int(v) for v in k.split(",")): int(p)
            for k, p in data["primes"].items()} == hole.prime_table
    assert tuple(int(v) for v in data["x0"]) == hole.x0
    assert int(data["N"]) == hole.N


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_crt_hole(1, 1)
    with pytest.raises(ValueError):
        build_crt_hole(2, -1)


def test_hole_near_subspace_finds_translate():
    hole = build_crt_hole(2, 0)
    V = [[1.0, math.sqrt(2)]]
    x = hole_near_subspace(hole, V, R=float(hole.N), search_budget=20000)
    assert x is not None
    assert verify_hole(hole, x)
    q = np.array(V[0]) / np.linalg.norm(V[0])
    v = np.array(x, dtype=float)
    dist = np.linalg.norm(v - (v @ q) * q)
    assert dist <= hole.N


def test_hole_near_subspace_past_the_float_range():
    """At n=5, A=1 the modulus N has 648 digits, past the largest double:
    the candidates are ranked by float distances in units of N, their
    near-ties and an int radius decided exactly."""
    hole = build_crt_hole(5, 1)
    assert hole.N > 10 ** 600
    x = hole_near_subspace(hole, [[1, 2, 3, 5, 7]], math.inf, 100)
    assert x is not None
    assert all((xi - x0i) % hole.N == 0 for xi, x0i in zip(x, hole.x0))
    assert hole_near_subspace(hole, [[1, 2, 3, 5, 7]], hole.N, 100) == x


def test_hole_near_subspace_budget_exhausted():
    hole = build_crt_hole(2, 0)
    V = [[1.0, math.sqrt(2)]]
    assert hole_near_subspace(hole, V, R=1.0, search_budget=0) is None
    # x0 of the A=1 hole is off the irrational line, so a vanishing radius
    # cannot be met within a tiny budget
    hole1 = build_crt_hole(2, 1)
    assert hole_near_subspace(hole1, V, R=1e-12,
                              search_budget=50) is None


@pytest.mark.parametrize("R,V", [(math.nan, [[1.0, 1.41]]),
                                 (-1.0, [[1.0, 1.41]]),
                                 (1.0, [[0.0, 0.0]]),
                                 (1.0, [[math.inf, 1.0]])])
def test_hole_near_subspace_rejects_bad_arguments(R, V):
    with pytest.raises(ValueError):
        hole_near_subspace(build_crt_hole(2, 1), V, R, search_budget=10)


def test_hole_near_subspace_rechecks_distance_exactly():
    """At n=3, A=1 the modulus N has 41 digits, beyond the float ranking of
    the search.  A radius just below the exact distance of the best
    translate must not report it; the next double up must."""
    hole = build_crt_hole(3, 1)
    V = [[1.0, 0.5, 0.25]]
    x = hole_near_subspace(hole, V, R=float(hole.N), search_budget=50)
    assert x is not None
    v = [Fraction(c) for c in V[0]]
    along = sum(a * b for a, b in zip(x, v))
    exact2 = sum(a * a for a in x) - along ** 2 / sum(c * c for c in v)
    R = math.sqrt(float(exact2))
    while Fraction(R) ** 2 < exact2:
        R = math.nextafter(R, math.inf)
    while Fraction(R) ** 2 >= exact2:
        R = math.nextafter(R, 0.0)
    assert hole_near_subspace(hole, V, R, search_budget=50) is None
    R_up = math.nextafter(R, math.inf)
    assert hole_near_subspace(hole, V, R_up, search_budget=50) == x


# Recorded from the itertools.product mesh that the block-wise index grid
# replaced.  At budget 70,000 a plane gets side 265, so 265^2 = 70,225
# candidates in two blocks of at most 2^16; the best one lies in the
# second, partial block, so a lost block or a shifted order would show.
PLANE = [[2.118, -1.112, -0.378], [2.043, 0.647, 0.663]]
PINNED_PLANE_SEARCH = [
    (65536, (1670913506640006565367470341160931012860921,
             -1555599472638216564994261318264774970167199,
             -703566635095784851510658376362012940354111)),
    (70000, (927383977243324492013568170361471002578411,
             -3474385354952234818810783049360155641863999,
             -1950777458599896716491397501574010376957031)),
]


@pytest.mark.parametrize("budget,want", PINNED_PLANE_SEARCH)
def test_hole_near_subspace_pinned_plane_search(budget, want):
    hole = build_crt_hole(3, 1)
    assert hole_near_subspace(hole, PLANE, math.inf, budget) == want


# Also recorded from the mesh, with blocks of 16.  Budgets 1,130 and 1,156
# both give side 34 and 34^2 = 1,156 candidates; at 1,130 the search stops
# after the block in which the count reaches the budget (71 blocks, 1,136
# candidates), before the best one of the full grid.
STOP_PLANE = [[-0.549, -0.532, -1.349], [-0.592, -0.092, 0.691]]
PINNED_STOP_SEARCH = [
    (1130, (279793741962343331350492086116780025880741,
            147322997915474635267901718082375375963711,
            135902188416598134534069880992216103513239)),
    (1156, (-247872375674011688449051389934449658835879,
            -164479707960553330977283063220623983187019,
            -271839811575130744401940986865552289222331)),
]


@pytest.mark.parametrize("budget,want", PINNED_STOP_SEARCH)
def test_hole_near_subspace_stops_after_budget_block(monkeypatch, budget,
                                                     want):
    monkeypatch.setattr(holes, "SEARCH_BLOCK", 16)
    hole = build_crt_hole(3, 1)
    assert hole_near_subspace(hole, STOP_PLANE, math.inf, budget) == want


def dist2_to_span(x, V) -> Fraction:
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
        ortho.append((u, dot(u, u)))
    r = reject([Fraction(v) for v in x], ortho)
    return dot(r, r)


def brute_force_search(hole, V, budget):
    """The first translate in grid order of least exact distance to
    span(V), over the grid points up to the end of the search block in
    which the count reaches the budget.  k is the half-even rounding of
    J*Q^T - x0/N in float64, in the search's order of operations; it must
    equal the exact rounding, Q's floats at their binary values."""
    Vb = np.atleast_2d(np.asarray(V, dtype=np.float64))
    Q, _ = np.linalg.qr(Vb.T)
    r = Q.shape[1]
    side = max(1, round(budget ** (1 / r)))
    blocks = -(-budget // holes.SEARCH_BLOCK)
    grid = itertools.product(range(-(side // 2), side - side // 2),
                             repeat=r)
    best = None
    for J in itertools.islice(grid, blocks * holes.SEARCH_BLOCK):
        k = []
        for i in range(hole.n):
            y = -(hole.x0[i] / hole.N)
            for j in range(r):
                y = y + float(Q[i, j]) * J[j]
            k.append(int(np.rint(y)))
        assert k == [round(sum(Fraction(Q[i, j]) * J[j] for j in range(r))
                           - Fraction(hole.x0[i], hole.N))
                     for i in range(hole.n)]
        c = tuple(x + hole.N * kj for x, kj in zip(hole.x0, k))
        d2 = dist2_to_span(c, Vb.tolist())
        if best is None or d2 < best[0]:
            best = (d2, c)
    return best[1]


# The rational lines put many candidates at exactly equal distances: at
# n = 3, budget 500, 125 of them sit within the float ranking's error bound
# of the least one, and the first of least exact distance must win.  The
# dyadic line and the double nearest 0.1, a 16-digit integer over 2^55,
# give exact distances whose integer ranks run far past 64 bits; with V
# spanning R^2, M = 0 and every candidate is at distance 0.
@pytest.mark.parametrize("n,V,budget", [
    (2, [[1, 1.41421356]], 3000),
    (2, [[1, 0.1]], 3000),
    (2, [[1, 0], [0, 1]], 50),
    (3, PLANE, 2000),
    (3, [[1, 0.5, 0.25]], 500),
    (5, [[1, 2, 3, 5, 7]], 100),
    (5, [[1, 2, 3, 5, 7]], 2000),
])
def test_hole_near_subspace_matches_brute_force(n, V, budget):
    hole = build_crt_hole(n, 1)
    assert hole_near_subspace(hole, V, math.inf, budget) == \
        brute_force_search(hole, V, budget)


def test_hole_near_subspace_rejects_dependent_rows():
    """A second row on the same line would let the QR factorization
    invent a direction off the subspace."""
    hole = build_crt_hole(3, 1)
    with pytest.raises(ValueError, match=r"rows \[0, 1\] are linearly "
                                         "dependent"):
        hole_near_subspace(hole, [[1, 0.5, 0.25], [2, 1, 0.5]], hole.N,
                           2000)


@pytest.mark.parametrize("block", [holes.SEARCH_BLOCK, 7])
def test_hole_near_subspace_ties_go_to_the_first_in_grid_order(
        monkeypatch, block):
    """With x0/N = (1/2, 0) every translate near the line x = y has
    k_1 - k_2 = 0 or -1, both at the exact distance 1/(2*sqrt(2)) in units
    of N: an exact tie between two residuals, within one search block and
    across blocks."""
    monkeypatch.setattr(holes, "SEARCH_BLOCK", block)
    hole = CRTHole(n=2, A=0, prime_table={}, x0=(1, 0), N=2)
    x = hole_near_subspace(hole, [[1.0, 1.0]], math.inf, 40)
    assert x == brute_force_search(hole, [[1.0, 1.0]], 40)
