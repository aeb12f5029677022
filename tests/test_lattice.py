"""Grids, Minkowski lattices, region membership and point enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasivis.cutproject import CPSetDesc
from quasivis.lattice import (
    GridDesc,
    HypothesisFailed,
    box_reduced_basis,
    enumerate_field_points_exact,
    enumerate_points,
    schmidt_count_check,
    shortest_independent_bound,
)
from quasivis.quadfield import (
    QuadInt,
    field,
    fundamental_unit,
    int_array,
    int_mul,
)
from quasivis.regions import (
    Ball,
    Box,
    Polygon,
    Product,
    UnitScaled,
    disc_window,
    octagon_window,
    region_from_spec,
    square_window,
)

import region_oracle
from region_oracle import as_ints

F2 = field(2)
Z2 = GridDesc(basis=np.eye(2), d=2, m=0)


# ---------------------------------------------------------------------------
# regions


def test_box_exact_membership_open_closed():
    b = Box.make([(0, 1)], lo_open=[True], hi_open=[False])
    one = (Fraction(1), Fraction(0))
    zero = (Fraction(0), Fraction(0))
    assert b.contains_exact(*as_ints((one,)), 2)
    assert not b.contains_exact(*as_ints((zero,)), 2)
    # sqrt2/2 is inside
    assert b.contains_exact(*as_ints(((Fraction(0), Fraction(1, 2)),)), 2)


def test_ball_exact_membership_quadratic_point():
    ball = Ball.make((0, 0), 1)
    half2 = (Fraction(0), Fraction(1, 2))  # sqrt2/2
    # on the boundary, closed
    assert ball.contains_exact(*as_ints((half2, half2)), 2)
    just_out = (Fraction(1, 100) , Fraction(1, 2))
    assert not ball.contains_exact(*as_ints((just_out, half2)), 2)


def test_polygon_octagon_symmetry_and_area():
    o = octagon_window(1)
    assert o.is_centrally_symmetric()
    assert o.volume_exact() == Fraction(4) - 2 * (1 - Fraction(29, 70)) ** 2
    assert o.contains_exact(*as_ints(((Fraction(0), Fraction(0)),) * 2), 2)
    assert not o.contains_exact(*as_ints(
        ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)))), 2)


def test_region_from_spec_roundtrip():
    sq = region_from_spec({"kind": "square", "half_width": "3/2"})
    assert sq.bounds[0] == (Fraction(-3, 2), Fraction(3, 2))
    pr = region_from_spec({"kind": "product",
                           "left": {"kind": "cube", "half_width": 1, "dim": 2},
                           "right": {"kind": "disc", "r2": 2}})
    assert pr.dim == 4
    assert pr.is_centrally_symmetric()
    assert not Product(pr, Box.make([(0, 1)])).is_centrally_symmetric()
    box = region_from_spec({"kind": "box", "bounds": [[-1, 1], [-1, 1]],
                            "lo_open": [True, False]})
    assert box.lo_open == (True, False)
    with pytest.raises(ValueError):
        region_from_spec({"kind": "frisbee"})


SQUARE_CCW = [[1, 0], [0, 1], [-1, 0], [0, -1]]


@pytest.mark.parametrize("vertices", [
    SQUARE_CCW,
    [[0, 0], [1, 0], [0, 1]],
    [[Fraction(1, 3), Fraction(-2, 7)], [5, 1], [Fraction(-1, 2), 4]],
])
def test_polygon_spec_accepts_strictly_convex_ccw(vertices):
    assert region_from_spec({"kind": "polygon", "vertices": vertices}) \
        .is_strictly_convex()
    assert octagon_window(1).is_strictly_convex()


# the clockwise, non-convex and 2-vertex cases run through the CLI in
# tests/test_cli.py
@pytest.mark.parametrize("vertices", [
    [[4, 0], [0, 4], [-4, 0], [0, 1]],                   # reflex at (0, 1)
    [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, -1]],       # (0, 1) on an edge
    [[1, 0], [0, 1], [0, 1], [-1, 0], [0, -1]],        # a repeated vertex
    [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0], [0, 1],
     [-1, 0], [0, -1]],                                  # wound twice
])
def test_polygon_spec_rejects_other_vertex_lists(vertices):
    with pytest.raises(ValueError):
        region_from_spec({"kind": "polygon", "vertices": vertices})


def test_unit_scaled_membership():
    lam = fundamental_unit(F2)  # 1 + sqrt2
    w = UnitScaled(base=square_window(1), mult=lam)
    assert w.inv == -lam.conj()  # sqrt2 - 1, since N(lam) = -1
    # w = (1/lam) * [-1,1]^2, half-width sqrt2 - 1 = 0.4142
    inside = ((Fraction(2, 5), Fraction(0)),) * 2
    outside = ((Fraction(1, 2), Fraction(0)),) * 2
    assert w.contains_exact(*as_ints(inside), 2)
    assert not w.contains_exact(*as_ints(outside), 2)
    assert w.volume() == pytest.approx(4 * (math.sqrt(2) - 1) ** 2)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_unit_scaled_inverse(d):
    lam = fundamental_unit(field(d))
    for mult in (lam, lam * lam, lam.norm() * lam.conj()):
        assert UnitScaled(square_window(1), mult).inv * mult == 1


@pytest.mark.parametrize("a,b", [(2, 0), (1, 2), (0, 0), (-1, 0), (1, -1)])
def test_unit_scaled_rejects_non_unit_or_negative(a, b):
    """In Q(sqrt2), 2, 1 + 2*sqrt2 and 0 are no units; -1 and 1 - sqrt2
    are units below zero."""
    mult = QuadInt(F2, a, b)
    with pytest.raises(ValueError):
        UnitScaled(square_window(1), mult)


def test_float_membership_boundary_flags():
    b = Box.cube(1, 2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.1, 0.0], [1.0 - 1e-12, 0.5]])
    status = b.contains_float(pts)
    assert list(status) == [1, 2, 0, 2]


# Membership, for a batch and for each point alone, against the Fraction
# oracle in region_oracle.py.  Each region comes with
# points on its boundary: box corners and edges, polygon vertices and edge
# midpoints, circle points, and (for unit-scaled windows) their images under
# the irrational scale factor.

F = Fraction
BATCH_BASES = {
    "box_mixed": Box.make([(-1, F(2, 3)), (F(1, 2), F(5, 4))],
                          lo_open=[True, False], hi_open=[False, True]),
    "box_open": Box.make([(-1, 1), (-1, 1)], [True, True], [True, True]),
    "square": square_window(1),
    "ball": Ball.make((F(1, 3), F(-1, 2)), 1),
    "octagon": octagon_window(1),
    "triangle": Polygon.make([(0, 0), (2, 0), (F(1, 2), F(3, 2))]),
    "product": Product(Box.make([(0, 1)], lo_open=[True]), disc_window(1)),
}


def rational(a):
    return (F(a), F(0))


def boundary_points(region, d):
    """Points on or at the corners of the region's boundary, as tuples of
    (A, B) scalars."""
    if isinstance(region, Box):
        values = [[rational(0)] + [rational(b) for b in lohi]
                  for lohi in region.bounds]
        return list(itertools.product(*values))
    if isinstance(region, Polygon):
        vs = region.vertices
        mids = [((x1 + x2) / 2, (y1 + y2) / 2)
                for (x1, y1), (x2, y2) in zip(vs, vs[1:] + vs[:1])]
        return [(rational(x), rational(y)) for x, y in list(vs) + mids]
    if isinstance(region, Ball):  # unit radius in the regions used here
        cx, cy = region.center
        return [(rational(cx + ox), rational(cy + oy)) for ox, oy in
                [(F(3, 5), F(4, 5)), (-1, 0), (0, 1), (F(-4, 5), F(-3, 5))]]
    if isinstance(region, Product):
        return [a + b for a in boundary_points(region.left, d)
                for b in boundary_points(region.right, d)]
    inv = region.inv.as_pair()  # UnitScaled: the base's boundary / mult
    return [tuple((a * inv[0] + b * inv[1] * d, a * inv[1] + b * inv[0])
                  for a, b in pt)
            for pt in boundary_points(region.base, d)]


def batch_region(name, d, extra_exp):
    desc = CPSetDesc(field=field(d), d=2, window=BATCH_BASES[name])
    return desc.scaled_window(extra_exp=extra_exp)


def as_int_arrays(points, dim, den_factor=1):
    """P, Q, den with points[i][j] = (P[i, j] + Q[i, j]*sqrt(d))/den."""
    den = den_factor * math.lcm(*(x.denominator for pt in points
                                  for ab in pt for x in ab))
    P = int_array([[int(a * den) for a, _ in pt] for pt in points])
    Q = int_array([[int(b * den) for _, b in pt] for pt in points])
    return P.reshape(-1, dim), Q.reshape(-1, dim), den


def check_batch(region, d, points, den_factor):
    """contains_exact on the (dim, N) arrays and on each point as Python
    ints, both against the oracle."""
    P, Q, den = as_int_arrays(points, region.dim, den_factor)
    want = [region_oracle.contains(region, pt, d) for pt in points]
    got = region.contains_exact(P.T, Q.T, den, d)
    assert got.dtype == bool and got.tolist() == want
    one = [region.contains_exact(p.tolist(), q.tolist(), den, d)
           for p, q in zip(P, Q)]
    assert all(type(r) is bool for r in one) and one == want


small_scalars = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.fractions(min_value=-2, max_value=2, max_denominator=12))


@pytest.mark.parametrize("extra_exp", [0, -1, 2])
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("name", sorted(BATCH_BASES))
def test_contains_exact_batch_on_boundary(name, d, extra_exp):
    region = batch_region(name, d, extra_exp)
    check_batch(region, d, boundary_points(region, d), 1)


@pytest.mark.parametrize("extra_exp", [0, -1, 2])
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("name", sorted(BATCH_BASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_contains_exact_batch_matches_scalar(name, d, extra_exp, data):
    region = batch_region(name, d, extra_exp)
    point = st.one_of(
        st.sampled_from(boundary_points(region, d)),
        st.lists(small_scalars, min_size=region.dim,
                 max_size=region.dim).map(tuple))
    points = data.draw(st.lists(point, max_size=12))
    check_batch(region, d, points, data.draw(st.sampled_from([1, 3])))


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("name", sorted(BATCH_BASES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_contains_exact_batch_huge_coordinates(name, d, data):
    """A + B*sqrt(d) near the region with |A|, |B| near 10^12: the squares
    exceed the int64 guard, so the Python-int path decides the signs."""
    region = batch_region(name, d, data.draw(st.sampled_from([0, -1])))

    def coord(b, c):
        a = -math.isqrt(b * b * d) if b > 0 else math.isqrt(b * b * d)
        return (F(a + c, 2), F(b, 2))

    point = st.lists(st.builds(
        coord, st.integers(10 ** 12, 10 ** 13) | st.integers(-10 ** 13,
                                                              -10 ** 12),
        st.integers(-4, 4)), min_size=region.dim, max_size=region.dim)
    points = data.draw(st.lists(point.map(tuple), min_size=1, max_size=8))
    P, Q, _ = as_int_arrays(points, region.dim)
    assert int_mul(Q, Q).dtype == object
    check_batch(region, d, points, 1)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_unit_disc_z2():
    U, X, bnd = enumerate_points(Z2, disc_window(1))
    assert len(U) == 5
    assert sorted(map(tuple, U)) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def test_enumerate_empty_region():
    # [1/3, 2/3] x [0, 1] holds no integer first coordinate
    U, X, _ = enumerate_points(Z2, Box.make([(Fraction(1, 3), Fraction(2, 3)),
                                             (0, 1)]))
    assert len(U) == 0


def minkowski_basis(fld, dim):
    """The float basis of the dim-fold Minkowski lattice of (x, sigma(x)):
    columns (a_1, b_1, ..., a_dim, b_dim) for x_i = a_i + b_i*omega, rows
    physical then internal."""
    omega = QuadInt(fld, 0, 1)
    B = np.zeros((2 * dim, 2 * dim))
    for i in range(dim):
        B[i, 2 * i], B[i, 2 * i + 1] = 1.0, float(omega)
        B[dim + i, 2 * i], B[dim + i, 2 * i + 1] = 1.0, omega.conj_float()
    return B


@pytest.mark.parametrize("d", [2, 5, 13])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_covolume_matches_float_determinant(d, dim):
    """CPSetDesc.covolume, sqrt(disc)^dim, against the determinant of the
    float Minkowski basis."""
    desc = CPSetDesc(field=field(d), d=dim, window=Box.cube(1, dim))
    det = GridDesc(basis=minkowski_basis(field(d), dim), d=dim, m=dim)
    assert desc.covolume() == pytest.approx(det.covolume(), rel=1e-12)
    if (d, dim) == (2, 2):
        assert desc.covolume() == 8.0  # sqrt(8)^2


def test_covolume_examples():
    assert GridDesc(basis=np.diag([2.0, 3.0]), d=2, m=0).covolume() == \
        pytest.approx(6.0)


def test_exact_enumeration_d1_matches_scan():
    got = {xs[0] for xs in enumerate_field_points_exact(
        F2, Box.make([(0, 2)]), Box.make([(-1, 1)]))}
    want = set()
    for a in range(-10, 11):
        for b in range(-10, 11):
            x = QuadInt(F2, a, b)
            if x.compare(0) >= 0 and x.compare(2) <= 0 and \
                    x.conj().compare(-1) >= 0 and x.conj().compare(1) <= 0:
                want.add(x)
    assert got == want


# Exact enumeration against a bounded scan of a + b*omega on each axis, joint
# membership decided point by point by the Fraction oracle in
# region_oracle.py (the reference).  Every physical region lies in [-3, 3]^2 and every window,
# scaled by lambda^(+-1), in [-5/2, 5/2]^2.

ENUM_PHYS = {
    "cube": Box.cube(3, 2),
    # the open faces x_1 = 1 and x_2 = -1 hold points whose internal part
    # lies in the closed windows, e.g. x = (1, 0) with sigma(x) = x
    "box_open_sides": Box.make([(-3, 1), (-1, 3)], lo_open=[False, True],
                               hi_open=[True, False]),
}
ENUM_WINDOWS = {
    "square": square_window(1),
    "box_open": Box.make([(-1, 1), (-1, 1)], [True, True], [True, True]),
    "disc": disc_window(1),
    "octagon": octagon_window(1),
}


def scan_axis(fld, reach=12):
    """a + b*omega for a, b in [-reach, reach] whose embeddings fit the
    bounds above with room to spare; the scan's edge is never reached."""
    out = []
    for a, b in itertools.product(range(-reach, reach + 1), repeat=2):
        x = QuadInt(fld, a, b)
        if abs(float(x)) <= 3.5 and abs(x.conj_float()) <= 3:
            assert max(abs(a), abs(b)) < reach
            out.append(x)
    return out


@pytest.mark.parametrize("extra_exp", [0, 1, -1])
@pytest.mark.parametrize("window_name", sorted(ENUM_WINDOWS))
@pytest.mark.parametrize("phys_name", sorted(ENUM_PHYS))
@pytest.mark.parametrize("d", [2, 5])
def test_exact_enumeration_matches_scalar_scan(d, phys_name, window_name,
                                               extra_exp):
    fld = field(d)
    phys = ENUM_PHYS[phys_name]
    window = CPSetDesc(field=fld, d=2, window=ENUM_WINDOWS[window_name]
                       ).scaled_window(extra_exp=extra_exp)
    axis = scan_axis(fld)
    want = {xs for xs in itertools.product(axis, repeat=2)
            if region_oracle.contains(phys, tuple(x.as_pair() for x in xs), d)
            and region_oracle.contains(
                window, tuple(x.conj().as_pair() for x in xs), d)}
    got = list(enumerate_field_points_exact(fld, phys, window))
    assert want and len(got) == len(set(got))
    assert set(got) == want


def test_linear_equivariance_diagonal():
    rng = np.random.default_rng(5)
    for _ in range(10):
        scale = rng.uniform(0.5, 2.0, size=2)
        box = Box.make([(-2, 3), (-1, 2)])
        gbox = Box.make([(Fraction(-2) * Fraction(str(round(scale[0], 6))),
                          Fraction(3) * Fraction(str(round(scale[0], 6)))),
                         (Fraction(-1) * Fraction(str(round(scale[1], 6))),
                          Fraction(2) * Fraction(str(round(scale[1], 6))))])
        s = np.array([float(round(v, 6)) for v in scale])
        gl = GridDesc(basis=np.diag(s), d=2, m=0)
        U1, X1, _ = enumerate_points(gl, gbox)
        U2, X2, _ = enumerate_points(Z2, box)
        assert sorted(map(tuple, U1)) == sorted(map(tuple, U2))
        assert np.allclose(sorted(map(tuple, X1)),
                           [tuple(s * u) for u in sorted(map(tuple, U2))],
                           atol=1e-9)


# ---------------------------------------------------------------------------
# unit rescaling


def test_a0_invariance_point_sets():
    """The a_0 image of the exact point set in a region equals the point
    set in the rescaled region, point for point."""
    lam = fundamental_unit(F2)
    g0 = lam * lam  # totally positive, since N(lambda) = -1
    phys = Box.cube(3, 1)
    internal = Box.cube(2, 1)
    pts = set(xs[0] for xs in enumerate_field_points_exact(F2, phys, internal))
    inv = g0.conj()  # norm 1: inverse is the conjugate
    scaled_phys = UnitScaled(base=phys, mult=inv)
    scaled_int = UnitScaled(base=internal, mult=g0)
    pts_scaled = set(xs[0] for xs in enumerate_field_points_exact(
        F2, scaled_phys, scaled_int))
    assert {g0 * x for x in pts} == pts_scaled


# ---------------------------------------------------------------------------
# basis reduction


def test_box_reduced_basis_preserves_lattice():
    rng = np.random.default_rng(11)
    for _ in range(20):
        B = rng.standard_normal((3, 3))
        B /= abs(np.linalg.det(B)) ** (1 / 3)
        w = np.array([50.0, 50.0, 1.0])
        R = box_reduced_basis(B, w)
        M = np.linalg.solve(B, R)
        assert np.allclose(M, np.round(M), atol=1e-6)
        assert abs(round(np.linalg.det(M))) == 1
        # reduction never inflates the scaled column lengths
        assert np.linalg.norm(R / w[:, None]) <= \
            np.linalg.norm(B / w[:, None]) + 1e-9


# ---------------------------------------------------------------------------
# Schmidt-style counting checks


def test_schmidt_z2_square():
    box = Box.make([(0, Fraction(21, 2)), (0, Fraction(21, 2))])
    rep = schmidt_count_check(Z2, box, c=2.0, T0=16.0)
    assert rep.count == 11 * 11
    assert rep.discrepancy == pytest.approx(121 - 10.5 ** 2)
    assert rep.discrepancy <= rep.bound


def test_schmidt_empty_region():
    box = Box.make([(Fraction(1, 3), Fraction(5, 12)),
                    (Fraction(1, 3), Fraction(5, 12))])
    rep = schmidt_count_check(Z2, box, c=2.0, T0=2.0)
    assert rep.count == 0


def test_schmidt_hypothesis_failures():
    big = Box.cube(10, 2)
    with pytest.raises(HypothesisFailed):
        schmidt_count_check(Z2, big, c=2.0, T0=1.0)  # diameter exceeds T0
    small = Box.cube(Fraction(1, 4), 2)
    with pytest.raises(HypothesisFailed):
        schmidt_count_check(Z2, small, c=0.5, T0=1.0)  # no short basis <= c


def test_schmidt_one_dimensional_grid():
    # n - 1 = 0 short vectors are asked for: the empty set satisfies that
    line = GridDesc(basis=np.eye(1), d=1, m=0)
    rep = schmidt_count_check(line, Box.make([(F(-5, 4), F(5, 4))]),
                              c=2.0, T0=4.0)
    assert rep.count == 3
    assert rep.discrepancy == pytest.approx(0.5)
    assert rep.discrepancy <= rep.bound == 2.0


def reference_independent_bound(grid, count, search=3):
    """Scalar scan: max length among `count` greedily chosen linearly
    independent vectors, over coefficient vectors in [-search, search]^n;
    0.0 for the empty set."""
    if count == 0:
        return 0.0
    vecs = []
    for u in itertools.product(range(-search, search + 1), repeat=grid.n):
        if all(c == 0 for c in u):
            continue
        v = grid.basis @ np.array(u, dtype=float)
        vecs.append((np.linalg.norm(v), v))
    vecs.sort(key=lambda t: t[0])
    chosen = []
    for ln, v in vecs:
        cand = chosen + [v]
        if np.linalg.matrix_rank(np.array(cand), tol=1e-9) == len(cand):
            chosen.append(v)
            if len(chosen) == count:
                return ln
    return math.inf


@pytest.mark.parametrize("n", [2, 3, 4])
def test_independent_lengths_match_scalar_scan(n):
    # the lattices of acceptance criterion 10; the batched norms may differ
    # from the per-vector ones in the last bits
    for i in range(20):
        rng = np.random.default_rng(1000 * n + i)
        grid = GridDesc(basis=np.eye(n) + 0.2 * rng.standard_normal((n, n)),
                        d=n, m=0)
        assert len(grid.independent_lengths) == n
        for count in range(n + 2):
            want = reference_independent_bound(grid, count)
            got = shortest_independent_bound(grid, count)
            assert got == pytest.approx(want, rel=1e-12), (i, count)
