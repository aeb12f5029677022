"""Cut-and-project construction and visibility classification."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from quasivis.cutproject import (
    CPSetDesc,
    NotHammarhjelm,
    CPPoint,
    PointSet,
    classify,
    generate,
    points_to_csv,
    strict_inclusion_witness,
    strict_inclusion_witness_random,
    visible_fast,
    visible_oracle,
)
from quasivis.lattice import field_point_arrays
from quasivis.quadfield import QuadInt, field, fundamental_unit
from quasivis.regions import (
    Ball,
    Box,
    disc_window,
    octagon_window,
    square_window,
)

F2, F5 = field(2), field(5)
D2 = Box.cube(1, 2)


def desc_for(fld, window=None, beta_exp=0):
    return CPSetDesc(field=fld, d=2,
                     window=window or square_window(1), beta_exp=beta_exp)


def test_generate_origin_only():
    desc = desc_for(F2)
    pts = generate(desc, D2, Fraction(1, 4))
    assert len(pts) == 1 and pts[0].is_origin


def test_generate_matches_slow_scan():
    desc = desc_for(F2)
    got = {p.quad_coords for p in generate(desc, D2, 5)}
    want = set()
    def in_slab(x):
        return (x.compare(-5) >= 0 and x.compare(5) <= 0
                and x.conj().compare(-1) >= 0 and x.conj().compare(1) <= 0)

    axis = [QuadInt(F2, a, b) for a in range(-8, 9) for b in range(-6, 7)
            if in_slab(QuadInt(F2, a, b))]
    for x1 in axis:
        for x2 in axis:
            want.add((x1, x2))
    assert got == want


def test_generate_density_converges():
    desc = desc_for(F2)
    predicted = 4 / desc.covolume()
    errs = []
    for T in (40, 120):
        pts = len(generate(desc, D2, T))
        errs.append(abs(pts / float((2 * T) ** 2) - predicted))
    assert errs[1] < errs[0]
    assert errs[1] < 0.02 * predicted


def test_visible_fast_requires_hammarhjelm():
    bad = CPSetDesc(field=field(3), d=2, window=square_window(1))
    pts = generate(desc_for(F2), D2, 2)
    with pytest.raises(NotHammarhjelm):
        visible_fast(bad, pts[1])
    assert not bad.is_hammarhjelm


def test_hammarhjelm_checked_once_per_field(monkeypatch):
    import quasivis.quadfield as quadfield
    calls = []
    witness = quadfield.hammarhjelm_witness

    def counting_witness(fld):
        calls.append(fld.d)
        return witness(fld)

    monkeypatch.setattr(quadfield, "hammarhjelm_witness", counting_witness)
    quadfield.check_hammarhjelm.cache_clear()
    try:
        desc = desc_for(F2)
        pts = generate(desc, D2, 6)
        assert len(pts) > 10
        for p in pts:
            visible_fast(desc, p)
        assert calls == [2]
    finally:
        quadfield.check_hammarhjelm.cache_clear()


def test_visible_fast_per_set_work_once_per_desc(monkeypatch):
    """The window symmetry test and the inner window lambda^(-1)*beta*W
    are computed once per set description, not once per point."""
    from quasivis.regions import Polygon
    calls = []
    symmetric = Polygon.is_centrally_symmetric
    scaled = CPSetDesc.scaled_window

    def counting_symmetric(self):
        calls.append("symmetric")
        return symmetric(self)

    def counting_scaled(self, extra_exp=0):
        calls.append(extra_exp)
        return scaled(self, extra_exp)

    pts = generate(CPSetDesc(field=F2, d=2, window=octagon_window(1)), D2, 6)
    monkeypatch.setattr(Polygon, "is_centrally_symmetric", counting_symmetric)
    monkeypatch.setattr(CPSetDesc, "scaled_window", counting_scaled)
    desc = CPSetDesc(field=F2, d=2, window=octagon_window(1))
    vis = [visible_fast(desc, p) for p in pts]
    assert len(pts) > 10 and any(vis) and not all(vis)
    assert sorted(calls, key=str) == [-1, "symmetric"]


def test_visible_fast_gcd_blocker():
    desc = desc_for(F2)
    pts = {p.quad_coords: p for p in generate(desc, D2, 5)}
    x = QuadInt(F2, 2, 1)  # 2 + sqrt2 = sqrt2 * (1 + sqrt2)
    p = pts[(x, x)]
    assert not visible_fast(desc, p)  # gcd ideal norm 2


def test_visible_unit_action_blocks():
    """lambda^{-1} x lies on the segment to x whenever it stays in the
    window, making x invisible."""
    desc = desc_for(F2)
    pts = generate(desc, D2, 10)
    by_coords = {p.quad_coords: p for p in pts}
    lam = fundamental_unit(F2)
    inv = -lam.conj()  # lambda^{-1}
    hits = 0
    for p in pts:
        if p.is_origin:
            continue
        scaled = tuple(x * inv for x in p.quad_coords)
        # inv has negative conjugate embedding... scale twice for positivity
        scaled2 = tuple(x * inv * inv for x in p.quad_coords)
        if scaled2 in by_coords and float(p.quad_coords[0]) > 0:
            hits += 1
            assert not visible_oracle(desc, p, pts)
    assert hits > 0


@pytest.mark.parametrize("fld", [F2, F5])
@pytest.mark.parametrize("window_name", ["square", "octagon"])
def test_oracle_equivalence_T15(fld, window_name):
    window = square_window(1) if window_name == "square" \
        else octagon_window(1)
    desc = desc_for(fld, window)
    pts = generate(desc, D2, 15)
    for p in pts:
        assert visible_fast(desc, p) == visible_oracle(desc, p, pts), \
            p.quad_coords


@pytest.mark.parametrize("fld,beta_exp", [(F2, 0), (F5, 0), (F2, -1)])
def test_oracle_equivalence_T60(fld, beta_exp):
    """Every point of the square-window set at T = 60, about 12,000 for
    d = 5: the indexed oracle makes full coverage cheap."""
    desc = desc_for(fld, beta_exp=beta_exp)
    pts = generate(desc, D2, 60)
    assert len(pts) > 1000
    for p in pts:
        assert visible_fast(desc, p) == visible_oracle(desc, p, pts), \
            p.quad_coords


@pytest.mark.parametrize("fld", [F2, F5])
@pytest.mark.parametrize("window_name", ["square", "octagon"])
def test_oracle_index_matches_plain_list(fld, window_name):
    window = square_window(1) if window_name == "square" \
        else octagon_window(1)
    desc = desc_for(fld, window)
    pts = generate(desc, D2, 10)
    assert isinstance(pts, PointSet)
    plain = list(pts)
    verdicts = [visible_oracle(desc, p, pts) for p in pts]
    assert verdicts == [visible_oracle(desc, p, plain) for p in pts]
    assert False in verdicts and True in verdicts


def test_point_set_indexes_once_and_is_immutable():
    pts = generate(desc_for(F2), D2, 4)
    assert pts.shortest is pts.shortest
    assert len(pts.shortest) < len(pts)  # rays holding several points
    with pytest.raises(TypeError):
        pts[0] = pts[1]
    with pytest.raises(AttributeError):
        pts.append(pts[0])


# open at both ends of the first axis, closed on the second
OPEN_BOX = Box.make([(-1, 1), (-1, 1)], lo_open=[True, False],
                    hi_open=[True, False])


def test_box_symmetry_needs_equal_flags():
    assert OPEN_BOX.is_centrally_symmetric()
    for lo_open, hi_open in [([], [True, True]), ([False, True], [])]:
        box = Box.make([(-1, 1), (-1, 1)], lo_open, hi_open)
        assert not box.is_centrally_symmetric()
        assert not desc_for(F2, box).is_hammarhjelm


@pytest.mark.parametrize("fld", [F2, F5])
def test_oracle_equivalence_box_open_on_both_sides(fld):
    desc = desc_for(fld, OPEN_BOX)
    assert desc.is_hammarhjelm
    pts = generate(desc, D2, 12)
    for p in pts:
        assert visible_fast(desc, p) == visible_oracle(desc, p, pts), \
            p.quad_coords


def test_oracle_smallest_on_ray_visible():
    desc = desc_for(F2)
    pts = generate(desc, D2, 8)
    nonzero = [p for p in pts if not p.is_origin]
    p = min(nonzero, key=lambda q: math.hypot(*map(float, q.quad_coords)))
    if visible_fast(desc, p):
        assert visible_oracle(desc, p, pts)


@pytest.mark.parametrize("fld", [F2, F5])
def test_oracle_multiple_blocks(fld):
    """x blocks 2x, and 2x does not block x."""
    desc = desc_for(fld)
    x = CPPoint((QuadInt(fld, 1, 1), QuadInt(fld, 3, 0)))
    x2 = CPPoint(tuple(2 * c for c in x.quad_coords))
    pts = [x, x2]
    assert visible_oracle(desc, x, pts)
    assert not visible_oracle(desc, x2, pts)


@pytest.mark.parametrize("fld", [F2, F5])
def test_oracle_opposite_point_does_not_block(fld):
    desc = desc_for(fld)
    x = CPPoint((QuadInt(fld, 2, 1), QuadInt(fld, -1, 1)))
    minus_x = CPPoint(tuple(-c for c in x.quad_coords))
    assert x.ray[0] != minus_x.ray[0]
    assert visible_oracle(desc, x, [minus_x, x])
    assert visible_oracle(desc, minus_x, [minus_x, x])


@pytest.mark.parametrize("fld", [F2, F5])
def test_oracle_unit_multiple_blocks(fld):
    """lambda^-2 x lies on the segment to x: the ray key sees the ratio in
    K, not only in Z."""
    desc = desc_for(fld)
    lam = fundamental_unit(fld)
    lam_inv2 = lam.conj() ** 2  # lambda^-2, whatever the norm of lambda
    y = CPPoint((QuadInt(fld, 1, 0), QuadInt(fld, 0, 1)))
    x = CPPoint(tuple(c * lam * lam for c in y.quad_coords))
    assert tuple(c * lam_inv2 for c in x.quad_coords) == y.quad_coords
    assert x.ray[0] == y.ray[0]
    assert not visible_oracle(desc, x, [x, y])
    assert visible_oracle(desc, y, [x, y])


def test_oracle_first_coordinate_zero():
    desc = CPSetDesc(field=F5, d=3, window=Box.cube(1, 3))
    x = CPPoint((QuadInt(F5, 0), QuadInt(F5, 0, 1), QuadInt(F5, 2)))
    x3 = CPPoint(tuple(3 * c for c in x.quad_coords))
    off = CPPoint((QuadInt(F5, 0), QuadInt(F5, 0, 1), QuadInt(F5, 3)))
    front = CPPoint((QuadInt(F5, 1), QuadInt(F5, 0, 1), QuadInt(F5, 2)))
    assert x.ray[0][0] == 1
    pts = [x, x3, off, front]
    assert not visible_oracle(desc, x3, pts)
    assert visible_oracle(desc, x, pts)
    assert visible_oracle(desc, off, pts)
    assert visible_oracle(desc, front, pts)


def test_oracle_origin():
    desc = desc_for(F2)
    origin = CPPoint((QuadInt(F2, 0), QuadInt(F2, 0)))
    x = CPPoint((QuadInt(F2, 1), QuadInt(F2, 0, 1)))
    assert origin.ray == (None, None)
    assert not visible_oracle(desc, origin, [origin, x])
    assert visible_oracle(desc, x, [origin, x])


def test_strict_inclusion_witness_nonempty_hammarhjelm():
    desc = desc_for(F2)
    w = strict_inclusion_witness(desc, D2, 10)
    assert w
    for p in w:
        assert math.gcd(*(c for x in p.quad_coords for c in (x.a, x.b))) == 1
        assert not visible_fast(desc, p)


@pytest.mark.parametrize("fld", [F2, F5])
@pytest.mark.parametrize("window_name", ["square", "octagon"])
def test_strict_inclusion_witness_is_the_per_point_definition(fld,
                                                              window_name):
    """The witnesses are the points with Z-primitive omega-coordinates that
    visible_fast calls invisible, in generate's order."""
    window = square_window(1) if window_name == "square" \
        else octagon_window(1)
    desc = desc_for(fld, window)
    want = [p for p in generate(desc, D2, 10)
            if math.gcd(*(c for x in p.quad_coords for c in (x.a, x.b))) == 1
            and not visible_fast(desc, p)]
    assert want
    assert strict_inclusion_witness(desc, D2, 10) == want


def test_classify_empty_point_set():
    """An averaging set that misses every point still has a (dim, 0) grid."""
    desc, far = desc_for(F2), Box.make([(5, 6), (5, 6)])
    _, grid = field_point_arrays(desc.field, far.scaled(Fraction(1, 2)),
                                 desc.scaled_window())
    assert len(generate(desc, far, Fraction(1, 2))) == 0
    assert grid.columns()[0].shape == (2, 0)
    primitive, inner = classify(desc, grid)
    assert primitive.shape == inner.shape == (0,)
    assert strict_inclusion_witness(desc, far, Fraction(1, 2)) == []


def test_strict_inclusion_witness_needs_hammarhjelm():
    desc = desc_for(field(3))  # Q(sqrt3) fails the unit-box test
    with pytest.raises(NotHammarhjelm):
        strict_inclusion_witness(desc, D2, 4)


def test_strict_inclusion_witness_small_T_empty():
    desc = desc_for(F2)
    assert strict_inclusion_witness(desc, D2, Fraction(1, 4)) == []


def test_strict_inclusion_random_lattices_empty():
    rng = np.random.default_rng(99)
    for _ in range(4):
        g = rng.standard_normal((3, 3))
        g /= abs(np.linalg.det(g)) ** (1 / 3)
        w, examined = strict_inclusion_witness_random(
            g, Box.cube(1, 1), Box.cube(1, 2), T=20.0)
        assert w == []
        assert examined > 100


@pytest.mark.parametrize("T,count", [(3.0, 32), (6.5, 144)])
def test_strict_inclusion_random_matches_brute_force_on_z3(T, count):
    """On Z^3 with the physical plane spanned by e1, e2, the points (a, b, c)
    and (a, b, c') share a physical part, so neither blocks the other.  The
    witnesses are the primitive points with c = +-1 whose (a, b) has a
    shorter multiple in the set: gcd(a, b) > 1."""
    r = int(T)
    brute = Counter((float(a), float(b)) for a in range(-r, r + 1)
                    for b in range(-r, r + 1) for c in (-1, 0, 1)
                    if math.gcd(a, b) > 1 and math.gcd(a, b, c) == 1)
    assert sum(brute.values()) == count
    w, examined = strict_inclusion_witness_random(
        np.eye(3), Box.cube(1, 1), Box.cube(1, 2), T=T)
    assert examined == 3 * (2 * r + 1) ** 2 - 3
    assert Counter(tuple(x.tolist()) for _, x in w) == brute


@pytest.mark.parametrize("window,D", [
    (Box.cube(1, 1), disc_window(1)),
    (Ball.make((0,), 1), Box.cube(1, 2)),
], ids=["disc-D", "ball-window"])
def test_strict_inclusion_random_needs_boxes(window, D):
    """The float search reads the regions as boxes, so it takes boxes only:
    a disc D was once searched as its bounding square."""
    g = np.eye(3)
    with pytest.raises(ValueError, match="needs box regions"):
        strict_inclusion_witness_random(g, window, D, T=20.0)


@pytest.mark.parametrize("d", [2, 3])  # N(lambda) = -1 and +1
def test_unit_power_inverse(d):
    desc = CPSetDesc(field=field(d), d=2, window=square_window(1))
    lam = fundamental_unit(field(d))
    assert desc.unit_power(1) == lam and desc.unit_power(0) == 1
    for k in range(-4, 5):
        assert desc.unit_power(k) * desc.unit_power(-k) == 1
        assert desc.unit_power(k) * lam == desc.unit_power(k + 1)


def test_beta_scaling_subset():
    """The beta = 1/lambda point set is the subset of the beta = 1 set whose
    internal part lies in the shrunk window."""
    base = desc_for(F2)
    shrunk = desc_for(F2, beta_exp=-1)
    big = {p.quad_coords for p in generate(base, D2, 8)}
    small = {p.quad_coords for p in generate(shrunk, D2, 8)}
    assert small < big
    inner = base.scaled_window(extra_exp=-1)
    for xs in big:
        # sigma(x) = (p - q*sqrt(2))/2 for x = (p + q*sqrt(2))/2
        assert (xs in small) == inner.contains_exact(
            [x.p for x in xs], [-x.q for x in xs], 2, 2)


def test_point_dumps():
    """points_to_csv formats the grid's columns as the per-point route
    formats each CPPoint: a, b, float(x) and conj_float, digit for digit,
    also in the half-integer ring of Q(sqrt5)."""
    desc = desc_for(F5, octagon_window(1))
    pts = generate(desc, D2, 5)
    _, grid = field_point_arrays(F5, D2.scaled(5), desc.scaled_window())
    vis = [visible_fast(desc, p) for p in pts]
    csv = points_to_csv(F5, *grid.columns(), vis).splitlines()
    assert csv[0] == "a1,b1,a2,b2,phys1,phys2,int1,int2,visible"
    assert len(csv) == len(pts) + 1 > 50
    for row, p, v in zip(csv[1:], pts, vis):
        xs = p.quad_coords
        want = ([f"{x.a},{x.b}" for x in xs]
                + [f"{float(x):.12g}" for x in xs]
                + [f"{x.conj_float():.12g}" for x in xs] + [str(int(v))])
        assert row == ",".join(want)
