"""Density counting: Moebius/direct equivalence, the visible-count identity,
rate fitting and the random-lattice experiment."""

import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from quasivis import counting, cutproject, kernels, quadfield
from quasivis.counting import (
    CountReport,
    DegenerateFit,
    _norm_gcd,
    moebius_count_primitive,
    predicted_density_hammarhjelm,
    random_lattice_experiment,
    rate_fit,
    visible_count,
)
from quasivis.cutproject import (
    CPSetDesc,
    NotHammarhjelm,
    classify,
    generate,
    visible_fast,
)
from quasivis.lattice import AxisGrid, field_point_arrays
from quasivis.quadfield import (
    QuadInt,
    divisible_by,
    field,
    fundamental_unit,
    gcd_is_one,
    ideal_norms,
    int_array,
    iter_ring_box,
    omega_coords,
)
from quasivis.regions import (
    Ball,
    Box,
    Product,
    UnitScaled,
    disc_window,
    octagon_window,
    square_window,
)

from ideal_oracle import ideal_from_generators, ideal_moebius, principal_ideal

F2, F5 = field(2), field(5)
D2 = Box.cube(1, 2)
SIX_T_GRID = [4, 6, Fraction(33, 4), 10, 12, 14]


def desc_for(fld, beta_exp=0):
    return CPSetDesc(field=fld, d=2, window=square_window(1),
                     beta_exp=beta_exp)


def test_predicted_density_factors():
    # d=2, K=Q(sqrt2): 1 - 1/lambda^2 = 2*sqrt2 - 2
    lam = float(fundamental_unit(F2))
    desc = desc_for(F2)
    val = predicted_density_hammarhjelm(desc)
    factor = 1 - 1 / lam ** 2
    assert factor == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-12)
    from quasivis.quadfield import dedekind_zeta_highprec
    assert val == pytest.approx(
        factor * (4 / 8) / dedekind_zeta_highprec(F2, 2), rel=1e-9)
    # d=2, K=Q(sqrt5): 1/lambda^2 = (3 - sqrt5)/2
    lam5 = float(fundamental_unit(F5))
    assert 1 / lam5 ** 2 == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)


def test_predicted_density_rejects_non_hammarhjelm():
    with pytest.raises(NotHammarhjelm):
        predicted_density_hammarhjelm(
            CPSetDesc(field=field(3), d=2, window=square_window(1)))


def direct_primitive_count(desc, D, T):
    """Points of the set in T*D whose coordinates generate the unit ideal,
    from visible_count's one batch of ideal norms; its two inner-window
    routes must agree."""
    rep, = visible_count(desc, D, [T], predicted=1.0)
    assert rep.identity_ok
    return rep.count_pr


@pytest.mark.parametrize("fld", [F2, F5])
@pytest.mark.parametrize("beta_exp", [0, -1, 2])
@pytest.mark.parametrize("T", [5, 10, 20])
def test_moebius_equals_direct(fld, beta_exp, T):
    desc = desc_for(fld, beta_exp)
    assert moebius_count_primitive(desc, D2, [T]) == \
        [direct_primitive_count(desc, D2, T)]


def largest_norm_gcd(desc, D, T):
    """The largest gcd_i |N(x_i)| over the nonzero points of the set in
    T*D, from QuadInt.norm; 0 for a set with no nonzero point."""
    return max((math.gcd(*(abs(x.norm()) for x in p.quad_coords))
                for p in generate(desc, D, T) if not p.is_origin), default=0)


def record_walk_bounds(monkeypatch):
    """The sigma(g) bound of every g-walk counting starts, in order."""
    bounds = []

    def recorded(fld, x_lo, x_hi, y_lo, y_hi, **kw):
        bounds.append(y_hi)
        return iter_ring_box(fld, x_lo, x_hi, y_lo, y_hi, **kw)

    monkeypatch.setattr(counting, "iter_ring_box", recorded)
    return bounds


@pytest.mark.parametrize("fld", [F2, F5])
@pytest.mark.parametrize("beta_exp", [0, -1])
@pytest.mark.parametrize("window", [square_window(1), disc_window(1)])
@pytest.mark.parametrize("T", [3, Fraction(33, 4)])
def test_norm_cutoff_bounds_every_master_norm(monkeypatch, fld, beta_exp,
                                              window, T):
    """The one-T sum walks g up to the largest G(x) = gcd_i |N(x_i)| of the
    set, which every g with a term has |sigma(g)| <= |N(g)| below."""
    desc = CPSetDesc(field=fld, d=2, window=window, beta_exp=beta_exp)
    bounds = record_walk_bounds(monkeypatch)
    moebius_count_primitive(desc, D2, [T])
    assert bounds == [largest_norm_gcd(desc, D2, T)]
    assert bounds[0] > 0


def ideal_route_count(desc, D, T):
    """The Moebius sum by ideals, the route the integer-array sum replaced:
    the distinct ideals generated by the nonzero points, and per g with
    mu(g) != 0 the multiplicity of those that g's ideal contains.  Its own
    walk is bounded by the largest |N(x_i)| of a nonzero coordinate, which
    a g dividing x_i cannot pass."""
    points = [p for p in generate(desc, D, T) if not p.is_origin]
    ideal_mult = Counter(ideal_from_generators(list(p.quad_coords))
                         for p in points)
    cutoff = max((abs(x.norm()) for p in points for x in p.quad_coords),
                 default=0)
    total = 0
    for g in iter_ring_box(desc.field, 1,
                           fundamental_unit(desc.field),
                           -cutoff, cutoff, x_hi_open=True):
        if abs(g.norm()) > cutoff:
            continue
        pg = principal_ideal(g)
        mu = ideal_moebius(pg)
        if mu:
            total += mu * sum(m for ix, m in ideal_mult.items()
                              if pg.contains_ideal(ix))
    return total


# (dim, window, T): a one- and a three-dimensional cube set, and every
# planar window kind; T = 33/4 puts the averaging box off the integers
IDEAL_ROUTE_SETS = [(1, "cube1", 7), (1, "cube1", 60), (3, "cube3", 2),
                    (3, "cube3", 3)]
IDEAL_ROUTE_SETS += [(2, window, T) for window in ("square", "disc", "octagon")
                     for T in (5, Fraction(33, 4))]


@pytest.mark.parametrize("d", [2, 5, 13])
@pytest.mark.parametrize("dim,window,T", IDEAL_ROUTE_SETS)
@pytest.mark.parametrize("beta_exp", [0, -1])
def test_moebius_matches_ideal_route(d, dim, window, T, beta_exp):
    desc = CPSetDesc(field=field(d), d=dim, window=WINDOWS[window],
                     beta_exp=beta_exp)
    D = Box.cube(1, dim)
    assert moebius_count_primitive(desc, D, [T]) == \
        [ideal_route_count(desc, D, T)]


# T = 1 keeps only the g = 1 term; the others straddle walk bounds
ONE_WALK_GRID = [Fraction(33, 4), 1, 5, 3, Fraction(13, 2)]
OFF_ORIGIN_D = Box.make([(1, 2), (Fraction(1, 2), Fraction(3, 2))])


def one_walk_cases(test):
    """Parametrize a test over d, beta_exp, the window and D."""
    for mark in [
            pytest.mark.parametrize("D", [D2, OFF_ORIGIN_D],
                                    ids=["cube", "off"]),
            pytest.mark.parametrize("window", ["square", "octagon", "disc"]),
            pytest.mark.parametrize("beta_exp", [0, -1]),
            pytest.mark.parametrize("d", [2, 5, 13])]:
        test = mark(test)
    return test


@one_walk_cases
def test_moebius_one_walk_per_group_is_exact(d, beta_exp, window, D):
    """The sums of a whole T grid, one g-walk per group with the bound of
    its largest G, equal the one-T sums and the direct counts."""
    desc = CPSetDesc(field=field(d), d=2, window=WINDOWS[window],
                     beta_exp=beta_exp)
    assert len({largest_norm_gcd(desc, D, T) for T in ONE_WALK_GRID}) > 1
    counts = moebius_count_primitive(desc, D, ONE_WALK_GRID)
    assert counts == [moebius_count_primitive(desc, D, [T])[0]
                      for T in ONE_WALK_GRID]
    assert counts == [rep.count_pr for rep in visible_count(
        desc, D, ONE_WALK_GRID, predicted=1.0)]
    # the first two rows differ, so a mixed-up row order would show
    assert counts[0] != counts[1]


@one_walk_cases
def test_inner_moebius_sum_equals_the_beta_lambda_set_count(d, beta_exp,
                                                            window, D):
    """The inner counts the Moebius check accepts on the outer grid equal
    the Moebius counts of the beta/lambda set's own enumeration."""
    desc = CPSetDesc(field=field(d), d=2, window=WINDOWS[window],
                     beta_exp=beta_exp)
    reps = visible_count(desc, D, ONE_WALK_GRID, method="moebius",
                         predicted=1.0)
    assert all(rep.identity_ok for rep in reps)
    assert [rep.count_pr_inner for rep in reps] == moebius_count_primitive(
        replace(desc, beta_exp=beta_exp - 1), D, ONE_WALK_GRID)


def mislabel_one_inner_column(monkeypatch, d):
    """Make counting's classify mark inner one primitive column that is
    not inner, in 5*D but not in 3*D.  Returns the list each call appends
    the marked column's (P, Q) to."""
    marked = []

    def mislabelled(desc, grid):
        primitive, inner = classify(desc, grid)
        P, Q = grid.columns()
        in_3D, in_5D = (D2.scaled(T).contains_exact(P, Q, 2, d)
                        for T in (3, 5))
        j = np.flatnonzero(primitive & ~inner & ~in_3D & in_5D)[0]
        marked.append((P[:, j], Q[:, j]))
        inner = inner.copy()
        inner[j] = True
        return primitive, inner

    monkeypatch.setattr(counting, "classify", mislabelled)
    return marked


def held_by(column, Ts, d):
    """Per T of Ts, whether T*D holds the column (P, Q)."""
    P, Q = column
    return [bool(D2.scaled(T).contains_exact(P[:, None], Q[:, None], 2,
                                             d)[0]) for T in Ts]


@pytest.mark.parametrize("d", [2, 5])
def test_inner_moebius_sum_catches_a_mislabelled_column(monkeypatch, d):
    """classify marking one visible column inner is caught by the Moebius
    check exactly at the Ts whose T*D holds it: the disc window has no
    fast route, so the direct count misses it, and the check's inner
    window test does not come from classify's inner mask."""
    desc = CPSetDesc(field=field(d), d=2, window=disc_window(1))
    Ts = [5, 3, Fraction(33, 4)]
    marked = mislabel_one_inner_column(monkeypatch, d)
    assert all(rep.identity_ok
               for rep in visible_count(desc, D2, Ts, predicted=1.0))
    reps = visible_count(desc, D2, Ts, method="moebius", predicted=1.0)
    holds = held_by(marked[-1], Ts, d)
    assert holds == [True, False, True]
    assert [rep.identity_ok for rep in reps] == [not h for h in holds]


@pytest.mark.parametrize("d", [2, 5])
def test_product_window_fast_route_catches_a_mislabelled_column(monkeypatch,
                                                                d):
    """A product of two 1-D boxes is the square window, split per axis by
    regions.axis_factors: its reports equal the square window's under both
    methods, and its direct count runs the fast route, so classify marking
    one primitive column inner is caught exactly at the Ts whose T*D holds
    it."""
    side = Box.make([(-1, 1)])
    desc = CPSetDesc(field=field(d), d=2, window=Product(side, side))
    Ts = [3, 5]
    for method in ("direct", "moebius"):
        assert visible_count(desc, D2, Ts, method=method, predicted=1.0) == \
            visible_count(replace(desc, window=square_window(1)), D2, Ts,
                          method=method, predicted=1.0)
    marked = mislabel_one_inner_column(monkeypatch, d)
    reps = visible_count(desc, D2, Ts, predicted=1.0)
    holds = held_by(marked[-1], Ts, d)
    assert holds == [False, True]
    assert [rep.identity_ok for rep in reps] == [not h for h in holds]


# at beta = 1 the d = 5 set has no nonzero non-primitive point in 5*D; at
# beta = lambda it has (2*lambda, 0), with |sigma(2*lambda)| = 2/lambda
# outside the inner window W
@pytest.mark.parametrize("d,beta_exp", [(2, 0), (5, 1)])
def test_moebius_check_catches_two_swapped_primitive_labels(monkeypatch, d,
                                                            beta_exp):
    """classify swapping the primitive labels of a primitive and a
    non-primitive column, both in 5*D but not in 3*D and both outside the
    inner window, leaves every count as it is.  The Moebius weights catch
    it at the Ts whose T*D holds the two; the direct count, with no fast
    route for the disc window, does not."""
    desc = CPSetDesc(field=field(d), d=2, window=disc_window(1),
                     beta_exp=beta_exp)
    Ts = [5, 3, Fraction(33, 4)]
    want = visible_count(desc, D2, Ts, method="moebius", predicted=1.0)
    assert all(rep.identity_ok for rep in want)

    def swapped(desc, grid):
        primitive, inner = classify(desc, grid)
        P, Q = grid.columns()
        in_3D, in_5D = (D2.scaled(T).contains_exact(P, Q, 2, d)
                        for T in (3, 5))
        outside = ~grid.mask(desc.inner_window, d, conjugate=True)
        pair = outside & ~in_3D & in_5D  # not in 3*D: not the origin
        j, k = (np.flatnonzero(pair & label)[0]
                for label in (primitive, ~primitive))
        primitive = primitive.copy()
        primitive[[j, k]] = primitive[[k, j]]
        return primitive, inner

    monkeypatch.setattr(counting, "classify", swapped)
    assert visible_count(desc, D2, Ts, predicted=1.0) == want
    reps = visible_count(desc, D2, Ts, method="moebius", predicted=1.0)
    assert [replace(rep, identity_ok=True) for rep in reps] == want
    assert [rep.identity_ok for rep in reps] == [False, True, False]


@pytest.mark.parametrize("d", [2, 5])
def test_moebius_check_catches_a_dropped_primitive_label(monkeypatch, d):
    """classify clearing the primitive label of one column in 5*D but not
    in 3*D, outside the inner window, is caught by the Moebius check
    exactly at the Ts whose T*D holds it: its weight 1 no longer equals
    its label, while its inner label still agrees with the weight, so
    only the weight-equals-label half of the check sees it."""
    desc = CPSetDesc(field=field(d), d=2, window=disc_window(1))
    Ts = [5, 3, Fraction(33, 4)]
    marked = []

    def dropped(desc, grid):
        primitive, inner = classify(desc, grid)
        P, Q = grid.columns()
        in_3D, in_5D = (D2.scaled(T).contains_exact(P, Q, 2, d)
                        for T in (3, 5))
        outside = ~grid.mask(desc.inner_window, d, conjugate=True)
        j = np.flatnonzero(primitive & ~inner & outside & ~in_3D & in_5D)[0]
        marked.append((P[:, j], Q[:, j]))
        primitive = primitive.copy()
        primitive[j] = False
        return primitive, inner

    monkeypatch.setattr(counting, "classify", dropped)
    assert all(rep.identity_ok
               for rep in visible_count(desc, D2, Ts, predicted=1.0))
    reps = visible_count(desc, D2, Ts, method="moebius", predicted=1.0)
    holds = held_by(marked[-1], Ts, d)
    assert holds == [True, False, True]
    assert [rep.identity_ok for rep in reps] == [not h for h in holds]


@pytest.mark.parametrize("D,walks", [(D2, 1), (OFF_ORIGIN_D, 6),
                                     (octagon_window(1), 1)],
                         ids=["cube", "off", "octagon"])
def test_sweep_takes_one_norm_cutoff_per_group(monkeypatch, D, walks):
    """The six-T sweep with the Moebius check walks g once per group: once
    for a D about the origin, once at every T off it.  No walk bound passes
    floor(R_T*R_W) + 1, the bound on |N(x_i)| for |x_i| <= R_T and
    |sigma(x_i)| <= R_W = 1 of the group's largest T."""
    bounds = record_walk_bounds(monkeypatch)
    reps = visible_count(desc_for(F2), D, SIX_T_GRID, method="moebius",
                         predicted=1.0)
    assert all(rep.identity_ok for rep in reps)
    assert len(bounds) == walks
    r = max(max(abs(lo), abs(hi)) for lo, hi in D.bbox())
    group_T = [max(SIX_T_GRID)] if walks == 1 else SIX_T_GRID
    assert all(b <= math.floor(T * r) + 1 for b, T in zip(bounds, group_T))


def test_visible_count_moebius_enumerates_outer_set_once(monkeypatch):
    calls = []

    def counting_arrays(fld, phys, internal):
        calls.append(internal)
        return field_point_arrays(fld, phys, internal)

    monkeypatch.setattr(counting, "field_point_arrays", counting_arrays)
    desc = desc_for(F5)
    reps = visible_count(desc, D2, SIX_T_GRID, method="moebius",
                         predicted=1.0)
    assert all(rep.identity_ok for rep in reps)
    # for the whole grid: one outer set, shared with the direct count and
    # the Moebius weights
    assert calls == [desc.scaled_window()]


def record_membership(monkeypatch, classes):
    """Per region class, the (rows, columns) of every contains_exact call;
    and the longest axis candidate list of counting's enumerations."""
    calls = {cls.__name__: [] for cls in classes}
    axis_lengths = []
    for cls in classes:
        def recorded(self, P, Q, den, d, _inner=cls.contains_exact,
                     _log=calls[cls.__name__]):
            _log.append((len(P), max(np.size(row) for row in P)))
            return _inner(self, P, Q, den, d)
        monkeypatch.setattr(cls, "contains_exact", recorded)

    def recorded_arrays(fld, phys, internal):
        axes, grid = field_point_arrays(fld, phys, internal)
        axis_lengths.append(max(map(len, axes)))
        return axes, grid

    monkeypatch.setattr(counting, "field_point_arrays", recorded_arrays)
    return calls, axis_lengths


def test_box_sweep_tests_axis_candidates_only(monkeypatch):
    """On the shipped box x box sweep (d = 2, square window, cube D) at
    T <= 20, with the Moebius checks, every box and unit-scaled box test
    sees one axis's candidates, never the columns of the hull."""
    calls, axis_lengths = record_membership(monkeypatch, [Box, UnitScaled])
    T_grid = [5, 8, Fraction(25, 2), 15, 18, 20]
    reps = visible_count(desc_for(F2), D2, T_grid, method="moebius",
                         predicted=1.0)
    assert all(rep.identity_ok for rep in reps)
    longest = max(axis_lengths)
    assert calls["Box"] and calls["UnitScaled"]
    for rows, size in calls["Box"] + calls["UnitScaled"]:
        assert rows == 1 and size <= longest
    # the hull has far more columns than any axis has candidates
    assert max(rep.count_all for rep in reps) > 10 * longest


@pytest.mark.parametrize("d", [2, 5])
def test_moebius_walk_reads_no_columns(monkeypatch, d):
    """The Moebius weights of the square-window set take the norms and the
    divisibility tests once per axis candidate and gather them: the walk
    never asks the grid for its columns, and its counts equal the direct
    ones."""
    desc = desc_for(field(d))
    Ts = [5, 12]
    want = [rep.count_pr for rep in visible_count(desc, D2, Ts,
                                                  predicted=1.0)]

    def columns(self):
        raise AssertionError("columns read")

    monkeypatch.setattr(AxisGrid, "columns", columns)
    assert moebius_count_primitive(desc, D2, Ts) == want


def test_disc_window_falls_back_to_columns(monkeypatch):
    """The disc golden: the window (a Ball) is tested on the columns, the
    box averaging set still per axis, and the reports equal the golden."""
    golden = Path(__file__).parent / "golden" / "density_d2_disc"
    cfg = json.loads((golden / "config.json").read_text())
    calls, axis_lengths = record_membership(monkeypatch, [Box, Ball])
    desc = CPSetDesc(field=field(cfg["d"]), d=cfg["dim"],
                     window=disc_window(cfg["window"]["r2"]))
    want = json.loads((golden / "density.json").read_text())
    reps = visible_count(desc, Box.cube(1, cfg["dim"]), cfg["T_grid"],
                         method="moebius",
                         predicted=want["predicted_density"])
    assert [rep.to_json() for rep in reps] == want["reports"]
    longest = max(axis_lengths)
    assert calls["Ball"] and all(rows == 2 for rows, _ in calls["Ball"])
    assert max(size for _, size in calls["Ball"]) > longest
    assert all(rows == 1 and size <= longest
               for rows, size in calls["Box"])


def identity_grid(P, Q):
    """The AxisGrid whose column j is column j of P, Q: axis i's candidates
    are row i, and every column takes candidate j of each axis."""
    return AxisGrid(list(P), list(Q),
                    np.tile(np.arange(P.shape[1]), (len(P), 1)))


def _rows(fld, rng, g, size, scale):
    """Rows of two coordinates of about the given scale: multiples of g,
    of its conjugate, of g in one coordinate only, and random elements."""
    big = scale // abs(g.norm())

    def elt(scale):
        return QuadInt(fld, rng.randint(-scale, scale),
                       rng.randint(-scale, scale))

    rows = []
    for _ in range(size):
        rows.append((g * elt(big), g * elt(big)))
        rows.append((g.conj() * elt(big), g.conj() * elt(big)))
        rows.append((g * elt(big), elt(scale)))
        rows.append((elt(scale), elt(scale)))
    rows.append((g * elt(big), QuadInt(fld, 0)))
    return rows


@pytest.mark.parametrize("d,g", [
    (2, (3, 1)),      # 3 + sqrt2, norm 7: a split prime
    (2, (0, 1)),      # sqrt2, the ramified prime above 2
    (2, (3, 0)),      # 3, inert
    (5, (2, 1)),      # 2 + omega, norm 5 = 5 ramified
    (5, (3, 1)),      # 3 + omega, norm 11: split, odd b
    (5, (2, 0)),      # 2, inert
    (13, (2, 1)),     # 2 + omega, norm 3: split
    (13, (6, 3)),     # 3*(2 + omega), norm 27
])
# at 10**14 the squares of the norms leave int64; at 10**18 the products
# x*sigma(g) of the divisibility test do too
@pytest.mark.parametrize("scale", [10 ** 14, 10 ** 18])
def test_norm_gcd_and_divisibility_past_int64(d, g, scale):
    fld = field(d)
    g = QuadInt(fld, *g)
    rows = _rows(fld, random.Random(d * 1000 + g.a * 10 + g.b), g, 6, scale)
    # one column per row of coordinates
    P = int_array([[row[i].p for row in rows] for i in range(2)])
    Q = int_array([[row[i].q for row in rows] for i in range(2)])
    G = _norm_gcd(d, identity_grid(P, Q))
    assert G.dtype == object
    assert list(G) == [math.gcd(*(abs(x.norm()) for x in row))
                       for row in rows]
    # the HNF ideal (g) of the oracle decides divisibility independently
    ideal = principal_ideal(g)
    want = [all(ideal.contains(x) for x in row) for row in rows]
    got = divisible_by(g, *omega_coords(fld, P, Q))
    assert list(got) == want
    assert [divisible_by(g, [x.a for x in row], [x.b for x in row])
            for row in rows] == want
    assert any(want) and not all(want)
    # some multiples of the conjugate are not multiples of g itself, so
    # testing x*g in place of x*sigma(g) would show
    s = g.conj()
    assert divisible_by(g, [s.a], [s.b]) or not all(want[1::4])


def test_norm_gcd_of_zero_row_and_zero_coordinate():
    fld = F2
    rows = [(QuadInt(fld, 0), QuadInt(fld, 0)),
            (QuadInt(fld, 0), QuadInt(fld, 3, 1)),
            (QuadInt(fld, 2), QuadInt(fld, 0, 2))]
    P = int_array([[row[i].p for row in rows] for i in range(2)])
    Q = int_array([[row[i].q for row in rows] for i in range(2)])
    assert list(_norm_gcd(2, identity_grid(P, Q))) == [0, 7, 4]


@pytest.mark.parametrize("d", [2, 5])
def test_norm_gcd_gathers_repeated_axis_candidates(d):
    """On an enumerated grid, whose columns share axis candidates, the
    per-candidate norms gathered through the index grid give each column
    the gcd of its coordinates' QuadInt norms."""
    axes, grid = field_point_arrays(field(d), Box.cube(6, 2),
                                    square_window(1))
    assert grid.idx.shape[1] > sum(map(len, axes))
    want = [math.gcd(*(abs(a[k].norm()) for a, k in zip(axes, col)))
            for col in grid.idx.T.tolist()]
    assert list(_norm_gcd(d, grid)) == want
    assert 0 in want and len(set(want)) > 2


def test_moebius_tiny_T_only_unit_term():
    desc = desc_for(F2)
    # at T=1 the cutoff excludes every non-unit g
    assert moebius_count_primitive(desc, D2, [1]) == \
        [direct_primitive_count(desc, D2, 1)]


def test_visible_count_identity_and_sandwich():
    desc = desc_for(F2)
    pred = predicted_density_hammarhjelm(desc)
    prev = 0
    for rep in visible_count(desc, D2, [5, 10, 20, 30], predicted=pred):
        assert rep.identity_ok
        assert rep.count_vis == rep.count_pr - rep.count_pr_inner
        assert 0 <= rep.count_vis <= rep.count_pr <= rep.count_all
        assert rep.count_vis >= prev  # monotone in T
        prev = rep.count_vis
        assert 0 < rep.count_vis / rep.vol_TD <= rep.count_all / rep.vol_TD


def test_visible_count_zero_below_first_point():
    rep, = visible_count(desc_for(F2), D2, [Fraction(1, 4)], predicted=1.0)
    assert rep.count_vis == 0 and rep.count_pr == 0
    assert rep.count_all == 1  # the origin


def test_visible_count_one_gcd_test_per_point(monkeypatch):
    calls, arrays = [], []

    def counting_ideal_norms(fld, A, B):
        calls.append(len(A[0]))
        return ideal_norms(fld, A, B)

    def counting_arrays(fld, phys, internal):
        arrays.append(phys)
        return field_point_arrays(fld, phys, internal)

    monkeypatch.setattr(cutproject, "ideal_norms", counting_ideal_norms)
    monkeypatch.setattr(counting, "field_point_arrays", counting_arrays)
    desc = desc_for(F2)
    reps = visible_count(desc, D2, SIX_T_GRID, predicted=1.0)
    assert all(rep.identity_ok for rep in reps)
    # one enumeration of the hull T_max*D, and one call over every point of
    # it, origin too
    assert arrays == [D2.scaled(max(SIX_T_GRID))]
    assert calls == [max(rep.count_all for rep in reps)]


# (count_all, count_pr, count_pr_inner, count_vis) as computed by the
# per-point Fraction classification that the batch integer code replaced.
PINNED_COUNTS = [
    (2, "square", 0, "5", (81, 56, 8, 48)),
    (2, "square", 0, "12", (361, 264, 56, 208)),
    (2, "square", 0, "1313/64", (961, 696, 120, 576)),
    (2, "square", -1, "31", (361, 264, 56, 208)),
    (2, "octagon", 0, "5", (57, 36, 4, 32)),
    (2, "octagon", 0, "12", (301, 212, 36, 176)),
    (2, "octagon", 0, "1313/64", (781, 556, 100, 456)),
    (2, "octagon", -1, "31", (301, 212, 36, 176)),
    (2, "disc", 0, "5", (41, 28, 4, 24)),
    (2, "disc", 0, "12", (253, 172, 28, 144)),
    (2, "disc", 0, "1313/64", (685, 476, 76, 400)),
    (2, "disc", -1, "31", (253, 172, 28, 144)),
    (5, "square", 0, "5", (81, 80, 48, 32)),
    (5, "square", 0, "12", (441, 392, 208, 184)),
    (5, "square", 0, "1313/64", (1369, 1200, 472, 728)),
    (5, "square", -1, "31", (1225, 1072, 392, 680)),
    (5, "octagon", 0, "5", (69, 68, 36, 32)),
    (5, "octagon", 0, "12", (373, 332, 164, 168)),
    (5, "octagon", 0, "1313/64", (1081, 956, 372, 584)),
    (5, "octagon", -1, "31", (969, 852, 332, 520)),
    (5, "disc", 0, "5", (53, 52, 28, 24)),
    (5, "disc", 0, "12", (333, 300, 140, 160)),
    (5, "disc", 0, "1313/64", (1001, 884, 332, 552)),
    (5, "disc", -1, "31", (889, 780, 300, 480)),
]
WINDOWS = {"square": square_window(1), "octagon": octagon_window(1),
           "disc": disc_window(1), "cube1": Box.cube(1, 1),
           "cube3": Box.cube(1, 3)}


@pytest.mark.parametrize("d,window,beta_exp,T,counts", PINNED_COUNTS)
def test_visible_count_pinned(d, window, beta_exp, T, counts):
    desc = CPSetDesc(field=field(d), d=2, window=WINDOWS[window],
                     beta_exp=beta_exp)
    rep, = visible_count(desc, D2, [Fraction(T)], predicted=1.0)
    assert rep.identity_ok
    assert (rep.count_all, rep.count_pr, rep.count_pr_inner,
            rep.count_vis) == counts


# (d, window, beta_exp, T): both fields' omega forms, every window kind,
# beta = 1 and 1/lambda, a one- and a three-dimensional cube set
BATCH_SETS = [(d, window, beta_exp, 12) for d in (2, 5)
              for window in ("square", "octagon", "disc")
              for beta_exp in (0, -1)]
BATCH_SETS += [(2, "cube1", 0, 300), (5, "cube3", 0, 3)]


@pytest.mark.parametrize("d,window,beta_exp,T", BATCH_SETS)
def test_visible_count_matches_per_point_decisions(d, window, beta_exp, T):
    W = WINDOWS[window]
    desc = CPSetDesc(field=field(d), d=W.dim, window=W, beta_exp=beta_exp)
    D = Box.cube(1, W.dim)
    pts = generate(desc, D, T)
    rep, = visible_count(desc, D, [T], predicted=1.0)
    assert rep.identity_ok
    assert rep.count_all == len(pts)
    primitive = [not p.is_origin and gcd_is_one(list(p.quad_coords))
                 for p in pts]
    visible = [visible_fast(desc, p) for p in pts]
    assert rep.count_pr == sum(primitive)
    assert rep.count_vis == sum(visible)
    # the batch masks, point by point, on the enumeration's grid, whose
    # columns are generate's points in order
    _, grid = field_point_arrays(desc.field, D.scaled(Fraction(T)),
                                 desc.scaled_window())
    P, Q = grid.columns()
    assert P.T.tolist() == [[x.p for x in p.quad_coords] for p in pts]
    assert Q.T.tolist() == [[x.q for x in p.quad_coords] for p in pts]
    got_primitive, inner = classify(desc, grid)
    assert got_primitive.tolist() == primitive
    assert (got_primitive & ~inner).tolist() == visible


@pytest.mark.parametrize("d,window,beta_exp,T", BATCH_SETS)
def test_moebius_weights_equal_classify(d, window, beta_exp, T):
    """The Moebius check in dimensions 1, 2 and 3: each column's weight is
    classify's primitive label, on the grid's int64 arrays and on the same
    arrays as Python ints, as past the int64 guard."""
    W = WINDOWS[window]
    desc = CPSetDesc(field=field(d), d=W.dim, window=W, beta_exp=beta_exp)
    D = Box.cube(1, W.dim)
    rep, = visible_count(desc, D, [T], method="moebius", predicted=1.0)
    assert rep.identity_ok
    _, grid = field_point_arrays(desc.field, D.scaled(Fraction(T)),
                                 desc.scaled_window())
    primitive, _ = classify(desc, grid)
    as_object = grid._replace(p=[a.astype(object) for a in grid.p],
                              q=[a.astype(object) for a in grid.q])
    for g in (grid, as_object):
        assert counting._moebius_weights(desc.field, g).tolist() == \
            primitive.astype(int).tolist()
    assert moebius_count_primitive(desc, D, [T]) == [rep.count_pr]


# unsorted, with a repeated T and one off the integers
SWEEP_GRID = [12, 5, Fraction(33, 4), 12, 3]


def assert_sweep_is_single_calls(desc, D, method):
    sweep = visible_count(desc, D, SWEEP_GRID, method, predicted=0.5)
    assert [rep.T for rep in sweep] == [float(T) for T in SWEEP_GRID]
    assert sweep == [visible_count(desc, D, [T], method, predicted=0.5)[0]
                     for T in SWEEP_GRID]
    assert all(rep.identity_ok for rep in sweep)


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("window", ["square", "octagon", "disc"])
@pytest.mark.parametrize("beta_exp", [0, -1])
@pytest.mark.parametrize("method", ["direct", "moebius"])
def test_sweep_equals_single_T_calls(d, window, beta_exp, method):
    desc = CPSetDesc(field=field(d), d=2, window=WINDOWS[window],
                     beta_exp=beta_exp)
    assert_sweep_is_single_calls(desc, D2, method)


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("method", ["direct", "moebius"])
def test_sweep_off_the_origin_enumerates_per_T(monkeypatch, d, method):
    """An averaging box whose bounding box misses the origin serves each T
    from its own enumeration: the hull of all of them would be far larger
    than the sets it serves."""
    D = Box.make([(1, 2), (Fraction(1, 2), Fraction(3, 2))])
    desc = CPSetDesc(field=field(d), d=2, window=square_window(1))
    assert_sweep_is_single_calls(desc, D, method)
    arrays = []

    def counting_arrays(fld, phys, internal):
        arrays.append(phys)
        return field_point_arrays(fld, phys, internal)

    monkeypatch.setattr(counting, "field_point_arrays", counting_arrays)
    visible_count(desc, D, SWEEP_GRID, method, predicted=0.5)
    # one enumeration per T with either method: the Moebius check reads
    # the same grids
    assert arrays == [D.scaled(T) for T in SWEEP_GRID]


# bbox(D) rounds the radius sqrt(2) up to 2, so it holds the origin and the
# Ts form one group, though the ball misses the origin
OFF_CENTRE_BALL = Ball.make((Fraction(3, 2), 0), 2)


@pytest.mark.parametrize("method", ["direct", "moebius"])
def test_sweep_hull_holds_a_small_T_of_an_off_centre_ball(method):
    """The hull of a group holds every T*D of it: 40*bbox(D) starts at
    x = 3 and misses the whole ball at T = 1, which lies in x < 3."""
    desc = desc_for(F2)
    Ts = [1, 40]
    reps = visible_count(desc, OFF_CENTRE_BALL, Ts, method, predicted=1.0)
    assert reps == [visible_count(desc, OFF_CENTRE_BALL, [T], method,
                                  predicted=1.0)[0] for T in Ts]
    assert reps[0].count_all > 0
    assert all(rep.identity_ok for rep in reps)
    assert moebius_count_primitive(desc, OFF_CENTRE_BALL, Ts) == \
        [rep.count_pr for rep in reps]


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("window", ["square", "octagon"])
def test_counts_independent_of_float_guard(monkeypatch, d, window):
    """The exact path's reports, Moebius checks included, are the same when
    every batch operation falls back to Python ints (an int64 guard of 0)
    and when the float kernel's boundary tolerance is far off."""
    desc = CPSetDesc(field=field(d), d=2, window=WINDOWS[window])
    want = visible_count(desc, D2, [12, 30], "moebius", predicted=1.0)
    monkeypatch.setattr(quadfield, "_INT64_LIMIT", 0)
    monkeypatch.setattr(kernels, "TOL", 1e-3)
    assert visible_count(desc, D2, [12, 30], "moebius",
                         predicted=1.0) == want


def make_report(vol, err):
    return CountReport(T=vol ** 0.5, count_vis=0, count_pr=0, count_all=0,
                       vol_TD=vol, M_T=0.0, predicted=1.0, rel_error=err)


def test_rate_fit_synthetic_half_slope():
    reports = [make_report(v, v ** -0.5) for v in
               (10, 30, 100, 300, 1000, 3000)]
    fit = rate_fit(reports)
    assert fit.slope == pytest.approx(-0.5, abs=0.05)


def test_rate_fit_constant_errors():
    reports = [make_report(v, 0.1) for v in (10, 30, 100, 300, 1000, 3000)]
    assert abs(rate_fit(reports).slope) < 1e-9


def test_rate_fit_degenerate():
    with pytest.raises(DegenerateFit):
        rate_fit([make_report(10, 0.1)] * 3)
    with pytest.raises(DegenerateFit):
        rate_fit([make_report(v, 0.0) for v in
                  (10, 30, 100, 300, 1000, 3000)])


def test_random_experiment_seeded_determinism():
    kw = dict(n=3, d=2, window=Box.cube(1, 1), omega=Box.cube(1, 2),
              T_list=[15], samples=4, seed=31)
    assert random_lattice_experiment(**kw) == random_lattice_experiment(**kw)


def test_random_experiment_scale_covariance():
    """Jointly scaling window and averaging set leaves the estimate
    invariant up to the identical lattice points being selected."""
    a = random_lattice_experiment(n=3, d=2, window=Box.cube(1, 1),
                                  omega=Box.cube(1, 2), T_list=[30],
                                  samples=4, seed=8)
    b = random_lattice_experiment(n=3, d=2, window=Box.cube(1, 1),
                                  omega=Box.cube(2, 2), T_list=[15],
                                  samples=4, seed=8)
    assert a["per_T"][0]["mean_density"] == \
        pytest.approx(b["per_T"][0]["mean_density"], rel=1e-12)


def test_random_experiment_matches_zeta3():
    res = random_lattice_experiment(n=3, d=2, window=Box.cube(1, 1),
                                    omega=Box.cube(1, 2), T_list=[60],
                                    samples=8, seed=2)
    assert res["per_T"][0]["mean_density"] == \
        pytest.approx(1 / float(mpmath.zeta(3)), rel=0.03)
    assert res["total_boundary_ambiguous"] == 0
