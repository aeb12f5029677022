"""Density counting: Moebius/direct equivalence, the visible-count identity,
rate fitting and the random-lattice experiment."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from quasivis import counting
from quasivis.counting import (
    CountReport,
    DegenerateFit,
    _norm_cutoff,
    _norm_gcd,
    moebius_count_primitive,
    predicted_density_hammarhjelm,
    random_lattice_experiment,
    rate_fit,
    riemann_zeta,
    visible_count,
)
from quasivis.cutproject import (
    CPSetDesc,
    NotHammarhjelm,
    generate,
    visible_fast,
)
from quasivis.lattice import field_point_arrays
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
from quasivis.regions import Box, disc_window, octagon_window, square_window

from ideal_oracle import ideal_from_generators, ideal_moebius, principal_ideal

F2, F5 = field(2), field(5)
D2 = Box.cube(1, 2)


def desc_for(fld, beta_exp=0):
    return CPSetDesc(field=fld, d=2, window=square_window(1),
                     beta_exp=beta_exp)


def test_riemann_zeta_reference_values():
    assert riemann_zeta(2) == pytest.approx(math.pi ** 2 / 6, abs=1e-9)
    assert riemann_zeta(3) == pytest.approx(1.2020569031595943, abs=1e-9)
    assert riemann_zeta(4) == pytest.approx(math.pi ** 4 / 90, abs=1e-9)


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
    rep = visible_count(desc, D, T, predicted=1.0)
    assert rep.identity_ok
    return rep.count_pr


@pytest.mark.parametrize("fld", [F2, F5])
@pytest.mark.parametrize("beta_exp", [0, -1, 2])
@pytest.mark.parametrize("T", [5, 10, 20])
def test_moebius_equals_direct(fld, beta_exp, T):
    desc = desc_for(fld, beta_exp)
    assert moebius_count_primitive(desc, D2, T) == \
        direct_primitive_count(desc, D2, T)


@pytest.mark.parametrize("fld", [F2, F5])
@pytest.mark.parametrize("beta_exp", [0, -1])
@pytest.mark.parametrize("window", [square_window(1), disc_window(1)])
@pytest.mark.parametrize("T", [3, Fraction(33, 4)])
def test_norm_cutoff_bounds_every_master_norm(fld, beta_exp, window, T):
    desc = CPSetDesc(field=fld, d=2, window=window, beta_exp=beta_exp)
    cutoff = _norm_cutoff(desc, D2, T)
    norms = [abs(x.norm()) for p in generate(desc, D2, T)
             for x in p.quad_coords if x]
    assert norms and max(norms) <= cutoff


def ideal_route_count(desc, D, T):
    """The Moebius sum by ideals, the route the integer-array sum replaced:
    the distinct ideals generated by the nonzero points, and per g with
    mu(g) != 0 the multiplicity of those that g's ideal contains."""
    ideal_mult = Counter(ideal_from_generators(list(p.quad_coords))
                         for p in generate(desc, D, T) if not p.is_origin)
    cutoff = _norm_cutoff(desc, D, T)
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
    assert moebius_count_primitive(desc, D, T) == \
        ideal_route_count(desc, D, T)


@pytest.mark.parametrize("fld", [F2, F5])
@pytest.mark.parametrize("window", ["square", "octagon"])
def test_moebius_reused_outer_set_equals_fresh_enumeration(fld, window):
    desc = CPSetDesc(field=fld, d=2, window=WINDOWS[window])
    T = 15
    _, P, Q, keep = field_point_arrays(desc.field, D2.scaled(T),
                                       desc.scaled_window())
    fresh = moebius_count_primitive(desc, D2, T)
    assert moebius_count_primitive(desc, D2, T,
                                   points=(P[keep], Q[keep])) == fresh
    # the same sum on Python ints, as past the int64 guard
    assert moebius_count_primitive(
        desc, D2, T, points=(P[keep].astype(object),
                             Q[keep].astype(object))) == fresh
    assert fresh == visible_count(desc, D2, T, predicted=1.0).count_pr


def test_visible_count_moebius_enumerates_outer_set_once(monkeypatch):
    calls = []

    def counting_arrays(fld, phys, internal):
        calls.append(internal)
        return field_point_arrays(fld, phys, internal)

    monkeypatch.setattr(counting, "field_point_arrays", counting_arrays)
    desc = desc_for(F5)
    rep = visible_count(desc, D2, 12, method="moebius", predicted=1.0)
    assert rep.identity_ok
    # one outer set, shared with the direct count; one beta-1 inner set
    assert calls == [desc.scaled_window(), desc.scaled_window(extra_exp=-1)]


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
    P = int_array([[x.p for x in row] for row in rows])
    Q = int_array([[x.q for x in row] for row in rows])
    G = _norm_gcd(d, P, Q)
    assert G.dtype == object
    assert list(G) == [math.gcd(*(abs(x.norm()) for x in row))
                       for row in rows]
    # the HNF ideal (g) of the oracle decides divisibility independently
    ideal = principal_ideal(g)
    want = [all(ideal.contains(x) for x in row) for row in rows]
    got = divisible_by(g, *omega_coords(fld, P.T, Q.T))
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
    P = int_array([[x.p for x in row] for row in rows])
    Q = int_array([[x.q for x in row] for row in rows])
    assert list(_norm_gcd(2, P, Q)) == [0, 7, 4]


def test_moebius_tiny_T_only_unit_term():
    desc = desc_for(F2)
    # at T=1 the cutoff excludes every non-unit g
    assert moebius_count_primitive(desc, D2, 1) == \
        direct_primitive_count(desc, D2, 1)


def test_visible_count_identity_and_sandwich():
    desc = desc_for(F2)
    pred = predicted_density_hammarhjelm(desc)
    prev = 0
    for T in (5, 10, 20, 30):
        rep = visible_count(desc, D2, T, predicted=pred)
        assert rep.identity_ok
        assert rep.count_vis == rep.count_pr - rep.count_pr_inner
        assert 0 <= rep.count_vis <= rep.count_pr <= rep.count_all
        assert rep.count_vis >= prev  # monotone in T
        prev = rep.count_vis
        assert 0 < rep.count_vis / rep.vol_TD <= rep.count_all / rep.vol_TD


def test_visible_count_zero_below_first_point():
    rep = visible_count(desc_for(F2), D2, Fraction(1, 4))
    assert rep.count_vis == 0 and rep.count_pr == 0
    assert rep.count_all == 1  # the origin


def test_visible_count_one_gcd_test_per_point(monkeypatch):
    import quasivis.counting as counting
    calls = []

    def counting_ideal_norms(fld, A, B):
        calls.append(len(A[0]))
        return ideal_norms(fld, A, B)

    monkeypatch.setattr(counting, "ideal_norms", counting_ideal_norms)
    desc = desc_for(F2)
    rep = visible_count(desc, D2, 12)
    assert rep.identity_ok
    assert calls == [rep.count_all]  # one call over every point, origin too


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
    rep = visible_count(desc, D2, Fraction(T), predicted=1.0)
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
    rep = visible_count(desc, D, T, predicted=1.0)
    assert rep.identity_ok
    assert rep.count_all == len(pts)
    assert rep.count_pr == sum(1 for p in pts if not p.is_origin
                               and gcd_is_one(list(p.quad_coords)))
    assert rep.count_vis == sum(visible_fast(desc, p) for p in pts)


def test_counts_independent_of_float_guard(monkeypatch):
    """Exact-path counts must not depend on any tolerance knob."""
    desc = desc_for(F2)
    r1 = visible_count(desc, D2, 12)
    r2 = visible_count(desc, D2, 12)
    assert (r1.count_vis, r1.count_pr, r1.count_all) == \
        (r2.count_vis, r2.count_pr, r2.count_all)
    assert r1.boundary_ambiguous == 0


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
        pytest.approx(1 / riemann_zeta(3), rel=0.03)
    assert res["total_boundary_ambiguous"] == 0
