"""End-to-end acceptance checks.  One test per criterion; each prints a
single CRITERION n: PASS/FAIL line."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from quasivis.cli import main as cli_main
from quasivis.counting import (
    moebius_count_primitive,
    predicted_density_hammarhjelm,
    random_lattice_experiment,
    rate_fit,
    visible_count,
)
from quasivis.cutproject import (
    CPSetDesc,
    generate,
    strict_inclusion_witness,
    strict_inclusion_witness_random,
    visible_fast,
    visible_oracle,
)
from quasivis.holes import build_crt_hole, verify_hole
from quasivis.lattice import (
    GridDesc,
    schmidt_count_check,
)
from quasivis.quadfield import (
    dedekind_zeta_highprec,
    field,
    fundamental_unit,
    iter_ring_box,
    zeta_hurwitz,
    zeta_lseries,
)
from quasivis.regions import Box, octagon_window, square_window

F2, F5 = field(2), field(5)
D2 = Box.cube(1, 2)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num}: FAIL - {label}")
        raise
    print(f"CRITERION {num}: PASS - {label}")


def desc_for(fld, window=None, beta_exp=0):
    return CPSetDesc(field=fld, d=2,
                     window=window or square_window(1), beta_exp=beta_exp)


def test_criterion_01_unit_box_classification():
    with criterion(1, "unit-box classification d in 2..100, < 5 s"):
        t0 = time.perf_counter()
        res = CliRunner().invoke(cli_main, ["check-hc", "2", "100"])
        elapsed = time.perf_counter() - t0
        assert res.exit_code == 0
        rows = [l.split(",") for l in res.output.strip().splitlines()[1:]]
        empties = {int(r[0]) for r in rows if r[3] == "1"}
        assert empties == {2, 5, 13, 29, 53}
        assert all(r[4] for r in rows if r[3] == "0")
        assert elapsed < 5.0


def _unit_scan_oracle(d):
    from quasivis.quadfield import QuadInt
    fld = field(d)
    for q in range(1, 10 ** 4):
        best = None
        for p in range(1, 4 * q * int(math.sqrt(d)) + 8):
            if fld.half and (p - q) % 2:
                continue
            if not fld.half and (p % 2 or q % 2):
                continue
            if abs(p * p - d * q * q) == 4:
                cand = QuadInt.from_pq(fld, p, q)
                if best is None or cand < best:
                    best = cand
        if best is not None:
            return best
    raise AssertionError("no unit found")


def test_criterion_02_fundamental_units():
    with criterion(2, "fundamental units with exhaustive minimality"):
        assert fundamental_unit(F5) == F5.omega  # (1+sqrt5)/2
        for d in (2, 13):
            assert fundamental_unit(field(d)) == _unit_scan_oracle(d)
        for d in (2, 5, 13):
            fld = field(d)
            lam = fundamental_unit(fld)
            between = iter_ring_box(fld, 1, lam, -1, 1,
                                    x_lo_open=True, x_hi_open=True)
            assert all(abs(u.norm()) != 1 for u in between)


def test_criterion_03_oracle_equivalence():
    with criterion(3, "visible_fast == visible_oracle up to T=30, < 2 min"):
        t0 = time.perf_counter()
        for fld in (F2, F5):
            for window in (square_window(1), octagon_window(1)):
                desc = desc_for(fld, window)
                pts = generate(desc, D2, 30)
                for p in pts:
                    assert visible_fast(desc, p) == \
                        visible_oracle(desc, p, pts), (fld.d, p.quad_coords)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_04_moebius_identity():
    with criterion(4, "Moebius count equals direct count, zero tolerance"):
        for fld in (F2, F5):
            for beta_exp in (0, -1):
                desc = desc_for(fld, beta_exp=beta_exp)
                for T in (5, 10, 20, 50, 100):
                    direct = visible_count(desc, D2, [T],
                                           predicted=1.0)[0].count_pr
                    assert moebius_count_primitive(desc, D2, [T]) == \
                        [direct], (fld.d, beta_exp, T)


@pytest.fixture(scope="module")
def density_sweep():
    desc = desc_for(F2)
    predicted = predicted_density_hammarhjelm(desc)
    reports = visible_count(desc, D2, [50, 100, 180, 300, 400, 500],
                            predicted=predicted)
    return desc, predicted, reports


def test_criterion_05_visible_count_identity(density_sweep):
    with criterion(5, "count_vis == count_pr - count_pr_inner at every T"):
        _, _, reports = density_sweep
        for rep in reports:
            assert rep.identity_ok
            assert rep.count_vis == rep.count_pr - rep.count_pr_inner


def test_criterion_06_density_convergence(density_sweep):
    with criterion(6, "rel_error <= 0.05 at ~1e6 volume, slope <= -0.2, "
                      "zeta to 1e-9"):
        desc, predicted, reports = density_sweep
        assert reports[-1].vol_TD == pytest.approx(1e6)
        assert reports[-1].rel_error <= 0.05
        assert rate_fit(reports).slope <= -0.2
        za, _tail = zeta_lseries(F2, 2, 1e-10)
        zb = zeta_hurwitz(F2, 2)
        assert abs(za - zb) <= 1e-9 * abs(zb)
        assert predicted == pytest.approx(
            (1 - float(fundamental_unit(F2)) ** -2) * (4 / 8)
            / dedekind_zeta_highprec(F2, 2), rel=1e-9)


def test_criterion_07_random_lattice_density():
    with criterion(7, "n=3 mean density within 3% of 1/zeta(3), monotone "
                      "errors, boundary < 0.1%"):
        res = random_lattice_experiment(
            n=3, d=2, window=Box.cube(1, 1), omega=Box.cube(1, 2),
            T_list=[20, 40, 70, 112], samples=20, seed=12345)
        errs = [r["rel_error_vs_zeta"] for r in res["per_T"]]
        assert errs[-1] <= 0.03
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert res["per_T"][-1]["mean_density"] == \
            pytest.approx(1 / float(mpmath.zeta(3)), rel=0.03)
        assert res["boundary_fraction"] < 0.001


def test_criterion_08_crt_holes():
    with criterion(8, "CRT gcd-holes verified on x0 and 5 random "
                      "translates"):
        rng = np.random.default_rng(8)
        for n, A in ((2, 0), (2, 1), (3, 1)):
            hole = build_crt_hole(n, A)
            assert verify_hole(hole, hole.x0)
            for _ in range(5):
                k = rng.integers(-10 ** 9, 10 ** 9, size=n)
                x = tuple(int(x0) + hole.N * int(kj)
                          for x0, kj in zip(hole.x0, k))
                assert verify_hole(hole, x)
            for tup, pr in hole.prime_table.items():
                point = [x0 + t for x0, t in zip(hole.x0, tup)]
                assert all(isinstance(v, int) for v in point)
                assert all(v % pr == 0 for v in point)
                assert math.gcd(*point) != 1


def test_criterion_09_strict_inclusion():
    with criterion(9, "strict inclusion: empty for random lattices, "
                      "nonempty for the unit-box example"):
        rng = np.random.default_rng(909)
        for _ in range(10):
            g = rng.standard_normal((3, 3))
            g /= abs(np.linalg.det(g)) ** (1 / 3)
            ws, examined = strict_inclusion_witness_random(
                g, Box.cube(1, 1), Box.cube(1, 2), T=20.0)
            assert ws == []
            assert examined > 0
        desc = desc_for(F2)
        assert strict_inclusion_witness(desc, D2, 10)


def _schmidt_worst_ratios(n, n_lattices, boxes_per_lattice):
    """Per lattice, the worst discrepancy ratio over its boxes."""
    c, T0 = 3.0, 12.0
    ratios = []
    for i in range(n_lattices):
        rng = np.random.default_rng(1000 * n + i)
        basis = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        grid = GridDesc(basis=basis)
        worst = 0.0
        for _ in range(boxes_per_lattice):
            centers = rng.uniform(-4, 4, n)
            halves = rng.uniform(0.5, 2.0, n)
            # keep the diameter within T0
            scale = min(1.0, (T0 - 1e-6) / (2 * np.linalg.norm(halves)))
            halves *= scale
            bounds = [(Fraction(round(float(cc - h), 3)).limit_denominator(10 ** 4),
                       Fraction(round(float(cc + h), 3)).limit_denominator(10 ** 4))
                      for cc, h in zip(centers, halves)]
            rep = schmidt_count_check(grid, Box.make(bounds), c=c, T0=T0)
            worst = max(worst, rep.ratio)
        ratios.append(worst)
    return ratios


def test_criterion_10_schmidt_bound_stability():
    with criterion(10, "Schmidt discrepancy ratio stable under doubling "
                       "the trial count, n in {2,3,4}"):
        for n in (2, 3, 4):
            # Each lattice's boxes depend on its own seed only, so the
            # first 10 of the 20 lattices are the 10-lattice trials.
            ratios = _schmidt_worst_ratios(n, 20, 100)
            c1, c2 = max(ratios[:10]), max(ratios)
            assert 0 < c1 <= c2  # the base trials are a subset
            assert c2 <= 2.0 * c1, (n, c1, c2)
