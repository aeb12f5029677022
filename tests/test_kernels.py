"""Counting kernel: must agree exactly with a direct reference
implementation."""

import math

import numpy as np
import pytest

from quasivis import kernels


def reference_count(basis, lo_u, hi_u, lo_x, hi_x, tol, primitive):
    count = boundary = 0
    import itertools
    ranges = [range(int(lo), int(hi) + 1) for lo, hi in zip(lo_u, hi_u)]
    for u in itertools.product(*ranges):
        if primitive and math.gcd(*u) != 1:
            continue
        x = basis @ np.array(u, dtype=float)
        if np.all(x >= lo_x - tol) and np.all(x <= hi_x + tol):
            count += 1
            if np.any(np.abs(x - lo_x) <= tol) or \
                    np.any(np.abs(x - hi_x) <= tol):
                boundary += 1
    return count, boundary


def random_case(rng, n):
    basis = rng.standard_normal((n, n))
    basis += np.eye(n) * 2
    lo_x = rng.uniform(-6, 0, n)
    hi_x = lo_x + rng.uniform(1, 8, n)
    lo_u, hi_u = kernels.integer_preimage_box(
        np.linalg.inv(basis), list(zip(lo_x, hi_x)))
    return basis, lo_u, hi_u, lo_x, hi_x


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("primitive", [False, True])
def test_backends_agree_with_reference(n, primitive):
    rng = np.random.default_rng(42 + n)
    for _ in range(15):
        basis, lo_u, hi_u, lo_x, hi_x = random_case(rng, n)
        want = reference_count(basis, lo_u, hi_u, lo_x, hi_x, 1e-9, primitive)
        got = kernels.count_lattice_points_in_box(
            basis, lo_u, hi_u, lo_x, hi_x, primitive=primitive)
        assert got == want


def test_primitive_excludes_origin():
    basis = np.eye(2)
    cnt, _ = kernels.count_lattice_points_in_box(
        basis, [-1, -1], [1, 1], np.full(2, -1.5), np.full(2, 1.5),
        primitive=True)
    assert cnt == 8  # 3x3 grid minus origin


def test_empty_integer_range():
    basis = np.eye(2)
    assert kernels.count_lattice_points_in_box(
        basis, [2, 2], [1, 1], np.zeros(2), np.ones(2)) == (0, 0)
    U, X, b = kernels.collect_lattice_points_in_box(
        basis, [2, 2], [1, 1], np.zeros(2), np.ones(2))
    assert len(U) == 0


def test_collect_matches_count_and_order():
    rng = np.random.default_rng(3)
    basis, lo_u, hi_u, lo_x, hi_x = random_case(rng, 2)
    cnt, bnd = kernels.count_lattice_points_in_box(
        basis, lo_u, hi_u, lo_x, hi_x)
    U, X, b = kernels.collect_lattice_points_in_box(
        basis, lo_u, hi_u, lo_x, hi_x)
    assert len(U) == cnt and int(b.sum()) == bnd
    assert [tuple(u) for u in U] == sorted(tuple(u) for u in U)
    assert np.allclose(X, U @ basis.T)


def test_chunked_grid_covers_box(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK", 7)
    lo = np.array([-2, 0, 3], dtype=np.int64)
    hi = np.array([1, 2, 4], dtype=np.int64)
    rows = np.concatenate(list(kernels._np_int_grid(lo, hi)))
    assert len(rows) == 4 * 3 * 2
    assert len({tuple(r) for r in rows}) == len(rows)
    assert rows.min(axis=0).tolist() == lo.tolist()
    assert rows.max(axis=0).tolist() == hi.tolist()


def test_translation_handling():
    basis = np.eye(2)
    t = np.array([0.5, 0.5])
    cnt, _ = kernels.count_lattice_points_in_box(
        basis, [-2, -2], [2, 2], np.zeros(2), np.ones(2), translation=t)
    assert cnt == 1  # only (0.5, 0.5)


def test_backend_flag_reporting():
    assert kernels.backend_name() == "numpy"
