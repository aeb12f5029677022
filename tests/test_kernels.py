"""The counting kernel (primitive vectors) and the listing (every vector)
must agree exactly with a direct reference implementation."""

import math

import numpy as np
import pytest

from quasivis import kernels
from quasivis.lattice import box_reduced_basis


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


def near_face(X, lo_x, hi_x):
    """Flags of the listed points within kernels.TOL of a face."""
    return np.any((np.abs(X - lo_x) <= kernels.TOL)
                  | (np.abs(X - hi_x) <= kernels.TOL), axis=1)


def kernel_count(basis, lo_u, hi_u, lo_x, hi_x, primitive):
    """reference_count's answer from the package: the kernel's count of the
    primitive vectors, or the number of vectors the listing returns and how
    many of them lie within TOL of a face."""
    if primitive:
        return kernels.count_lattice_points_in_box(basis, lo_u, hi_u, lo_x,
                                                   hi_x)
    U, X = kernels.collect_lattice_points_in_box(basis, lo_u, hi_u, lo_x,
                                                 hi_x)
    return len(U), int(near_face(X, lo_x, hi_x).sum())


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
def test_kernel_matches_reference_on_random_boxes(n, primitive):
    rng = np.random.default_rng(42 + n)
    for _ in range(15):
        basis, lo_u, hi_u, lo_x, hi_x = random_case(rng, n)
        want = reference_count(basis, lo_u, hi_u, lo_x, hi_x, 1e-9, primitive)
        got = kernel_count(basis, lo_u, hi_u, lo_x, hi_x, primitive)
        assert got == want


def face_cases():
    """Cases the random ones never reach, each with the brute-force answer:
    (label, basis, lo_u, hi_u, lo_x, hi_x, primitive).
    Integer or dyadic data keeps every image exact; the integer bases are
    unimodular, so points sit on the faces and the boundary tally is
    nonzero."""
    rng = np.random.default_rng(7)
    cases = []
    for n in (1, 2, 3, 4):
        for k in range(4):
            lower = np.tril(rng.integers(-1, 2, (n, n)), -1) + np.eye(n)
            upper = np.triu(rng.integers(-1, 2, (n, n)), 1) + np.eye(n)
            basis = lower @ upper * rng.choice([-1, 1], n)
            lo_x = rng.integers(-4, 1, n).astype(float)
            hi_x = lo_x + rng.integers(0, 5, n)
            w = 5 if n < 4 else 2
            cases.append((f"int-n{n}-{k}", basis, np.full(n, -w),
                          np.full(n, w), lo_x, hi_x, k % 2 == 1))
    # A zero in the last column (a coordinate constant along every line)
    # and one elsewhere.
    basis = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, -1.0, 2.0]])
    for lo0 in (-2.0, 0.0, 3.0):
        cases.append((f"zero-entry-{lo0}", basis, np.full(3, -4),
                      np.full(3, 4), np.array([lo0, -3.0, -2.0]),
                      np.array([lo0 + 2, 2.0, 3.0]), lo0 != 0))
    # The zero prefix, whose line holds primitive points only at +-1.
    cases.append(("zero-prefix", np.eye(3), np.full(3, -3), np.full(3, 3),
                  np.full(3, -2.0), np.full(3, 2.0), True))
    # Longest preimage range first or in the middle, so the count takes a
    # line other than the last coordinate.
    basis = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, 1.0, 1.0]])
    for label, w in (("long-first", [7, 2, 3]), ("long-middle", [2, 7, 3])):
        cases.append((label, basis, -np.array(w), np.array(w),
                      np.array([-4.0, -3.0, -5.0]),
                      np.array([3.0, 2.0, 4.0]), True))
    # A box thinner than 2*tol: every point in it is near a face.
    cases.append(("thin", np.array([[1.0, 2.0], [-1.0, 1.0]]),
                  np.full(2, -6), np.full(2, 6), np.array([1.0, -4.0]),
                  np.array([1.0 + 1e-9, 4.0]), False))
    return cases


def face_reference(case):
    """reference_count of a face case."""
    _, basis, lo_u, hi_u, lo_x, hi_x, primitive = case
    return reference_count(basis, lo_u, hi_u, lo_x, hi_x, 1e-9, primitive)


@pytest.mark.parametrize("case", face_cases(), ids=lambda c: c[0])
def test_face_cases_match_reference(case):
    assert kernel_count(*case[1:]) == face_reference(case)


def test_face_cases_reach_the_boundary():
    """The face cases exercise the boundary tally, unlike the random ones."""
    tallies = {c[0]: face_reference(c)[1] for c in face_cases()}
    assert all(tallies[k] > 0 for k in ("thin", "zero-prefix"))
    assert sum(v > 0 for v in tallies.values()) >= len(tallies) * 3 // 4


def test_box_past_int64_raises():
    """300^8 box points cannot be indexed in int64; the count must not wrap
    around to (0, 0)."""
    with pytest.raises(ValueError, match="int64"):
        kernels.count_lattice_points_in_box(
            np.eye(8), np.zeros(8), np.full(8, 299), np.full(8, -0.5),
            np.full(8, 0.5))


def stretched_case(rng, n, j):
    """A random case whose preimage box is longest in coordinate j."""
    basis = np.eye(n) + 0.15 * rng.standard_normal((n, n))
    lo_x = rng.uniform(-2, 0, n)
    hi_x = lo_x + rng.uniform(1, 2, n)
    hi_x[j] += 8
    lo_u, hi_u = kernels.integer_preimage_box(
        np.linalg.inv(basis), list(zip(lo_x, hi_x)))
    return basis, lo_u, hi_u, lo_x, hi_x


@pytest.mark.parametrize("n", [3, 4])
def test_longest_range_in_every_position(monkeypatch, n):
    """The count takes the longest preimage range as its line, wherever
    that range sits, and still equals the pointwise count."""
    lines = []

    class Spy(kernels._Lines):
        def __init__(self, bases, lo_u, hi_u, *rest):
            # the ranges of the one query of the stack
            lines.append((np.asarray(hi_u) - np.asarray(lo_u))[0])
            super().__init__(bases, lo_u, hi_u, *rest)

    monkeypatch.setattr(kernels, "_Lines", Spy)
    rng = np.random.default_rng(11 + n)
    for j in range(n):
        basis, lo_u, hi_u, lo_x, hi_x = stretched_case(rng, n, j)
        sizes = hi_u - lo_u
        assert np.flatnonzero(sizes == sizes.max()).tolist() == [j]
        want = reference_count(basis, lo_u, hi_u, lo_x, hi_x, 1e-9, True)
        got = kernels.count_lattice_points_in_box(basis, lo_u, hi_u, lo_x,
                                                  hi_x)
        assert got == want, j
        assert lines[-1][-1] == sizes[j]


def coprime_brute(g, a, z):
    return sum(math.gcd(g, u) == 1 for u in range(a, z + 1))


def test_coprime_counts_match_brute_force():
    rng = np.random.default_rng(5)
    gs = [0, 1, 2, 4, 6, 30, 30030] + rng.integers(2, 10**6, 9).tolist()
    spans = [(3, 1), (5, 4), (-9, -2), (-7, 7), (-1, 1), (0, 0), (-30, -30),
             (1, 1), (-5, 0), (0, 6), (-40, 45)]
    a = np.array([[lo for lo, _ in spans]] * len(gs)).T
    z = np.array([[hi for _, hi in spans]] * len(gs)).T
    for _ in range(6):  # random intervals, some empty
        lo = rng.integers(-60, 60, len(gs))
        a = np.vstack([a, lo])
        z = np.vstack([z, lo + rng.integers(-3, 70, len(gs))])
    for cols in ([0], [1], [5, 6], list(range(len(gs)))):
        g = np.array(gs)[cols]
        got = kernels._coprime_counts(g, a[:, cols], z[:, cols]).sum(axis=-1)
        want = [sum(coprime_brute(int(gi), int(ai), int(zi))
                    for gi, ai, zi in zip(g, ar, zr))
                for ar, zr in zip(a[:, cols], z[:, cols])]
        assert got.tolist() == want, cols


def test_preimage_bounds_past_int64_raise():
    """A float bound outside int64 must not wrap around; the box
    (-1e19, 1e19) x (-1, 1) once came back with lo > hi and counted
    (0, 0)."""
    for bbox in ([(-1e19, 1e19), (-1, 1)], [(-1, 1), (-1, 1e19)],
                 [(-1e19, 1), (-1, 1)], [(math.nan, 1), (-1, 1)],
                 [(-1, math.inf), (-1, 1)]):
        with pytest.raises(ValueError, match="int64"):
            kernels.integer_preimage_box(np.eye(2), bbox)
    lo, hi = kernels.integer_preimage_box(np.eye(2), [(-2.0 ** 62, 2.0 ** 62),
                                                      (-1, 1)])
    assert lo.tolist() == [-2 ** 62 - 1, -2] and hi.tolist() == [2 ** 62 + 1, 2]


def test_primitive_excludes_origin():
    basis = np.eye(2)
    cnt, _ = kernels.count_lattice_points_in_box(
        basis, [-1, -1], [1, 1], np.full(2, -1.5), np.full(2, 1.5))
    assert cnt == 8  # 3x3 grid minus origin


def test_empty_integer_range():
    basis = np.eye(2)
    assert kernels.count_lattice_points_in_box(
        basis, [2, 2], [1, 1], np.zeros(2), np.ones(2)) == (0, 0)
    U, X = kernels.collect_lattice_points_in_box(
        basis, [2, 2], [1, 1], np.zeros(2), np.ones(2))
    assert len(U) == 0


def test_collect_matches_count_and_order():
    rng = np.random.default_rng(3)
    basis, lo_u, hi_u, lo_x, hi_x = random_case(rng, 2)
    cnt, bnd = kernels.count_lattice_points_in_box(
        basis, lo_u, hi_u, lo_x, hi_x)
    U, X = kernels.collect_lattice_points_in_box(
        basis, lo_u, hi_u, lo_x, hi_x)
    b = near_face(X, lo_x, hi_x)
    primitive = np.gcd.reduce(np.abs(U), axis=1) == 1
    assert int(primitive.sum()) == cnt and int(b[primitive].sum()) == bnd
    assert [tuple(u) for u in U] == sorted(tuple(u) for u in U)
    assert np.allclose(X, U @ basis.T)


def test_chunked_grid_covers_box(monkeypatch):
    """The prefix stream covers every query's box once, in lexicographic
    order within a query and query by query, in chunks of at most _ROWS
    rows that split queries and hold several."""
    monkeypatch.setattr(kernels, "_ROWS", 7)
    lo = np.array([[-2, 0, 3], [0, 0, 0], [5, 5, 5], [1, -1, 0]])
    hi = np.array([[1, 2, 4], [-1, 2, 2], [6, 5, 7], [1, -1, 0]])
    counts = np.where(np.any(hi < lo, axis=1), 0,
                      np.prod(hi - lo + 1, axis=1))
    assert counts.tolist() == [24, 0, 6, 1]
    chunks = list(kernels._prefix_stream(lo, hi, counts))
    assert all(len(q) <= 7 for q, _ in chunks)
    assert any(len(set(q.tolist())) > 1 for q, _ in chunks)
    q = np.concatenate([q for q, _ in chunks])
    rows = np.concatenate([P.T for _, P in chunks])
    assert np.all(np.diff(q) >= 0)
    assert np.bincount(q, minlength=len(lo)).tolist() == counts.tolist()
    for s in np.flatnonzero(counts):
        box = [tuple(r) for r in rows[q == s]]
        assert len(set(box)) == len(box) == counts[s]
        assert box == sorted(box)
        assert rows[q == s].min(axis=0).tolist() == lo[s].tolist()
        assert rows[q == s].max(axis=0).tolist() == hi[s].tolist()


def batch_queries(rng, n):
    """Queries of one dimension n whose batch reaches every branch of the
    kernel: two full cases (every line of their boxes holds points, so
    chunks of lines mix the two), two integer cases whose points sit on
    the faces (no line is deep, so one interior walk settles lines of
    both), random cases, an empty integer range, a row constant along the
    line, coordinates past 2^53, and, around the origin, prefixes of gcd 0
    and of gcd > 1."""
    queries = []
    for k in (1, 2):
        basis = np.eye(n)
        basis[:, -1] += 0.01 * k
        queries.append((basis, np.full(n, -2), np.full(n, 2),
                        np.full(n, -2.5), np.full(n, 2.5)))
    basis = np.eye(n)
    basis[:, -1] = 1
    for top in (1.0, 2.0):
        queries.append((basis, np.full(n, -2), np.full(n, 2),
                        np.full(n, -2.0), np.full(n, top)))
    queries += [random_case(rng, n) for _ in range(4)]
    basis, lo_u, hi_u, lo_x, hi_x = random_case(rng, n)
    queries.append((basis, lo_u, np.minimum(hi_u, lo_u - 1), lo_x, hi_x))
    # equal ranges keep the last coordinate as the line, along which row 0
    # is constant
    basis = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    basis[0, -1] = 0.0
    queries.append((basis, np.full(n, -3), np.full(n, 3),
                    rng.uniform(-3, 0, n), rng.uniform(0.5, 3, n)))
    # the case of test_coordinates_past_2_53_settle_every_end, with the
    # coordinates past the second ranging over [0, 1]
    basis = np.eye(n)
    basis[0, :2] = 0.5, 0.25
    lo_u, hi_u = np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    lo_u[:2], hi_u[:2] = (2 ** 53 - 20, 1), (2 ** 53 + 20, 4)
    lo_x, hi_x = np.full(n, -0.5), np.full(n, 1.5)
    lo_x[:2], hi_x[:2] = (2.0 ** 52 - 5.5, 0.5), (2.0 ** 52 + 7, 4.5)
    queries.append((basis, lo_u, hi_u, lo_x, hi_x))
    return queries


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batch_equals_single(monkeypatch, n):
    """A batch counts what each of its queries counts alone, with chunks of
    7 rows that split queries and hold several."""
    queries = batch_queries(np.random.default_rng(31 + n), n)
    want = [kernels.count_lattice_points_in_box(*c) for c in queries]
    chunks, lines, gcds = [], [], []

    def stream(*args):
        for q, P in prefix_stream(*args):
            chunks.append(q)
            yield q, P

    def coprime(g, *rest):
        gcds.append(g)
        return coprime_counts(g, *rest)

    def interior(self, q, *rest):
        lines.append(set(q.tolist()))
        return line_interior(self, q, *rest)

    prefix_stream, coprime_counts = kernels._prefix_stream, \
        kernels._coprime_counts
    line_interior = kernels._Lines.interior
    monkeypatch.setattr(kernels._Lines, "interior", interior)
    monkeypatch.setattr(kernels, "_prefix_stream", stream)
    monkeypatch.setattr(kernels, "_coprime_counts", coprime)
    monkeypatch.setattr(kernels, "_ROWS", 7)
    count, boundary = kernels.count_lattice_points_in_boxes(
        *(np.stack(x) for x in zip(*queries)))
    assert list(zip(count.tolist(), boundary.tolist())) == want
    assert want[8] == (0, 0) and want[-1][0] > 0
    held = [set(q.tolist()) for q in chunks]
    assert any(len(h) > 1 for h in held)
    assert any(h & k for h, k in zip(held, held[1:]))
    assert any(len(h) > 1 for h in lines)
    g = np.concatenate(gcds)
    assert (g == 0).any() and (g > 1).any()


def test_batch_past_int64_raises_before_any_prefix(monkeypatch):
    """One query of a batch whose box passes int64 (300^8 points) raises
    the one-query ValueError before the prefix stream starts."""
    started = []
    monkeypatch.setattr(kernels, "_prefix_stream",
                        lambda *args: started.append(args))
    with pytest.raises(ValueError, match=f"box of {300 ** 8} points cannot "
                                         f"be indexed in int64"):
        kernels.count_lattice_points_in_boxes(
            np.stack([np.eye(8)] * 3), np.zeros((3, 8)),
            [np.ones(8), np.full(8, 299), np.ones(8)], np.full(8, -0.5),
            np.full(8, 0.5))
    assert not started


def test_preimage_box_of_a_stack_matches_each_basis():
    """integer_preimage_box on a stack of 80 seeded Gaussian bases, reduced
    as the random experiment reduces them, gives each basis's bounds, at
    the benchmark's T (10..56) and at those of configs/random.json
    (20..112)."""
    rng = np.random.default_rng(8)
    bases = rng.standard_normal((80, 3, 3))
    bases /= np.abs(np.linalg.det(bases))[:, None, None] ** (1 / 3)
    for T in (10, 20, 35, 56, 40, 70, 112):
        bbox = [(-T, T), (-T, T), (-1, 1)]
        inv = np.linalg.inv(box_reduced_basis(bases, np.array([2 * T, 2 * T,
                                                               2.0])))
        lo, hi = kernels.integer_preimage_box(inv, bbox)
        each = [kernels.integer_preimage_box(x, bbox) for x in inv]
        assert np.array_equal(lo, [x for x, _ in each])
        assert np.array_equal(hi, [x for _, x in each])


def test_backend_flag_reporting():
    assert kernels.backend_name() == "numpy"


def test_mobius_divisors_match_brute_force():
    N = 2000
    mu = [0, 1] + [0] * (N - 1)  # mu by sum_{e | n} mu(e) = [n == 1]
    for n in range(1, N + 1):
        for m in range(2 * n, N + 1, n):
            mu[m] -= mu[n]
    for g in range(1, N + 1):
        want = [(e, mu[e]) for e in range(1, g + 1) if g % e == 0 and mu[e]]
        assert sorted(kernels._mobius_divisors(g)) == want, g


def exact_face_cases(rng, count):
    """Boxes of at most 200,000 points whose images land on the faces the
    pointwise test compares against.  Half are dyadic: bases with entries
    in Z, Z/2 or Z/4 and quarter-integer faces, so images are exact and the
    estimates land on integers.  Half are decimal: bases in Z/10 and faces
    in Z/10 moved inward by TOL, so the widened faces lo - TOL and hi + TOL
    fall on images up to rounding, and only the rounding decides them."""
    cases = []
    while len(cases) < count:
        n = int(rng.integers(2, 5))
        decimal = len(cases) % 2
        den = 10 if decimal else rng.choice([1, 2, 4])
        basis = rng.integers(-9, 10, (n, n)) / den
        if abs(np.linalg.det(basis)) < 0.1:
            continue
        lo_x = rng.integers(-30, 10, n) / (10 if decimal else 4)
        hi_x = lo_x + rng.integers(0, 40, n) / (10 if decimal else 4)
        if decimal:
            lo_x, hi_x = lo_x + 1e-9, hi_x - 1e-9
        lo_u, hi_u = kernels.integer_preimage_box(
            np.linalg.inv(basis), list(zip(lo_x, hi_x)))
        if np.prod(hi_u - lo_u + 1) <= 200_000:
            cases.append((basis, lo_u, hi_u, lo_x, hi_x))
    return cases


def kernel_outputs(case):
    """The count, its boundary tally, and the listing of a case."""
    return (kernels.count_lattice_points_in_box(*case),
            kernels.collect_lattice_points_in_box(*case))


def test_margin_changes_no_result(monkeypatch):
    """Certifying the line ends by the rounding margin gives the outputs of
    settling every end pointwise (an infinite margin certifies none), on
    random, face and exact-face cases.  The exact-face ones need the settle,
    and their decimal half is where a margin too small to cover the rounding
    changes an output."""
    rng = np.random.default_rng(23)
    cases = [random_case(rng, n) for n in (2, 3, 4) for _ in range(10)]
    cases += [c[1:6] for c in face_cases()]
    exact = exact_face_cases(rng, 200)
    settled = []

    def spy(self, P, a, *rest):
        settled.append(len(a))
        return settle(self, P, a, *rest)

    settle = kernels._Lines._settle
    monkeypatch.setattr(kernels._Lines, "_settle", spy)
    got = [kernel_outputs(c) for c in cases + exact]
    assert sum(settled) > 0
    monkeypatch.setattr(kernels, "_MARGIN", math.inf)
    for case, (count, (U, X)) in zip(cases + exact, got):
        want_count, (want_U, want_X) = kernel_outputs(case)
        assert count == want_count
        assert np.array_equal(U, want_U) and np.array_equal(X, want_X)


def test_coordinates_past_2_53_settle_every_end(monkeypatch):
    """A coordinate past 2^53 does not cast to float exactly, so no end is
    certified: every line goes to the settle, and the count is the
    settle-everything one, which is the pointwise count."""
    basis = np.array([[0.5, 0.25], [0.0, 1.0]])
    lo_u, hi_u = np.array([2 ** 53 - 20, 1]), np.array([2 ** 53 + 20, 4])
    lo_x, hi_x = np.array([2.0 ** 52 - 5.5, 0.5]), np.array([2.0 ** 52 + 7,
                                                              4.5])
    settled = []

    def spy(self, P, a, z, ok_a, *rest):
        settled.append((ok_a.__name__, len(a)))
        return settle(self, P, a, z, ok_a, *rest)

    settle = kernels._Lines._settle
    monkeypatch.setattr(kernels._Lines, "_settle", spy)
    got = kernels.count_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x)
    assert settled[0] == ("_entered", 4)
    assert 0 < got[0] < 4 * 41
    assert got == reference_count(basis, lo_u, hi_u, lo_x, hi_x, 1e-9, True)
    monkeypatch.setattr(kernels, "_MARGIN", math.inf)
    assert got == kernels.count_lattice_points_in_box(basis, lo_u, hi_u,
                                                      lo_x, hi_x)
