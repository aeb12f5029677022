"""Region membership on Fraction pairs: the independent route that the tests
check the package's integer `contains_exact` against.

A point is a tuple of scalars (A, B), each meaning A + B*sqrt(d) with
rational A, B.  Every bound is decided by quad_sign on the exact rational
difference, one region kind at a time, with no common denominator."""

from __future__ import annotations

import math
from fractions import Fraction

from quasivis.quadfield import quad_sign
from quasivis.regions import Ball, Box, Polygon, Product, UnitScaled

Scalar = tuple[Fraction, Fraction]  # A + B*sqrt(d)


def s_mul(x: Scalar, y: Scalar, d: int) -> Scalar:
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def contains(region, point: tuple[Scalar, ...], d: int) -> bool:
    """Whether the point lies in the region (Box, Ball, Polygon, Product or
    UnitScaled)."""
    if isinstance(region, Box):
        lo_open, hi_open = region.lo_open, region.hi_open
        for i, w in enumerate(point):
            lo, hi = region.bounds[i]
            s = quad_sign(w[0] - lo, w[1], d)
            if s < 0 or (s == 0 and lo_open[i]):
                return False
            s = quad_sign(hi - w[0], -w[1], d)
            if s < 0 or (s == 0 and hi_open[i]):
                return False
        return True
    if isinstance(region, Ball):
        acc: Scalar = (Fraction(0), Fraction(0))
        for i, w in enumerate(point):
            dw = (w[0] - region.center[i], w[1])
            sq = s_mul(dw, dw, d)
            acc = (acc[0] + sq[0], acc[1] + sq[1])
        return quad_sign(region.r2 - acc[0], -acc[1], d) >= 0
    if isinstance(region, Polygon):
        wx, wy = point
        for (x1, y1), (x2, y2) in region._edges():
            # ccw: inside iff cross((v2-v1), (w-v1)) >= 0
            ax, ay = x2 - x1, y2 - y1
            cA = ax * (wy[0] - y1) - ay * (wx[0] - x1)
            cB = ax * wy[1] - ay * wx[1]
            if quad_sign(cA, cB, d) < 0:
                return False
        return True
    if isinstance(region, Product):
        k = region.left.dim
        return (contains(region.left, point[:k], d)
                and contains(region.right, point[k:], d))
    if isinstance(region, UnitScaled):
        m = region.mult.as_pair()
        return contains(region.base, tuple(s_mul(w, m, d) for w in point), d)
    raise TypeError(f"no membership oracle for {type(region).__name__}")


def as_ints(point: tuple[Scalar, ...]) -> tuple[list[int], list[int], int]:
    """P, Q, den with point[i] = (P[i] + Q[i]*sqrt(d))/den: the arguments of
    the package's contains_exact for one point."""
    den = math.lcm(*(Fraction(x).denominator for ab in point for x in ab))
    return ([int(a * den) for a, _ in point],
            [int(b * den) for _, b in point], den)
