"""Convex regions with exact membership for points with coordinates in Q(sqrt d).

Region data is rational.  Each region has one exact membership method,
`contains_exact(P, Q, den, d)`, for the points (P[i] + Q[i]*sqrt(d))/den
with coordinates indexed axis first: P[i], Q[i] are Python ints for one
point, or integer arrays of one shape for a batch (the transpose of (N, dim)
arrays).  The region's data is brought to integers over one denominator
once, and every bound becomes the exact sign of an integer A + B*sqrt(d)
(plain ints for one point; for a batch int64 under a proven magnitude
bound, Python ints past it).  Float-path membership (`contains_float`, on
`Box` and `Ball`) reports points within kernels.TOL of the boundary
separately so their influence can be bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .kernels import TOL
from .quadfield import (QuadInt, int_lin, int_mul, over_common_den,
                        quad_sign_array)


# status codes for float membership
OUT, IN, BOUNDARY = 0, 1, 2


def _rational(value) -> Fraction:
    """Fraction(value); a bool is no number, though Python counts it one."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value}")
    return Fraction(value)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; per-side open/closed flags, one per axis (closed
    when not given)."""

    bounds: tuple  # of (lo: Fraction, hi: Fraction)
    lo_open: tuple = ()
    hi_open: tuple = ()

    def __post_init__(self):
        for name in ("lo_open", "hi_open"):
            if not getattr(self, name):
                object.__setattr__(self, name, (False,) * self.dim)

    @staticmethod
    def cube(half_width, dim: int) -> "Box":
        if type(dim) is not int or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim}")
        h = _rational(half_width)
        return Box(tuple((-h, h) for _ in range(dim)))

    @staticmethod
    def make(bounds, lo_open=None, hi_open=None) -> "Box":
        bs = tuple((_rational(lo), _rational(hi)) for lo, hi in bounds)
        return Box(bs, tuple(lo_open or ()), tuple(hi_open or ()))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @cached_property
    def _ints(self) -> tuple[list[int], int]:
        return over_common_den([b for lohi in self.bounds for b in lohi])

    def contains_exact(self, P, Q, den: int, d: int):
        """Whether (P[i] + Q[i]*sqrt(d))/den lies in the box, den > 0."""
        nums, L = self._ints
        inside = True
        for i in range(self.dim):
            # L*den*(w - lo) and L*den*(hi - w) as A + B*sqrt(d)
            B = int_lin([(L, Q[i])])
            s = quad_sign_array(int_lin([(L, P[i])], -den * nums[2 * i]),
                                B, d)
            inside &= (s > 0) if self.lo_open[i] else (s >= 0)
            s = quad_sign_array(
                int_lin([(-L, P[i])], den * nums[2 * i + 1]), -B, d)
            inside &= (s > 0) if self.hi_open[i] else (s >= 0)
        return inside

    def contains_float(self, x: np.ndarray) -> np.ndarray:
        lo = np.array([float(b[0]) for b in self.bounds])
        hi = np.array([float(b[1]) for b in self.bounds])
        inside = np.all((x >= lo - TOL) & (x <= hi + TOL), axis=-1)
        near = np.any((np.abs(x - lo) <= TOL) | (np.abs(x - hi) <= TOL),
                      axis=-1)
        return np.where(inside, np.where(near, BOUNDARY, IN), OUT)

    def bbox(self) -> list[tuple[Fraction, Fraction]]:
        return [b for b in self.bounds]

    def volume(self) -> float:
        return float(self.volume_exact())

    def volume_exact(self) -> Fraction:
        v = Fraction(1)
        for lo, hi in self.bounds:
            v *= hi - lo
        return v

    def scaled(self, t) -> "Box":
        t = Fraction(t)
        return Box(tuple((lo * t, hi * t) for lo, hi in self.bounds),
                   self.lo_open, self.hi_open)

    def is_centrally_symmetric(self) -> bool:
        """-w lies in the box iff w does: lo = -hi with equal flags."""
        return (all(lo == -hi for lo, hi in self.bounds)
                and self.lo_open == self.hi_open)

    def diameter(self) -> float:
        return math.sqrt(sum(float(hi - lo) ** 2 for lo, hi in self.bounds))


@dataclass(frozen=True)
class Ball:
    """Ball with rational center and rational squared radius."""

    center: tuple
    r2: Fraction

    @staticmethod
    def make(center, r2) -> "Ball":
        return Ball(tuple(_rational(c) for c in center), _rational(r2))

    @property
    def dim(self) -> int:
        return len(self.center)

    @cached_property
    def _ints(self) -> tuple[list[int], int]:
        return over_common_den(self.center)

    def contains_exact(self, P, Q, den: int, d: int):
        """Whether (P[i] + Q[i]*sqrt(d))/den lies in the ball, den > 0."""
        cn, L = self._ints
        # den*L*(w_i - c_i) = X_i + Y_i*sqrt(d)
        X = [int_lin([(L, P[i])], -den * c) for i, c in enumerate(cn)]
        Y = [int_lin([(L, Q[i])]) for i in range(self.dim)]
        # (den*L)^2 * |w - c|^2 = SA + SB*sqrt(d)
        SA = int_lin([(1, int_mul(x, x)) for x in X]
                     + [(d, int_mul(y, y)) for y in Y])
        SB = int_lin([(2, int_mul(x, y)) for x, y in zip(X, Y)])
        rn, R = self.r2.numerator, self.r2.denominator
        s = quad_sign_array(int_lin([(-R, SA)], rn * (den * L) ** 2),
                            int_lin([(-R, SB)]), d)
        return s >= 0

    def contains_float(self, x: np.ndarray) -> np.ndarray:
        c = np.array([float(v) for v in self.center])
        r = math.sqrt(float(self.r2))
        dist = np.linalg.norm(x - c, axis=-1)
        inside = dist <= r + TOL
        near = np.abs(dist - r) <= TOL
        return np.where(inside, np.where(near, BOUNDARY, IN), OUT)

    def bbox(self):
        r = _frac_sqrt_upper(self.r2)
        return [(c - r, c + r) for c in self.center]

    def volume(self) -> float:
        k = self.dim
        r = math.sqrt(float(self.r2))
        return math.pi ** (k / 2) / math.gamma(k / 2 + 1) * r ** k

    def scaled(self, t) -> "Ball":
        t = Fraction(t)
        return Ball(tuple(c * t for c in self.center), self.r2 * t * t)

    def is_centrally_symmetric(self) -> bool:
        return all(c == 0 for c in self.center)

    def diameter(self) -> float:
        return 2 * math.sqrt(float(self.r2))


def _frac_sqrt_upper(x: Fraction) -> Fraction:
    """Rational upper bound for sqrt(x)."""
    n, dden = x.numerator, x.denominator
    s = math.isqrt(n * dden) + 1
    return Fraction(s, dden)


@dataclass(frozen=True)
class Polygon:
    """Convex polygon in R^2 with rational vertices in ccw order."""

    vertices: tuple

    @staticmethod
    def make(vertices) -> "Polygon":
        vs = tuple((_rational(x), _rational(y)) for x, y in vertices)
        return Polygon(vs)

    @property
    def dim(self) -> int:
        return 2

    def _edges(self):
        vs = self.vertices
        k = len(vs)
        for i in range(k):
            yield vs[i], vs[(i + 1) % k]

    @cached_property
    def _ints(self) -> tuple[list[tuple[int, int]], int]:
        nums, L = over_common_den([c for v in self.vertices for c in v])
        return list(zip(nums[::2], nums[1::2])), L

    def contains_exact(self, P, Q, den: int, d: int):
        """Whether (P[i] + Q[i]*sqrt(d))/den lies in the polygon, den > 0."""
        vs, L = self._ints
        inside = True
        for (x1, y1), (x2, y2) in zip(vs, vs[1:] + vs[:1]):
            # ccw: inside iff cross((v2-v1), (w-v1)) >= 0, and
            # den*L^2 * cross((v2-v1), (w-v1)) = A + B*sqrt(d)
            ax, ay = x2 - x1, y2 - y1
            A = int_lin([(ax * L, P[1]), (-ay * L, P[0])],
                        den * (ay * x1 - ax * y1))
            B = int_lin([(ax * L, Q[1]), (-ay * L, Q[0])])
            inside &= quad_sign_array(A, B, d) >= 0
        return inside

    def bbox(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return [(min(xs), max(xs)), (min(ys), max(ys))]

    def volume(self) -> float:
        return float(self.volume_exact())

    def volume_exact(self) -> Fraction:
        area = Fraction(0)
        for (x1, y1), (x2, y2) in self._edges():
            area += x1 * y2 - x2 * y1
        return area / 2

    def scaled(self, t) -> "Polygon":
        t = Fraction(t)
        return Polygon(tuple((x * t, y * t) for x, y in self.vertices))

    def is_strictly_convex(self) -> bool:
        """At least 3 vertices, and each lies strictly left of every edge
        it is not an endpoint of."""
        vs, k = self.vertices, len(self.vertices)
        return k >= 3 and all(
            (x2 - x1) * (vs[j][1] - y1) - (y2 - y1) * (vs[j][0] - x1) > 0
            for i, ((x1, y1), (x2, y2)) in enumerate(self._edges())
            for j in range(k) if j not in (i, (i + 1) % k))

    def is_centrally_symmetric(self) -> bool:
        vs = set(self.vertices)
        return all((-x, -y) in vs for x, y in self.vertices)

    def diameter(self) -> float:
        vs = [(float(x), float(y)) for x, y in self.vertices]
        return max(math.hypot(a[0] - b[0], a[1] - b[1])
                   for a in vs for b in vs)


@dataclass(frozen=True)
class Product:
    """Cartesian product of two regions; coordinates are concatenated."""

    left: object
    right: object

    @property
    def dim(self) -> int:
        return self.left.dim + self.right.dim

    def contains_exact(self, P, Q, den: int, d: int):
        k = self.left.dim
        return (self.left.contains_exact(P[:k], Q[:k], den, d)
                & self.right.contains_exact(P[k:], Q[k:], den, d))

    def bbox(self):
        return self.left.bbox() + self.right.bbox()

    def volume(self) -> float:
        return self.left.volume() * self.right.volume()

    def scaled(self, t) -> "Product":
        return Product(self.left.scaled(t), self.right.scaled(t))

    def is_centrally_symmetric(self) -> bool:
        return (self.left.is_centrally_symmetric()
                and self.right.is_centrally_symmetric())


@dataclass(frozen=True)
class UnitScaled:
    """Region (1/mult) * base for a positive unit mult of O_K: membership of
    w is tested as mult*w in base, and 1/mult = N(mult)*sigma(mult)."""

    base: object
    mult: QuadInt

    def __post_init__(self):
        if abs(self.mult.norm()) != 1 or self.mult.sign() <= 0:
            raise ValueError(f"mult must be a positive unit, got {self.mult}")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def inv(self) -> QuadInt:
        return self.mult.norm() * self.mult.conj()

    def contains_exact(self, P, Q, den: int, d: int):
        ma, mb = self.mult.p, self.mult.q
        # (P[i] + Q[i]*sqrt(d))/den * (ma + mb*sqrt(d))/2
        return self.base.contains_exact(
            [int_lin([(ma, p), (mb * d, q)]) for p, q in zip(P, Q)],
            [int_lin([(mb, p), (ma, q)]) for p, q in zip(P, Q)], den * 2, d)

    def bbox(self):
        """The base's rational bounds b times 1/mult, as (A, B) pairs."""
        ia, ib = self.inv.as_pair()
        return [tuple((b * ia, b * ib) for b in lohi)
                for lohi in self.base.bbox()]

    def volume(self) -> float:
        return self.base.volume() * float(self.inv) ** self.dim


def square_window(half_width=1) -> Box:
    return Box.cube(half_width, 2)


def octagon_window(half_width=1) -> Polygon:
    """Centrally symmetric rational-vertex approximation of a regular octagon.

    29/70 approximates sqrt(2) - 1; vertices are (+-h, +-h*t) and
    (+-h*t, +-h) in ccw order.
    """
    h = Fraction(half_width)
    t = Fraction(29, 70) * h
    return Polygon.make([
        (h, t), (t, h), (-t, h), (-h, t),
        (-h, -t), (-t, -h), (t, -h), (h, -t),
    ])


def disc_window(r2=1) -> Ball:
    return Ball.make((0, 0), r2)


def _positive(value, name: str) -> Fraction:
    v = Fraction(str(value))
    if v <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return v


# Per kind, the keys a region spec may hold besides "kind".
REGION_KEYS = {"box": {"bounds", "lo_open", "hi_open"},
               "cube": {"half_width", "dim"}, "square": {"half_width"},
               "octagon": {"half_width"}, "disc": {"r2"},
               "ball": {"center", "r2"}, "polygon": {"vertices"},
               "product": {"left", "right"}}


def region_from_spec(spec: dict):
    """Build a region from a JSON-style spec dict.  Rejected: an unknown kind,
    a key the kind does not hold, an empty region (a non-positive half_width
    or r2, a box side with lo > hi), a boolean where a number belongs, a
    cube dim that is no integer >= 1, box open flags that are not booleans
    or not one per bound, a polygon not strictly convex in ccw order."""
    kind = spec["kind"]
    if kind not in REGION_KEYS:
        raise ValueError(f"unknown region kind {kind!r}")
    unknown = sorted(set(spec) - REGION_KEYS[kind] - {"kind"})
    if unknown:
        raise ValueError(f"a {kind} region holds no key "
                         + ", ".join(map(repr, unknown)))
    if kind == "box":
        box = Box.make(spec["bounds"],
                       spec.get("lo_open"), spec.get("hi_open"))
        if any(lo > hi for lo, hi in box.bounds):
            raise ValueError("box bounds must have lo <= hi")
        for key in ("lo_open", "hi_open"):
            flags = spec.get(key, (False,) * box.dim)
            if len(flags) != box.dim or any(type(f) is not bool
                                            for f in flags):
                raise ValueError(f"{key} needs one true or false per bound")
        return box
    if kind == "cube":
        return Box.cube(_positive(spec["half_width"], "half_width"),
                        spec["dim"])
    if kind == "square":
        return square_window(_positive(spec.get("half_width", 1),
                                       "half_width"))
    if kind == "octagon":
        return octagon_window(_positive(spec.get("half_width", 1),
                                        "half_width"))
    if kind == "disc":
        return disc_window(_positive(spec.get("r2", 1), "r2"))
    if kind == "ball":
        return Ball.make(spec["center"], _positive(spec["r2"], "r2"))
    if kind == "polygon":
        poly = Polygon.make(spec["vertices"])
        if not poly.is_strictly_convex():
            raise ValueError("polygon must be strictly convex in ccw order")
        return poly
    return Product(region_from_spec(spec["left"]),
                   region_from_spec(spec["right"]))
