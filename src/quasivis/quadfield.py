"""Exact arithmetic in real quadratic fields K = Q(sqrt(d)) with PID ring of integers.

Elements, units, ideal norms from 2x2 minors and divisibility by g (each
one body for a point or a set of points), the Moebius function of a
principal ideal from its norm and the Kronecker symbol, and the Dedekind
zeta function: at s = 2 and 4 from the rational zeta_K(1 - s), computed
by two exact routes (Washington, GTM 83, Thm 4.2; Siegel 1969, Zagier
1976) that must be equal, otherwise by two series routes that must agree
to a certified tail bound.  Every correctness-bearing comparison is an
exact integer sign computation; floats appear only as convenience
approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import mpmath
import numpy as np


class NotPID(ValueError):
    """Operation requires a principal ideal domain ring of integers."""


class TolTooTight(ValueError):
    """Requested zeta tolerance cannot be certified within the term budget."""


# Squarefree d in [2, 100] whose ring of integers is a PID.
PID_D = frozenset(
    {2, 3, 5, 6, 7, 11, 13, 14, 17, 19, 21, 22, 23, 29, 31, 33, 37, 38, 41,
     43, 46, 47, 53, 57, 59, 61, 62, 67, 69, 71, 73, 77, 83, 86, 89, 93, 94, 97}
)


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division, primes
    ascending."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    return all(e == 1 for e in factorint(d).values())


# ---------------------------------------------------------------------------
# Exact sign arithmetic for numbers of the form A + B*sqrt(d)


def quad_sign(A, B, d: int) -> int:
    """Sign of A + B*sqrt(d) for rational A, B; never touches floats."""
    sA = (A > 0) - (A < 0)
    sB = (B > 0) - (B < 0)
    if sB == 0:
        return sA
    if sA == 0:
        return sB
    if sA == sB:
        return sA
    # Opposite signs: compare A^2 with d*B^2.  Equality would force
    # sqrt(d) rational, impossible for squarefree d > 1.
    lhs = A * A
    rhs = B * B * d
    if lhs == rhs:
        raise ArithmeticError(f"sqrt({d}) compared equal to a rational")
    return sA if lhs > rhs else sB


def floor_quad(a: int, b: int, c: int, d: int) -> int:
    """Exact floor of (a + b*sqrt(d))/c for integers a, b and c > 0: it is
    (a + floor(b*sqrt(d))) // c, and floor(b*sqrt(d)) is isqrt(b^2*d), or
    -isqrt(b^2*d) - 1 for b < 0 (b^2*d is no square for squarefree d > 1)."""
    f = isqrt(b * b * d)
    return (a + (f if b >= 0 else -f - 1)) // c


def over_common_den(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    fr = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fr))
    return [f.numerator * (den // f.denominator) for f in fr], den


# Batch versions on integer arrays.  Every result is exact: an operation runs
# in int64 only when a bound on its inputs proves that no partial result
# reaches 2^62, and on Python ints (dtype=object) otherwise.  int_lin,
# int_mul and quad_sign_array also take Python ints in place of the arrays
# (one point), and then use plain int arithmetic and quad_sign.

_INT64_LIMIT = 1 << 62


def _max_abs(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _exact_dtype(bound: int):
    return np.int64 if bound < _INT64_LIMIT else object


def int_array(rows) -> np.ndarray:
    """Python ints (nested sequences) as an int64 array when they fit the
    guard, else as a dtype=object array."""
    a = np.array(rows, dtype=object)
    return a.astype(_exact_dtype(_max_abs(a)))


def int_lin(terms, const: int = 0) -> np.ndarray:
    """Exact const + sum(c * X) over (c, X) terms with Python-int
    coefficients c and integer arrays X of one shape, or Python ints X."""
    if not isinstance(terms[0][1], np.ndarray):
        return const + sum(c * x for c, x in terms)
    mags = [_max_abs(x) for _, x in terms]
    bound = abs(const) + sum(abs(c) * m for (c, _), m in zip(terms, mags))
    # the inputs must fit too, also under a zero coefficient
    dt = _exact_dtype(max(bound, *mags, *(abs(c) for c, _ in terms)))
    out = np.full(terms[0][1].shape, const, dtype=dt)
    for c, x in terms:
        out += c * x.astype(dt, copy=False)
    return out


def int_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact elementwise product of two integer arrays, or of two ints."""
    if not isinstance(x, np.ndarray):
        return x * y
    mx, my = _max_abs(x), _max_abs(y)
    dt = _exact_dtype(max(mx * my, mx, my))  # a zero factor bounds no input
    return x.astype(dt, copy=False) * y.astype(dt, copy=False)


def quad_sign_array(A: np.ndarray, B: np.ndarray, d: int) -> np.ndarray:
    """Elementwise quad_sign of A + B*sqrt(d) for integer arrays A, B.

    The sign is that of A or of B except where the two differ in sign;
    only there are A^2 and d*B^2 compared.  For ints A, B: quad_sign."""
    if not isinstance(A, np.ndarray):
        return quad_sign(A, B, d)
    sA = (A > 0).astype(np.int8) - (A < 0)
    sB = (B > 0).astype(np.int8) - (B < 0)
    out = np.where(sA == 0, sB, sA)
    mixed = sA * sB < 0
    if mixed.any():
        a, b = A[mixed], B[mixed]
        lhs, rhs = int_mul(a, a), int_lin([(d, int_mul(b, b))])
        if (lhs == rhs).any():
            raise ArithmeticError(f"sqrt({d}) compared equal to a rational")
        out[mixed] = np.where(lhs > rhs, sA[mixed], sB[mixed])
    return out


# ---------------------------------------------------------------------------
# Field descriptors and elements


@dataclass(frozen=True)
class FieldDesc:
    """A real quadratic field Q(sqrt(d)) with squarefree d > 1."""

    d: int
    disc: int
    half: bool  # omega = (1 + sqrt(d))/2 when d = 1 mod 4, else sqrt(d)
    is_pid: bool

    def __repr__(self) -> str:
        return f"FieldDesc(d={self.d})"

    @property
    def omega(self) -> "QuadInt":
        return QuadInt(self, 0, 1)

    @property
    def omega_square(self) -> tuple[int, int]:
        """(k, t) with omega^2 = k + t*omega."""
        return ((self.d - 1) // 4, 1) if self.half else (self.d, 0)


@lru_cache(maxsize=None)
def field(d: int) -> FieldDesc:
    """Q(sqrt(d)) for squarefree d in [2, 100], the range PID_D decides."""
    if not 2 <= d <= 100 or not is_squarefree(d):
        raise ValueError(f"d must be squarefree in [2, 100], got {d}")
    half = d % 4 == 1
    disc = d if half else 4 * d
    return FieldDesc(d=d, disc=disc, half=half, is_pid=d in PID_D)


class QuadInt:
    """Element a + b*omega of the ring of integers of Q(sqrt(d)).

    Internally also exposed as (p + q*sqrt(d))/2 with integers p, q.
    """

    __slots__ = ("field", "a", "b")

    def __init__(self, fld: FieldDesc, a: int, b: int = 0):
        self.field = fld
        self.a = a
        self.b = b

    # -- half-integer coordinates ------------------------------------------
    @property
    def p(self) -> int:
        return 2 * self.a + self.b if self.field.half else 2 * self.a

    @property
    def q(self) -> int:
        return self.b if self.field.half else 2 * self.b

    @classmethod
    def from_pq(cls, fld: FieldDesc, p: int, q: int) -> "QuadInt":
        if fld.half:
            if (p - q) % 2:
                raise ValueError("p and q must have equal parity")
            return cls(fld, (p - q) // 2, q)
        if p % 2 or q % 2:
            raise ValueError("p and q must be even")
        return cls(fld, p // 2, q // 2)

    # -- ring structure -----------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QuadInt(self.field, self.a + other.a, self.b + other.b)

    def __neg__(self):
        return QuadInt(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        k, t = self.field.omega_square
        return QuadInt(self.field, a1 * a2 + k * b1 * b2,
                       a1 * b2 + a2 * b1 + t * b1 * b2)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers leave the ring")
        out = QuadInt(self.field, 1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, QuadInt):
            if other.field.d != self.field.d:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return QuadInt(self.field, other, 0)
        return NotImplemented

    # -- Galois action ------------------------------------------------------
    def conj(self) -> "QuadInt":
        if self.field.half:
            return QuadInt(self.field, self.a + self.b, -self.b)
        return QuadInt(self.field, self.a, -self.b)

    def norm(self) -> int:
        p, q = self.p, self.q
        return (p * p - self.field.d * q * q) // 4

    # -- order and embeddings ----------------------------------------------
    def sign(self) -> int:
        return quad_sign(self.p, self.q, self.field.d)

    def as_pair(self) -> tuple[Fraction, Fraction]:
        """(A, B) with self = A + B*sqrt(d) under the identity embedding."""
        return Fraction(self.p, 2), Fraction(self.q, 2)

    def __float__(self) -> float:
        return (self.p + self.q * math.sqrt(self.field.d)) / 2

    def conj_float(self) -> float:
        return (self.p - self.q * math.sqrt(self.field.d)) / 2

    def compare(self, other) -> int:
        """Exact sign of self - other; other may be QuadInt, int or Fraction."""
        if isinstance(other, QuadInt):
            return quad_sign(self.p - other.p, self.q - other.q, self.field.d)
        r = Fraction(other)
        return quad_sign(Fraction(self.p, 2) - r, Fraction(self.q, 2),
                         self.field.d)

    def __eq__(self, other):
        if isinstance(other, QuadInt):
            return (self.field.d == other.field.d and self.a == other.a
                    and self.b == other.b)
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        return hash((self.field.d, self.a, self.b))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __bool__(self):
        return bool(self.a or self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"QuadInt(d={self.field.d}, {self.a} + {self.b}*omega)"


# ---------------------------------------------------------------------------
# Units


@lru_cache(maxsize=None)
def fundamental_unit(fld: FieldDesc) -> QuadInt:
    """Smallest unit > 1, read off the continued fraction of omega.

    Write omega = (P + sqrt d)/Q with (P, Q) = (1, 2) when d = 1 mod 4 and
    (0, 1) otherwise.  Each step takes a = floor((P + sqrt d)/Q), which is
    (P + isqrt d) // Q since Q > 0 (from the second step on every complete
    quotient is reduced), then P' = aQ - P and Q' = (d - P'^2)/Q, an exact
    division.  The first convergent h/k with N(h - k*omega) = +-1 gives
    the unit h - k*sigma(omega) > 1, and it is the smallest one (Cohen,
    GTM 138, 5.7).  The tests compare it with a scan of (p + q*sqrt d)/2
    by growing q on every field.
    """
    d, r = fld.d, isqrt(fld.d)
    P, Q = (1, 2) if fld.half else (0, 1)
    conj_omega = fld.omega.conj()
    h, h_prev, k, k_prev = 1, 0, 0, 1
    while True:
        a = (P + r) // Q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        unit = h - k * conj_omega
        if abs(unit.norm()) == 1:
            return unit
        P = a * Q - P
        Q, rem = divmod(d - P * P, Q)
        if rem:
            raise ArithmeticError(
                f"continued fraction of omega in Q(sqrt({d})): "
                f"Q does not divide d - P^2")


# ---------------------------------------------------------------------------
# Ideal norms from 2x2 minors, divisibility by g

# Both take omega-coordinates axis first, as regions' contains_exact does:
# x_i = A[i] + B[i]*omega, with A[i], B[i] Python ints for one point or
# integer arrays of one shape for a set of points.


def ideal_norms(fld: FieldDesc, A, B):
    """Per point, the norm of the ideal generated by its coordinates x_i;
    0 for the zero point.

    The ideal is the Z-module spanned by the x_i and omega*x_i, and its
    norm is its index in O_K = Z + Z*omega: the gcd of the 2x2 minors of
    the 2k x 2 coordinate matrix of those vectors (Cohen, GTM 138, 2.4)."""
    k, t = fld.omega_square
    # omega*(a + b*omega) = k*b + (a + t*b)*omega; a itself when t = 0
    U = [*A, *(int_lin([(k, b)]) for b in B)]
    V = [*B, *(int_lin([(1, a), (t, b)]) if t else a for a, b in zip(A, B))]
    gcd_of = np.gcd if isinstance(U[0], np.ndarray) else gcd
    norms = 0
    for j in range(len(U)):  # one minor at a time bounds peak memory
        for l in range(j + 1, len(U)):
            norms = gcd_of(norms, int_lin([(1, int_mul(U[j], V[l])),
                                           (-1, int_mul(U[l], V[j]))]))
    return norms


def divisible_by(g: QuadInt, A, B):
    """Whether g != 0 divides every coordinate x_i: each x_i*sigma(g) must
    be |N(g)| times an integer of O_K, so both its omega-coordinates must
    be divisible by |N(g)|."""
    (k, t), s, n = g.field.omega_square, g.conj(), abs(g.norm())
    ok = True
    for a, b in zip(A, B):
        # (a + b*omega)*(s.a + s.b*omega) = za + zb*omega
        za = int_lin([(s.a, a), (k * s.b, b)])
        zb = int_lin([(s.b, a), (s.a + t * s.b, b)])
        ok &= (za % n == 0) & (zb % n == 0)
    return ok


def gcd_is_one(xs: list[QuadInt]) -> bool:
    """True iff the ideal generated by xs is the unit ideal; False when
    every x_i is zero."""
    return ideal_norms(xs[0].field, [x.a for x in xs],
                       [x.b for x in xs]) == 1


def omega_coords(fld: FieldDesc, P: np.ndarray,
                 Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with (P + Q*sqrt(d))/2 = A + B*omega, for integer arrays of
    points of O_K."""
    if fld.half:
        return int_lin([(1, P), (-1, Q)]) // 2, Q
    return P // 2, Q // 2


# No caller in the package; perfbench/tracer.py binds it by name.
def pair_ideal_norm(fld: FieldDesc, a1: int, b1: int, a2: int, b2: int) -> int:
    """Norm of the ideal (a1 + b1*omega, a2 + b2*omega)."""
    return ideal_norms(fld, [a1, a2], [b1, b2])


# ---------------------------------------------------------------------------
# Splitting of rational primes, Moebius


def kronecker_symbol(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for positive n."""
    if n == 0:
        return 1 if D in (1, -1) else 0
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    # Jacobi symbol (D/n), n odd positive.
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def splitting_type(fld: FieldDesc, p: int) -> str:
    """'split', 'inert' or 'ramified' for the rational prime p."""
    k = kronecker_symbol(fld.disc, p)
    return {1: "split", -1: "inert", 0: "ramified"}[k]


def moebius(g: QuadInt) -> int:
    """Moebius function of the principal ideal (g), g != 0, from
    |N(g)| = prod p^k and the splitting of each p (Kronecker symbol).

    The p-part of (g) is P^k for p ramified (N(P) = p) and (p)^(k/2) for
    p inert; each is squarefree only as one prime.  For p split it is
    P^i * P'^(k-i): squarefree for k = 1, and for k = 2 only as
    P*P' = (p), that is when p divides g.  mu = (-1)^m over the m prime
    factors: 1 per ramified or inert p, k per split p."""
    m = 0
    for p, k in factorint(abs(g.norm())).items():
        typ = splitting_type(g.field, p)
        if typ == "split":
            if k >= 3 or (k == 2 and (g.a % p or g.b % p)):
                return 0
            m += k
        else:  # one prime: (p) with N((p)) = p^2, or P with N(P) = p
            if k > (2 if typ == "inert" else 1):
                return 0
            m += 1
    return -1 if m % 2 else 1


# ---------------------------------------------------------------------------
# Dedekind zeta


def _chi_period(fld: FieldDesc) -> np.ndarray:
    q = fld.disc
    return np.array([kronecker_symbol(q, n) if gcd(n, q) == 1 else 0
                     for n in range(q)], dtype=np.int64)


def _chi_partial_max(fld: FieldDesc) -> int:
    """Exact max of |sum_{n<=x} chi(n)|; partial sums are periodic."""
    chi = _chi_period(fld)
    q = fld.disc
    best = 0
    s = 0
    for n in range(1, q + 1):
        s += int(chi[n % q])
        best = max(best, abs(s))
    return best


def zeta_lseries(fld: FieldDesc, s: int, tol: float) -> tuple[float, float]:
    """zeta(s) * L(s, chi_disc) with the L-series summed directly and an
    Abel-summation tail bound."""
    M = _chi_partial_max(fld)
    zs = float(mpmath.zeta(s))
    N = max(100, int((2.0 * M * zs / tol) ** (1.0 / s)) + 1)
    if N > 50_000_000:
        raise TolTooTight(f"lseries would need {N} terms")
    chi = _chi_period(fld)
    n = np.arange(1, N + 1)
    L = float(np.sum(chi[n % fld.disc] / n.astype(np.float64) ** s))
    value = zs * L
    # Abel summation with |S(n) - S(N)| <= 2M bounds the L-tail by 2M/(N+1)^s.
    return value, 2 * M * zs * (N + 1) ** -s


def zeta_hurwitz(fld: FieldDesc, s: int) -> float:
    """zeta(s) * L(s, chi) via the Hurwitz-zeta decomposition of L;
    independent high-precision route."""
    q = fld.disc
    chi = _chi_period(fld)
    with mpmath.workdps(30):
        L = mpmath.mpf(0)
        for a in range(1, q + 1):
            ca = int(chi[a % q])
            if ca:
                L += ca * mpmath.zeta(s, mpmath.mpf(a) / q)
        L /= mpmath.mpf(q) ** s
        return float(mpmath.zeta(s) * L)


def _bernoulli(n: int) -> list[Fraction]:
    """B_0, ..., B_n (B_1 = -1/2) from sum_{k<=m} C(m+1, k) B_k = 0."""
    B = [Fraction(1)]
    for m in range(1, n + 1):
        B.append(-sum(math.comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
    return B


def zeta_bernoulli(fld: FieldDesc, s: int) -> Fraction:
    """zeta_K(1 - s) = (B_s/s) * (B_{s,chi}/s) for even s (Washington,
    GTM 83, Thm 4.2), B_{s,chi} = D^(s-1) sum_{a=1}^{D} chi(a) B_s(a/D)
    expanded as sum_k C(s, k) B_k D^(k-1) sum_a chi(a) a^(s-k)."""
    D = fld.disc
    B = _bernoulli(s)
    chi = _chi_period(fld)
    power_sums = [sum(int(chi[a % D]) * a ** j for a in range(1, D + 1))
                  for j in range(s + 1)]
    B_chi = sum(math.comb(s, k) * B[k] * Fraction(D) ** (k - 1)
                * power_sums[s - k] for k in range(s + 1))
    return B[s] / s * B_chi / s


def zeta_siegel(fld: FieldDesc, s: int) -> Fraction:
    """zeta_K(1 - s) = (-B_{2s}/s) * sum sigma_{s-1}((D - b^2)/4) over
    b^2 < D, b = D mod 2, for s = 2 and 4, where the weight-2s modular
    forms of SL_2(Z) are one-dimensional (Siegel 1969; Zagier 1976)."""
    D, k = fld.disc, s - 1
    total = 0
    for b in range(-isqrt(D), isqrt(D) + 1):
        if (D - b) % 2 == 0:
            total += math.prod((p ** (k * (e + 1)) - 1) // (p ** k - 1)
                               for p, e in factorint((D - b * b) // 4).items())
    return -_bernoulli(2 * s)[2 * s] / s * total


# dedekind_zeta_highprec takes s = 2 and 4 from the two exact routes
# (Washington, GTM 83, Thm 4.2; Siegel 1969, Zagier 1976); at every other s
# it sums the L-series until its tail bound is at most ZETA_TOL / 10.
ZETA_TOL = 1e-9


def dedekind_zeta_highprec(fld: FieldDesc, s: int) -> float:
    """zeta_K(s).  For s = 2 and 4: the rational zeta_K(1 - s), equal by
    zeta_bernoulli and zeta_siegel, through the functional equation
    zeta_K(s) = zeta_K(1 - s) (2 pi)^(2s) sqrt(D) / (4 D^s ((s-1)!)^2),
    rounded from 40 digits.  Otherwise the Hurwitz route's value, checked
    against the directly summed L-series: they must agree to that series'
    certified tail bound plus 2^-40 relative for its float summation."""
    if s in (2, 4):
        r, r_siegel = zeta_bernoulli(fld, s), zeta_siegel(fld, s)
        if r != r_siegel:
            raise ArithmeticError(
                f"zeta exact routes disagree: {r} vs {r_siegel}")
        D = fld.disc
        with mpmath.workdps(40):
            return float(mpmath.mpf(r.numerator) / r.denominator
                         * (2 * mpmath.pi) ** (2 * s) * mpmath.sqrt(D)
                         / (4 * D ** s * math.factorial(s - 1) ** 2))
    v1, e1 = zeta_lseries(fld, s, ZETA_TOL * 0.1)
    v2 = zeta_hurwitz(fld, s)
    if abs(v1 - v2) > e1 + 2.0 ** -40 * abs(v2):
        raise ArithmeticError(f"zeta high-precision routes disagree: {v1} vs {v2}")
    return v2


# No caller in the package; perfbench/tracer.py binds it by name.
def dedekind_zeta(fld: FieldDesc, s: int) -> float:
    return dedekind_zeta_highprec(fld, s)


# ---------------------------------------------------------------------------
# Box enumeration in the Minkowski embedding


def as_scalar(x) -> tuple[Fraction, Fraction]:
    """Coerce a bound (int, Fraction, (A, B) pair or QuadInt) to
    (A, B) = A + B*sqrt(d)."""
    if isinstance(x, QuadInt):
        return x.as_pair()
    if isinstance(x, tuple):
        return x
    return Fraction(x), Fraction(0)


def iter_ring_box(fld: FieldDesc, x_lo, x_hi, y_lo, y_hi,
                  x_lo_open: bool = False, x_hi_open: bool = False):
    """Yield ring elements whose embeddings (x, sigma(x)) lie in the box,
    in ascending order of trace; the sigma(x) bounds are closed.  Bounds
    may be rational, (A, B) pairs or QuadInt; all membership decisions are
    exact, in integers."""
    d = fld.d
    # each bound as (a + b*sqrt(d))/L, over one common denominator L
    (xla, xlb, xha, xhb, yla, ylb, yha, yhb), L = over_common_den(
        [c for bound in (x_lo, x_hi, y_lo, y_hi) for c in as_scalar(bound)])
    if quad_sign(xha - xla, xhb - xlb, d) < 0 or \
            quad_sign(yha - yla, yhb - ylb, d) < 0:
        return
    # x = (p + q*sqrt(d))/2: p = x + sigma(x), q*sqrt(d) = x - sigma(x)
    p_lo = -floor_quad(-xla - yla, -xlb - ylb, L, d)
    p_hi = floor_quad(xha + yha, xhb + yhb, L, d)

    def q_min(a, b, is_open):
        """Least integer q >= (a + b*sqrt(d))/(L*d), or > on an open side."""
        if is_open:
            return floor_quad(a, b, L * d, d) + 1
        return -floor_quad(-a, -b, L * d, d)

    # q = p (mod 2), and p is even unless d = 1 (mod 4)
    step = 1 if fld.half else 2
    for p in range(p_lo + p_lo % step, p_hi + 1, step):
        # Each side is one bound on q at this p, e.g. x >= (a + b*sqrt(d))/L
        # iff q >= (2b*d + (2a - p*L)*sqrt(d))/(L*d); x <= x_hi and
        # sigma(x) >= y_lo bound -q from below.
        q_lo = max(q_min(2 * xlb * d, 2 * xla - p * L, x_lo_open),
                   q_min(-2 * yhb * d, p * L - 2 * yha, False))
        q_hi = -max(q_min(-2 * xhb * d, p * L - 2 * xha, x_hi_open),
                    q_min(2 * ylb * d, 2 * yla - p * L, False))
        for q in range(q_lo + (q_lo - p) % 2, q_hi + 1, 2):
            yield QuadInt.from_pq(fld, p, q)


def ring_box_size(fld: FieldDesc, x_lo, x_hi, y_lo, y_hi) -> int:
    """An upper bound on the (p, q) pairs iter_ring_box walks for the box
    (bounds as there): p = x + sigma(x) and q*sqrt(d) = x - sigma(x) each
    range over an interval as wide as w, the sum of the box's two widths,
    so p takes at most floor(w) + 1 values and q floor(w/sqrt(d)) + 1."""
    d = fld.d
    w = [hi - lo for lohi in ((x_lo, x_hi), (y_lo, y_hi))
         for lo, hi in zip(*map(as_scalar, lohi))]
    (a, b), L = over_common_den([w[0] + w[2], w[1] + w[3]])
    # w = (a + b*sqrt(d))/L and w/sqrt(d) = (b*d + a*sqrt(d))/(L*d)
    return (max(floor_quad(a, b, L, d) + 1, 0)
            * max(floor_quad(b * d, a, L * d, d) + 1, 0))


def hammarhjelm_witness(fld: FieldDesc) -> QuadInt | None:
    """First ring element in the open-x box (1, lambda) x [-1, 1], or None."""
    if not fld.is_pid:
        raise NotPID(f"d={fld.d} is not in the PID table")
    lam = fundamental_unit(fld)
    for x in iter_ring_box(fld, 1, lam, -1, 1,
                           x_lo_open=True, x_hi_open=True):
        return x
    return None


@lru_cache(maxsize=None)
def check_hammarhjelm(fld: FieldDesc) -> bool:
    """True iff the Minkowski lattice misses (1, lambda) x [-1, 1]."""
    return hammarhjelm_witness(fld) is None
