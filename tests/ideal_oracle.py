"""Ideal arithmetic in Hermite normal form: the independent route that the
tests check the package's norm-based integer arithmetic against.

An integral ideal of O_K = Z + Z*omega is kept as the Z-module with basis
a and b + c*omega.  Generators, products, conjugates, prime ideals by
Dedekind-Kummer, factorization by repeated division, the ideal Moebius
function and ideal counts all work on that form, with no norm shortcut."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from quasivis.quadfield import FieldDesc, QuadInt, factorint, splitting_type


class AllZero(ValueError):
    """Every supplied generator was zero."""


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    return old_r, old_s, old_t


def _hnf2(vecs: list[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF (a, b, c) of the Z-module spanned by vectors u + v*omega.

    Columns are (a, 0) and (b, c) with 0 <= b < a, i.e. generators a and
    b + c*omega over Z.
    """
    vg = 0
    ug = 0
    firsts = []
    for u, v in vecs:
        if v == 0:
            if u:
                firsts.append(u)
            continue
        if vg == 0:
            vg, ug = v, u
            continue
        g, s, t = _extgcd(vg, v)
        u_new = s * ug + t * u
        firsts.append(u - (v // g) * u_new)
        firsts.append(ug - (vg // g) * u_new)
        vg, ug = g, u_new
    if vg < 0:
        vg, ug = -vg, -ug
    a = 0
    for u in firsts:
        a = gcd(a, u)
    if a:
        ug %= a
    return a, ug, vg


@dataclass(frozen=True)
class IdealHNF:
    """Integral ideal as the Z-module with basis a and b + c*omega."""

    field: FieldDesc
    a: int
    b: int
    c: int

    def norm(self) -> int:
        return self.a * self.c

    def contains(self, x: QuadInt) -> bool:
        if self.c == 0:
            return not x
        if x.b % self.c:
            return False
        return (x.a - (x.b // self.c) * self.b) % self.a == 0

    def basis(self) -> tuple[QuadInt, QuadInt]:
        return (QuadInt(self.field, self.a, 0),
                QuadInt(self.field, self.b, self.c))

    def __mul__(self, other: "IdealHNF") -> "IdealHNF":
        vecs = []
        for e in self.basis():
            for f in other.basis():
                z = e * f
                vecs.append((z.a, z.b))
        return IdealHNF(self.field, *_hnf2(vecs))

    def conj(self) -> "IdealHNF":
        vecs = [(z.a, z.b) for z in (e.conj() for e in self.basis())]
        return IdealHNF(self.field, *_hnf2(vecs))

    def contains_ideal(self, other: "IdealHNF") -> bool:
        return all(self.contains(e) for e in other.basis())

    def divide(self, prime: "IdealHNF") -> "IdealHNF":
        """self / prime, assuming prime | self (i.e. self subset prime)."""
        if not prime.contains_ideal(self):
            raise ValueError("ideal does not divide")
        prod = self * prime.conj()
        n = prime.norm()
        if prod.a % n or prod.b % n or prod.c % n:
            raise ArithmeticError("inexact ideal division")
        return IdealHNF(self.field, prod.a // n, (prod.b // n) % (prod.a // n)
                        if prod.a // n else 0, prod.c // n)


def ideal_from_generators(xs: list[QuadInt]) -> IdealHNF:
    """HNF of the ideal generated by xs (module closure under omega)."""
    xs = [x for x in xs if x]
    if not xs:
        raise AllZero("all generators are zero")
    fld = xs[0].field
    omega = fld.omega
    vecs = []
    for x in xs:
        vecs.append((x.a, x.b))
        z = omega * x
        vecs.append((z.a, z.b))
    return IdealHNF(fld, *_hnf2(vecs))


def principal_ideal(x: QuadInt) -> IdealHNF:
    return ideal_from_generators([x])


def primes_above(fld: FieldDesc, p: int) -> list[IdealHNF]:
    """Prime ideals of the ring of integers above the rational prime p.

    Dedekind-Kummer: omega is a root of x^2 - tr*x + nm, and each root r of
    it mod p gives the prime (p, omega - r); with no root, p is inert."""
    tr, nm = fld.omega.trace(), fld.omega.norm()
    roots = [r for r in range(p) if (r * r - tr * r + nm) % p == 0]
    if not roots:
        return [principal_ideal(QuadInt(fld, p))]
    out = [ideal_from_generators([QuadInt(fld, p), QuadInt(fld, -r, 1)])
           for r in roots]
    assert all(P.norm() == p for P in out)
    return out


class IdealFactorization:
    """Factorization of an ideal into prime-ideal powers."""

    def __init__(self, fld: FieldDesc, factors: list[tuple[IdealHNF, int]]):
        self.field = fld
        self.factors = factors

    def product(self) -> IdealHNF:
        out = IdealHNF(self.field, 1, 0, 1)
        for P, e in self.factors:
            for _ in range(e):
                out = out * P
        return out

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)


def factor_ideal(I: IdealHNF) -> IdealFactorization:
    n = I.norm()
    if n < 1:
        raise ValueError("zero ideal")
    factors = []
    current = I
    for p in sorted(factorint(n)):
        for P in primes_above(I.field, p):
            e = 0
            while P.contains_ideal(current):
                current = current.divide(P)
                e += 1
            if e:
                factors.append((P, e))
    assert current.norm() == 1
    return IdealFactorization(I.field, factors)


def ideal_moebius(I: IdealHNF) -> int:
    """Moebius function of the ideal I from its prime-ideal factorization."""
    fac = factor_ideal(I)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def count_ideals_of_norm(fld: FieldDesc, n: int) -> int:
    """H_n, via multiplicativity over the splitting of rational primes."""
    out = 1
    for p, k in factorint(n).items():
        typ = splitting_type(fld, p)
        if typ == "split":
            out *= k + 1
        elif typ == "inert" and k % 2:
            return 0
        # ramified contributes a single ideal per power
    return out


def count_ideals_of_norm_slow(fld: FieldDesc, n: int) -> int:
    """Enumerate all HNF modules [[a,b],[0,c]] with a*c = n that are closed
    under multiplication by omega."""
    count = 0
    for c in range(1, n + 1):
        if n % c:
            continue
        a = n // c
        for b in range(a):
            I = IdealHNF(fld, a, b, c)
            if all(I.contains(fld.omega * e) for e in I.basis()):
                count += 1
    return count
