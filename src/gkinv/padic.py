"""Exact scalar arithmetic over Q_p: valuations, squares, Hilbert symbols.

Scalars are ints or `fractions.Fraction` values.  A rational number
determines an element of Q_p, and the classifications implemented here
(square classes, Hilbert symbols, quadratic extension discriminants) read
only its square class, so exact rationals remove precision management.  One
reader, ``_class_bits``, takes that class to its coordinates over F_2, and a
Fraction is read as the int numerator·denominator, of the same class; the
Hilbert symbol is then one lookup in the table of ``_hilbert_form``.  ord(0)
is +infinity, encoded as ``math.inf`` so that it orders above every integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

INF = math.inf

SPLIT = "split"
INERT = "inert"
RAMIFIED = "ramified"

Rational = Fraction | int


# Miller-Rabin on the primes up to 41 is deterministic below MAX_PRIME, the
# least strong pseudoprime to all of these bases (Sorenson and Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < MAX_PRIME."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeContext:
    """The base field Q_p, p an int prime.  ``e`` is ord(2): 1 if p = 2, else 0."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int):
            raise ValueError(f"p must be an int, got {self.p!r}")
        if self.p >= MAX_PRIME:
            raise ValueError(f"p must be below {MAX_PRIME}, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    @property
    def e(self) -> int:
        return 1 if self.p == 2 else 0


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p == 2:
        # n & -n keeps the lowest set bit, in two's complement for n < 0 too
        return (n & -n).bit_length() - 1
    # strip the largest p^(2^i) that divides n until p does not: about
    # (log v)^2 divisions for order v, not v of them
    v = 0
    while n % p == 0:
        q, w = p, 1
        while n % (q * q) == 0:
            q, w = q * q, 2 * w
        n //= q
        v += w
    return v


def valuation(x: Rational, ctx: PrimeContext) -> int | float:
    """p-adic order of x; +inf for x = 0."""
    if type(x) is int:
        return _int_valuation(x, ctx.p) if x else INF
    if type(x) is not Fraction:
        x = Fraction(x)
    if not x.numerator:
        return INF
    return _int_valuation(x.numerator, ctx.p) - _int_valuation(x.denominator, ctx.p)


def unit_part(x: Rational, ctx: PrimeContext) -> Fraction:
    """x / p^ord(x), a p-adic unit.  Rejects x = 0."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no unit part")
    v = valuation(x, ctx)
    return x / Fraction(ctx.p) ** v


def frac_mod(x: Rational, modulus: int, ctx: PrimeContext) -> int:
    """x mod p^k for p-integral x, with the denominator inverted mod p^k."""
    x = Fraction(x)
    if x.denominator % ctx.p == 0:
        raise ValueError(f"{x} is not p-integral at p={ctx.p}")
    inv = pow(x.denominator % modulus, -1, modulus)
    return (x.numerator * inv) % modulus


# Q_p^x / Q_p^x² is a vector space over F_2, of dimension 3 at p = 2 and 2 at
# odd p, and the Hilbert symbol is a symmetric bilinear form on it (Serre,
# ch. III, Thm 1-2).  ``_class_bits`` gives the coordinates of p^v·u: bit 0 is
# v mod 2; at p = 2, bits 1 and 2 are eps(u) and omega(u), read off u mod 8; at
# odd p, bit 1 is set iff u is not a square mod p.  Indexed by u mod 8:
_DYADIC_UNIT_BITS = (0, 0, 0, 0b110, 0, 0b100, 0, 0b010)


def _class_bits(x: int, p: int) -> int:
    """The coordinates over F_2 of the square class of the non-zero int x:
    one read of its order and, at odd p, one ``pow`` for its unit's Legendre bit."""
    if p == 2:
        v = (x & -x).bit_length() - 1
        return v & 1 | _DYADIC_UNIT_BITS[x >> v & 7]
    if x % p:
        return (pow(x, p >> 1, p) != 1) << 1
    v = _int_valuation(x, p)
    return v & 1 | (pow(x // p**v, p >> 1, p) != 1) << 1


def _class_int(x: Rational, at_zero: str) -> int:
    """An int of the square class of x, for ``_class_bits``: an int as it is, a
    Fraction as numerator·denominator, x times its denominator squared (Serre,
    ch. III).  x = 0 raises ValueError(at_zero)."""
    if type(x) is not int:
        x = Fraction(x)
        x = x.numerator * x.denominator
    if not x:
        raise ValueError(at_zero)
    return x


def _hilbert_bits(a: int, b: int, p: int) -> int:
    """The Hilbert symbol as the bilinear form: (x, y)_p = (-1)^_hilbert_bits(a, b, p)
    for the classes a and b of x and y.  At p = 2 it is eps·eps' + alpha·omega'
    + alpha'·omega; at odd p, alpha·alpha'·eps(p) + alpha·lambda' + alpha'·lambda,
    with eps(p) = (p - 1)/2 mod 2, so an odd p enters only as p mod 4."""
    if p == 2:
        return (a >> 1 & b >> 1 ^ a & b >> 2 ^ b & a >> 2) & 1
    return (a & b & p >> 1 ^ a & b >> 1 ^ b & a >> 1) & 1


# (table, minus) at p = 2 and at odd p = 1 and 3 mod 4, the keys p mod 4:
# table[a][b] = _hilbert_bits(a, b, p) for every pair of classes, and minus the
# class of -1
_HILBERT_FORMS = {
    q & 3: (tuple(tuple(_hilbert_bits(a, b, q) for b in range(8)) for a in range(8)),
            _class_bits(-1, q))
    for q in (2, 5, 3)
}


def _hilbert_form(p: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(table, minus) for the prime p: see ``_HILBERT_FORMS``."""
    return _HILBERT_FORMS[p & 3]


def legendre(u: Rational, ctx: PrimeContext) -> int:
    """Legendre symbol of a p-adic unit, p odd."""
    p = ctx.p
    if p == 2:
        raise ValueError("Legendre symbol needs p odd")
    x = _class_int(u, "input is not a unit")
    if x % p == 0:
        if valuation(u, ctx) < 0:
            raise ValueError(f"{Fraction(u)} is not p-integral at p={p}")
        raise ValueError("input is not a unit")
    return -1 if _class_bits(x, p) else 1


def is_square(x: Rational, ctx: PrimeContext) -> bool:
    """True iff x is a square in Q_p^x, its class 0.  Rejects x = 0."""
    return not _class_bits(_class_int(x, "is_square is undefined at 0"), ctx.p)


def hilbert_symbol(a: Rational, b: Rational, ctx: PrimeContext) -> int:
    """Local Hilbert symbol: +1 iff z^2 = a x^2 + b y^2 has a nonzero solution;
    the bilinear form of ``_hilbert_form`` on the square classes of a and b."""
    p, at_zero = ctx.p, "Hilbert symbol needs nonzero arguments"
    a, b = _class_bits(_class_int(a, at_zero), p), _class_bits(_class_int(b, at_zero), p)
    return 1 - 2 * _hilbert_form(p)[0][a][b]


@dataclass(frozen=True)
class QuadExtKind:
    """Shape of F(sqrt(xi))/F: split, inert (unramified quadratic) or ramified;
    ``d`` is the order of the discriminant ideal."""

    kind: str
    d: int


def _disc_ideal_ord(v: int, u: int, p: int) -> int:
    """The order of the discriminant ideal of Q_p(sqrt(p^v·u)), u an integer
    prime to p: at odd p the parity of v; at p = 2, 3 for an odd v, else 0 or
    2 as u is 1 or 3 mod 4.  u is read only at p = 2."""
    if p != 2:
        return v % 2
    if v % 2:
        return 3
    return 0 if u % 4 == 1 else 2


def quad_ext(xi: Rational, ctx: PrimeContext) -> QuadExtKind:
    """Classify the quadratic algebra Q_p(sqrt(xi)) and its discriminant order:
    split on the class 0, else the order read off the class's bits 0 and 1."""
    c = _class_bits(_class_int(xi, "quad_ext is undefined at 0"), ctx.p)
    if not c:
        return QuadExtKind(SPLIT, 0)
    d = _disc_ideal_ord(c & 1, c & 2 | 1, ctx.p)
    return QuadExtKind(RAMIFIED if d else INERT, d)


def xi_code(xi: Rational, ctx: PrimeContext) -> int:
    """1 / -1 / 0 according as Q_p(sqrt(xi)) is split / inert / ramified."""
    return {SPLIT: 1, INERT: -1, RAMIFIED: 0}[quad_ext(xi, ctx).kind]


def nonsquare_unit(ctx: PrimeContext) -> int:
    """The least integer that is a non-square unit of Z_p, p odd."""
    u = 2
    while legendre(u, ctx) == 1:
        u += 1
    return u


def square_class_reps(ctx: PrimeContext) -> tuple[Fraction, ...]:
    """Fixed representatives of Q_p^x modulo squares."""
    if ctx.p == 2:
        return tuple(Fraction(t) for t in (1, -1, 2, -2, 5, -5, 10, -10))
    u = nonsquare_unit(ctx)
    return tuple(Fraction(t) for t in (1, u, ctx.p, u * ctx.p))


def zpow(z: int, k: int) -> int:
    """z^k for z in {0, 1, -1}: exponents act through their parity on signs."""
    if k == 0:
        return 1
    if z == 0:
        return 0
    return 1 if k % 2 == 0 else z
