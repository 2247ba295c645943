"""Exact scalar arithmetic over Q_p: valuations, squares, Hilbert symbols.

Scalars are `fractions.Fraction` values throughout.  A rational number
determines an element of Q_p, and every classification implemented here
(square classes, Hilbert symbols, quadratic extension discriminants)
depends on only finitely many p-adic digits, so exact rationals remove
precision management entirely.  ord(0) is +infinity, encoded as
``math.inf`` so that it orders above every integer.
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
    """The base field Q_p.  ``e`` is ord(2): 1 in the dyadic case, else 0."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= MAX_PRIME:
            raise ValueError(f"p must be below {MAX_PRIME}, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")

    @property
    def e(self) -> int:
        return 1 if self.p == 2 else 0

    @property
    def dyadic(self) -> bool:
        return self.p == 2


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p == 2:
        # n & -n keeps the lowest set bit, in two's complement for n < 0 too
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
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


def legendre(u: Rational, ctx: PrimeContext) -> int:
    """Legendre symbol of a p-adic unit, p odd."""
    if ctx.p == 2:
        raise ValueError("Legendre symbol needs p odd")
    r = frac_mod(u, ctx.p, ctx)
    if r == 0:
        raise ValueError("input is not a unit")
    return 1 if pow(r, (ctx.p - 1) // 2, ctx.p) == 1 else -1


def is_square(x: Rational, ctx: PrimeContext) -> bool:
    """True iff x is a square in Q_p^x.  Rejects x = 0."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("is_square is undefined at 0")
    v = valuation(x, ctx)
    if v % 2 != 0:
        return False
    u = unit_part(x, ctx)
    if ctx.p == 2:
        return frac_mod(u, 8, ctx) == 1
    return legendre(u, ctx) == 1


def _square_class_int(x: Rational) -> int:
    """An integer in the square class of x: numerator·denominator, which is
    x times the square of its denominator."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator * x.denominator


def hilbert_symbol(a: Rational, b: Rational, ctx: PrimeContext) -> int:
    """Local Hilbert symbol: +1 iff z^2 = a x^2 + b y^2 has a nonzero solution.

    The symbol depends only on the square classes of a and b, so a Fraction
    argument is replaced by the integer numerator·denominator and both are
    read as p^alpha·u with u an integer prime to p (Serre, ch. III)."""
    a, b = _square_class_int(a), _square_class_int(b)
    if not a or not b:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    p = ctx.p
    alpha = _int_valuation(a, p)
    beta = _int_valuation(b, p)
    u, v = a // p**alpha, b // p**beta
    alpha, beta = alpha % 2, beta % 2
    if p == 2:
        um, vm = u % 8, v % 8
        eps_u, eps_v = (um - 1) // 2 % 2, (vm - 1) // 2 % 2
        om_u, om_v = (um * um - 1) // 8 % 2, (vm * vm - 1) // 8 % 2
        exp = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if exp % 2 else 1
    half = (p - 1) // 2
    sign = 1
    if alpha and beta and half % 2:  # (-1 / p) = -1 iff p = 3 mod 4
        sign = -sign
    if beta and pow(u, half, p) != 1:
        sign = -sign
    if alpha and pow(v, half, p) != 1:
        sign = -sign
    return sign


@dataclass(frozen=True)
class QuadExtKind:
    """Shape of F(sqrt(xi))/F: split, inert (unramified quadratic) or ramified;
    ``d`` is the order of the discriminant ideal."""

    kind: str
    d: int


def quad_ext(xi: Rational, ctx: PrimeContext) -> QuadExtKind:
    """Classify the quadratic algebra Q_p(sqrt(xi)) and its discriminant order."""
    xi = Fraction(xi)
    if xi == 0:
        raise ValueError("quad_ext is undefined at 0")
    if is_square(xi, ctx):
        return QuadExtKind(SPLIT, 0)
    v = valuation(xi, ctx) % 2
    if ctx.p != 2:
        if v:
            return QuadExtKind(RAMIFIED, 1)
        return QuadExtKind(INERT, 0)
    if v:
        return QuadExtKind(RAMIFIED, 3)
    um = frac_mod(unit_part(xi, ctx), 8, ctx)
    if um == 5:
        return QuadExtKind(INERT, 0)
    return QuadExtKind(RAMIFIED, 2)  # unit part 3 or 7 mod 8


def xi_code(xi: Rational, ctx: PrimeContext) -> int:
    """1 / -1 / 0 according as Q_p(sqrt(xi)) is split / inert / ramified."""
    kind = quad_ext(xi, ctx).kind
    if kind == SPLIT:
        return 1
    if kind == INERT:
        return -1
    return 0


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
