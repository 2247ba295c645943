"""The square-class readers of ``gkinv.padic`` as they were before every
classifier read ``padic._class_bits``, kept verbatim as references:
``_unit_class`` reads p^v·u off an int or a Fraction's numerator·denominator,
``hilbert_symbol`` takes the closed form on v mod 2 and u (eps and omega off
u mod 8 at p = 2, Legendre ``pow`` at odd p), and ``quad_ext`` and
``xi_code`` classify Q_p(sqrt(xi)) on the same pair.  The helpers they call,
which did not change, come from ``gkinv.padic``; the tests compare the
library's symbol and signs with these."""

from fractions import Fraction

from gkinv.padic import (
    INERT,
    RAMIFIED,
    SPLIT,
    PrimeContext,
    QuadExtKind,
    Rational,
    _disc_ideal_ord,
    _int_valuation,
)


def _unit_class(x: Rational, p: int, at_zero: str) -> tuple[int, int]:
    """(v, u), u an integer prime to p, with p^v·u in the square class of x:
    x is read as numerator·denominator, x times its denominator squared
    (Serre, ch. III).  So v is ord x only mod 2, and ``valuation`` stays the
    order.  An int prime to p is its own class, (0, x).  x = 0 raises
    ValueError(at_zero)."""
    if type(x) is not int:
        x = Fraction(x)
        x = x.numerator * x.denominator
    elif x % p:
        return 0, x
    if not x:
        raise ValueError(at_zero)
    v = _int_valuation(x, p)
    return v, x // p**v


def _is_square_unit(u: int, p: int) -> bool:
    """True iff the integer u, prime to p, is a square in Z_p."""
    return u % 8 == 1 if p == 2 else pow(u, (p - 1) // 2, p) == 1


def hilbert_symbol(a: Rational, b: Rational, ctx: PrimeContext) -> int:
    """Local Hilbert symbol: +1 iff z^2 = a x^2 + b y^2 has a nonzero solution.

    The symbol depends only on the square classes of a and b, read as
    p^alpha·u and p^beta·v (Serre, ch. III)."""
    p = ctx.p
    alpha, u = _unit_class(a, p, "Hilbert symbol needs nonzero arguments")
    beta, v = _unit_class(b, p, "Hilbert symbol needs nonzero arguments")
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


def quad_ext(xi: Rational, ctx: PrimeContext) -> QuadExtKind:
    """Classify the quadratic algebra Q_p(sqrt(xi)) and its discriminant order."""
    v, u = _unit_class(xi, ctx.p, "quad_ext is undefined at 0")
    if v % 2 == 0 and _is_square_unit(u, ctx.p):
        return QuadExtKind(SPLIT, 0)
    d = _disc_ideal_ord(v, u, ctx.p)
    return QuadExtKind(RAMIFIED if d else INERT, d)


def xi_code(xi: Rational, ctx: PrimeContext) -> int:
    """1 / -1 / 0 according as Q_p(sqrt(xi)) is split / inert / ramified."""
    return {SPLIT: 1, INERT: -1, RAMIFIED: 0}[quad_ext(xi, ctx).kind]
