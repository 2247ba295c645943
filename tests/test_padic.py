import random
from fractions import Fraction

import pytest

from gkinv.oracle import hilbert_brute
from gkinv.padic import (
    _class_bits,
    _class_int,
    _int_valuation,
    INERT,
    INF,
    MAX_PRIME,
    RAMIFIED,
    SPLIT,
    PrimeContext,
    QuadExtKind,
    frac_mod,
    hilbert_symbol,
    is_square,
    legendre,
    quad_ext,
    square_class_reps,
    unit_part,
    valuation,
    xi_code,
)

CTX2 = PrimeContext(2)
CTX3 = PrimeContext(3)
CTX5 = PrimeContext(5)


def is_square_brute(x, ctx, digits=6):
    """Independent oracle: even valuation and a residue square root of the
    unit part mod p^digits (enough digits to decide the square class)."""
    v = valuation(x, ctx)
    if v % 2:
        return False
    u = unit_part(x, ctx)
    q = ctx.p**digits
    um = (u.numerator * pow(u.denominator, -1, q)) % q
    return any((y * y) % q == um for y in range(q))


def quad_ext_brute(xi, ctx):
    """Independent oracle for the discriminant order: minimize ord(4 y^2 xi)
    over integral elements x + y sqrt(xi) (trace and norm p-integral).

    Dividing xi by p^2 is an explicit square substitution, so stripping even
    prime powers first keeps the witness denominators small."""
    xi = Fraction(xi)
    while valuation(xi, ctx) >= 2:
        xi /= ctx.p**2
    while valuation(xi, ctx) <= -2:
        xi *= ctx.p**2
    best = None
    for a in range(-8, 9):
        for b in range(1, 9):
            x, y = Fraction(a, 2), Fraction(b, 2)
            if valuation(2 * x, ctx) < 0:
                continue
            if valuation(x * x - y * y * xi, ctx) < 0:
                continue
            d = valuation(4 * y * y * xi, ctx)
            if best is None or d < best:
                best = d
    return int(best)


def test_valuation_examples():
    assert valuation(12, CTX2) == 2
    assert valuation(Fraction(3, 4), CTX2) == -2
    assert valuation(0, CTX2) == INF
    assert valuation(0, CTX5) == INF
    assert valuation(0, CTX3) > 10**9  # sentinel orders above every integer


def loop_order(n, p):
    """ord_p(n) for an int n != 0, by repeated division."""
    v = 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def test_int_order_matches_repeated_division():
    """The lowest-set-bit order at p = 2, and the loop at odd p, on ints of
    both signs up to 4000 bits, with powers of p mixed in."""
    rng = random.Random("padic/int-order")
    values = [1, -1, 2, -2, 3, -96, 2**4000, -(2**3999), 5**1000 * 3]
    for _ in range(300):
        n = rng.getrandbits(rng.randint(1, 3800)) or 1
        n *= rng.choice((2, 3, 5)) ** rng.randint(0, 80)
        values.append(n if rng.random() < 0.5 else -n)
    for ctx in (CTX2, CTX3, CTX5):
        for n in values:
            assert valuation(n, ctx) == loop_order(n, ctx.p), (ctx.p, n)
            assert valuation(Fraction(3, n), ctx) == -loop_order(n, ctx.p) + (ctx.p == 3)
        assert valuation(0, ctx) is INF


def unit_class_by_order(x, p, at_zero):
    """``_unit_class`` as it was before ints prime to p took a fast path:
    every int pays ``_int_valuation`` and a division by p^v."""
    if type(x) is not int:
        x = Fraction(x)
        x = x.numerator * x.denominator
    if not x:
        raise ValueError(at_zero)
    v = _int_valuation(x, p)
    return v, x // p**v


def bits_of(v, u, p):
    """The coordinates of p^v·u by the closed forms: v mod 2, then eps(u) and
    omega(u) at p = 2, or u's Legendre bit at odd p."""
    if p == 2:
        return v % 2 | (u - 1) // 2 % 2 << 1 | (u * u - 1) // 8 % 2 << 2
    return v % 2 | (pow(u, (p - 1) // 2, p) != 1) << 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_unit_class_matches_the_order_path(p):
    """The one square-class reader, ``_class_bits`` on ``_class_int``: on
    random ints of both signs, ints prime to p among them, multiples of p and
    of powers of p, big ones and Fractions, the class equals the closed-form
    bits of the order path's (v, u), and 0 raises the caller's message."""
    rng = random.Random(f"padic/unit-class/{p}")
    values = [1, -1, p, -p, p * p - 1, 1 - p]
    for _ in range(2000):
        x = rng.randint(1, 10 ** rng.randint(1, 40)) * p ** rng.choice((0, 0, 1, 2, 7))
        values.append(x if rng.random() < 0.5 else -x)
    values += [Fraction(x, rng.randint(1, 50) * p ** rng.randint(0, 3)) for x in values[:200]]
    for x in values:
        want = bits_of(*unit_class_by_order(x, p, "zero"), p)
        assert _class_bits(_class_int(x, "zero"), p) == want, (p, x)
    assert sum(type(x) is int and x % p != 0 for x in values) > 300
    assert sum(type(x) is int and x % p == 0 for x in values) > 500
    for zero in (0, Fraction(0)):
        with pytest.raises(ValueError, match="^zero$"):
            _class_int(zero, "zero")


# the largest prime below MAX_PRIME
NEAR_MAX_PRIME = 3_317_044_064_679_887_385_961_813


@pytest.mark.parametrize("p", [3, 5, 7, 101, NEAR_MAX_PRIME])
def test_int_order_at_odd_p_matches_repeated_division(p):
    """The odd-p order strips p^(2^i) at a time; on ints ±p^v·unit of both
    signs, with orders v from 0 to 3,000, it gives v, and so does the loop
    that divides by p once per unit of order, up to 40,000 bits (past
    that the loop alone takes seconds at the largest p)."""
    ctx = PrimeContext(p)
    assert NEAR_MAX_PRIME < MAX_PRIME and PrimeContext(NEAR_MAX_PRIME)
    rng = random.Random(f"padic/odd-order/{p}")
    orders = list(range(130)) + list(range(130, 3000, 211)) + [2047, 2048, 3000]
    for v in orders:
        unit = rng.getrandbits(rng.randint(1, 200)) * p + rng.randrange(1, p)
        for n in (p**v * unit, -(p**v) * unit):
            assert valuation(n, ctx) == v, (p, n)
            if n.bit_length() <= 40_000:
                assert loop_order(n, p) == v, (p, n)


def test_is_square_examples():
    assert is_square_brute(9, CTX2)
    assert is_square(9, CTX2)
    assert not is_square_brute(5, CTX2)
    assert not is_square(5, CTX2)
    assert is_square(1, CTX2) and is_square(1, CTX3) and is_square(1, CTX5)
    with pytest.raises(ValueError):
        is_square(0, CTX2)


@pytest.mark.parametrize("ctx", [CTX2, CTX3, CTX5])
def test_is_square_matches_brute(ctx):
    for num in range(-20, 21):
        if num == 0:
            continue
        for den in (1, 2, 3):
            x = Fraction(num, den)
            assert is_square(x, ctx) == is_square_brute(x, ctx)


def test_hilbert_examples():
    for b in (1, -1, 2, 5, Fraction(3, 7)):
        assert hilbert_symbol(1, b, CTX2) == 1
    assert hilbert_symbol(-1, -1, CTX2) == -1
    assert hilbert_brute(-1, -1, CTX2) == -1
    # p odd, p against a non-residue unit
    assert hilbert_symbol(3, 2, CTX3) == -1
    assert hilbert_symbol(5, 2, CTX5) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, CTX2)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_hilbert_symbol_on_ints_and_fractions_matches_brute(p):
    """hilbert_symbol reads an int as it is and a Fraction through
    numerator·denominator; on square-class representatives of both signs,
    times random squares, both agree with the residue search."""
    ctx = PrimeContext(p)
    rng = random.Random(f"padic/hilbert/{p}")
    reps = [s * r for r in square_class_reps(ctx) for s in (1, -1)]
    for a in reps:
        for b in reps:
            want = hilbert_brute(a, b, ctx)
            for _ in range(4):
                s = rng.randint(1, 50) * p ** rng.randint(0, 3)
                t = rng.randint(1, 50) * p ** rng.randint(0, 3)
                ai, bi = int(a * s * s), int(b * t * t)
                assert type(ai) is int and hilbert_symbol(ai, bi, ctx) == want
                fs = Fraction(rng.randint(1, 50), rng.randint(1, 50) * p ** rng.randint(0, 3))
                ft = Fraction(s, rng.randint(1, 50))
                assert hilbert_symbol(a * fs * fs, b * ft * ft, ctx) == want
                assert hilbert_symbol(ai, b * ft * ft, ctx) == want


def test_hilbert_dyadic_value_two_five():
    # both independent routes give -1: mod 8 the form 2x^2 + 5y^2 misses
    # every odd square class
    assert hilbert_symbol(2, 5, CTX2) == -1
    assert hilbert_brute(2, 5, CTX2) == -1


def test_quad_ext_examples():
    assert quad_ext_brute(5, CTX2) == 0
    assert quad_ext(5, CTX2).kind == "inert"
    assert quad_ext(5, CTX2).d == 0
    assert quad_ext_brute(3, CTX2) == 2
    assert quad_ext(3, CTX2).d == 2
    assert quad_ext_brute(3, CTX3) == 1
    assert quad_ext(3, CTX3) == quad_ext(3, CTX3).__class__("ramified", 1)
    assert quad_ext(5, CTX5).d == 1
    assert quad_ext(2, CTX2).d == 3


@pytest.mark.parametrize("ctx", [CTX2, CTX3, CTX5])
def test_quad_ext_matches_minimization(ctx):
    for xi in range(-15, 16):
        if xi == 0 or is_square(xi, ctx):
            continue
        assert quad_ext(xi, ctx).d == quad_ext_brute(xi, ctx)


def test_xi_code_examples():
    assert xi_code(1, CTX2) == 1
    assert xi_code(5, CTX2) == -1
    assert xi_code(2, CTX2) == 0
    assert xi_code(4, CTX3) == 1


@pytest.mark.parametrize("ctx", [CTX2, CTX3, CTX5])
def test_square_class_reps_distinct(ctx):
    reps = square_class_reps(ctx)
    assert len(reps) == (8 if ctx.p == 2 else 4)
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not is_square(a * b, ctx)  # pairwise inequivalent


def test_prime_context_rejects_composite():
    """6, and composites with no factor up to 41 that only the Miller-Rabin
    rounds after the trial division reject: 43^2, 43·47 and 151·751·28351,
    a strong pseudoprime to the bases 2, 3, 5 and 7."""
    for p in (6, 43 * 43, 43 * 47, 151 * 751 * 28351):
        with pytest.raises(ValueError, match="p must be prime"):
            PrimeContext(p)
    assert PrimeContext(2).e == 1
    assert PrimeContext(7).e == 0


@pytest.mark.parametrize("p", [3.0, 2.0, Fraction(3), Fraction(5, 1)])
def test_prime_context_takes_an_int(p):
    """A prime that is not an int is rejected: 3.0 would compare equal to 3
    and then give wrong valuations (3**40 * 7 read as order 1) and a
    TypeError from pow inside the invariants."""
    with pytest.raises(ValueError, match="must be an int"):
        PrimeContext(p)


# The Fraction definitions that the integer square-class reader replaced:
# each reads the unit part x / p^ord(x) through frac_mod.


def legendre_by_fractions(u, ctx):
    if ctx.p == 2:
        raise ValueError("Legendre symbol needs p odd")
    r = frac_mod(u, ctx.p, ctx)
    if r == 0:
        raise ValueError("input is not a unit")
    return 1 if pow(r, (ctx.p - 1) // 2, ctx.p) == 1 else -1


def is_square_by_fractions(x, ctx):
    x = Fraction(x)
    if x == 0:
        raise ValueError("is_square is undefined at 0")
    if valuation(x, ctx) % 2:
        return False
    u = unit_part(x, ctx)
    if ctx.p == 2:
        return frac_mod(u, 8, ctx) == 1
    return legendre_by_fractions(u, ctx) == 1


def quad_ext_by_fractions(xi, ctx):
    xi = Fraction(xi)
    if xi == 0:
        raise ValueError("quad_ext is undefined at 0")
    if is_square_by_fractions(xi, ctx):
        return QuadExtKind(SPLIT, 0)
    odd = valuation(xi, ctx) % 2
    if ctx.p != 2:
        return QuadExtKind(RAMIFIED, 1) if odd else QuadExtKind(INERT, 0)
    if odd:
        return QuadExtKind(RAMIFIED, 3)
    if frac_mod(unit_part(xi, ctx), 8, ctx) == 5:
        return QuadExtKind(INERT, 0)
    return QuadExtKind(RAMIFIED, 2)


def outcome(fn, x, ctx):
    """fn(x, ctx), or the type and message of the exception it raises."""
    try:
        return fn(x, ctx)
    except Exception as ex:
        return type(ex), str(ex)


def probe_scalars(ctx, rng):
    """Zero, ints and Fractions of both signs whose numerator and denominator
    carry powers of p, and square-class representatives times random squares
    (as ints where the product is one)."""
    p = ctx.p
    items = [0, Fraction(0), 1, -1, p, -p, Fraction(1, p), Fraction(-p, p**3 + 1)]
    for _ in range(800):
        num = rng.randint(1, 10**12) * p ** rng.randint(0, 6)
        den = rng.randint(1, 10**12) * p ** rng.randint(0, 6)
        sign = rng.choice((1, -1))
        items.append(sign * num if rng.random() < 0.3 else Fraction(sign * num, den))
    for r in square_class_reps(ctx):
        for sign in (1, -1):
            for _ in range(40):
                t = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                t *= Fraction(p) ** rng.randint(-4, 4)
                x = sign * r * t * t
                items.append(int(x) if x.denominator == 1 else x)
    return items


@pytest.mark.parametrize("p", [2, 3, 5, 7, 10007])
def test_classifiers_match_the_fraction_definitions(p):
    """is_square, legendre and quad_ext read square classes on the integers;
    they agree with the Fraction definitions on every probe, rejections
    included (same exception type, same message), and quad_ext reaches every
    kind and discriminant order."""
    ctx = PrimeContext(p)
    rng = random.Random(f"padic/fraction-definitions/{p}")
    reached = set()
    for x in probe_scalars(ctx, rng):
        for fn, ref in (
            (is_square, is_square_by_fractions),
            (legendre, legendre_by_fractions),
            (quad_ext, quad_ext_by_fractions),
        ):
            got = outcome(fn, x, ctx)
            assert got == outcome(ref, x, ctx), (fn.__name__, x)
            if fn is quad_ext and isinstance(got, QuadExtKind):
                reached.add((got.kind, got.d))
    if p == 2:
        want = {(SPLIT, 0), (INERT, 0), (RAMIFIED, 2), (RAMIFIED, 3)}
    else:
        want = {(SPLIT, 0), (INERT, 0), (RAMIFIED, 1)}
    assert reached == want
