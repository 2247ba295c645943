import random
from fractions import Fraction

import pytest

from gkinv.oracle import hilbert_brute
from gkinv.padic import (
    INF,
    PrimeContext,
    hilbert_symbol,
    is_square,
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
    assert hilbert_brute(-1, -1, CTX2, 8) == -1
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
    assert hilbert_brute(2, 5, CTX2, 8) == -1


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
    with pytest.raises(ValueError):
        PrimeContext(6)
    assert PrimeContext(2).e == 1
    assert PrimeContext(7).e == 0
