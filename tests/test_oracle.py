import random
from fractions import Fraction

import pytest

from gkinv.forms import norm_ideal_ord, random_form, validate_form
from gkinv.invariants import classify_binary, gk
from gkinv.oracle import (
    SearchBudget,
    exhaustive_gk_binary,
    gk_lower_search,
    greatest_in_s,
    hilbert_brute,
)
from gkinv.padic import PrimeContext, hilbert_symbol, square_class_reps

CTX2 = PrimeContext(2)
CTX3 = PrimeContext(3)
CTX5 = PrimeContext(5)

HALF = Fraction(1, 2)


def test_hilbert_brute_examples():
    assert hilbert_brute(1, 1, CTX2) == 1
    assert hilbert_brute(-1, -1, CTX2) == -1
    assert hilbert_brute(2, 5, CTX2) == -1


@pytest.mark.parametrize("ctx", [CTX2, CTX3, CTX5])
def test_hilbert_brute_full_table(ctx):
    for a in square_class_reps(ctx):
        for b in square_class_reps(ctx):
            assert hilbert_brute(a, b, ctx) == hilbert_symbol(a, b, ctx)


def test_exhaustive_binary_examples():
    assert exhaustive_gk_binary(validate_form([[1, 0], [0, 1]], CTX2)) == (0, 1)
    y = validate_form([[1, HALF], [HALF, 1]], CTX2)
    assert exhaustive_gk_binary(y) == (0, 0)
    # at p = 3 the factor 2 is a unit, so this is just a sorted-order Jordan pair
    assert exhaustive_gk_binary(validate_form([[2, 0], [0, 6]], CTX3)) == (0, 1)
    assert exhaustive_gk_binary(validate_form([[3, 0], [0, 9]], CTX3)) == (1, 2)


def test_complete_small_binary_census():
    # every dyadic binary with doubled entries in [-4, 4]: all three routes
    # agree on the exact invariant
    from itertools import product

    checked = 0
    for c11, c12, c22 in product(range(-4, 5), repeat=3):
        if c11 % 2 or c22 % 2:
            continue  # diagonal of a half-integral form is integral
        rows = [
            [Fraction(c11, 2), Fraction(c12, 2)],
            [Fraction(c12, 2), Fraction(c22, 2)],
        ]
        b = validate_form(rows, CTX2)
        if not b.nondegenerate:
            continue
        cls = classify_binary(b, check=False)
        assert gk(b) == exhaustive_gk_binary(b) == cls.predicted_gk, rows
        checked += 1
    assert checked > 200  # the complete non-degenerate grid


def test_exhaustive_binary_matches_classification():
    rng = random.Random(31)
    done = 0
    while done < 25:
        p = rng.choice((2, 3))
        ctx = PrimeContext(p)
        b = random_form(2, ctx, rng, height=2)
        if norm_ideal_ord(b) != 0:
            continue
        cls = classify_binary(b, check=False)
        assert gk(b) == exhaustive_gk_binary(b) == cls.predicted_gk
        done += 1


def test_greatest_in_s_examples():
    h = validate_form([[0, HALF], [HALF, 0]], CTX2)
    assert greatest_in_s(h) == (0, 0)
    assert greatest_in_s(validate_form([[1, 0], [0, 1]], CTX2)) == (0, 0)
    assert greatest_in_s(validate_form([[1, 1], [1, 2]], CTX2)) == (0, 1)


def test_lower_search_examples():
    b = validate_form([[1, 0], [0, 1]], CTX2)
    assert gk_lower_search(b, SearchBudget(1000, seed=3)) == (0, 1)
    h = validate_form([[0, HALF], [HALF, 0]], CTX2)
    assert gk_lower_search(h, SearchBudget(1, seed=0)) == (0, 0)
    d = validate_form([[1, 0], [0, 5]], CTX5)
    assert gk_lower_search(d, SearchBudget(1, seed=0)) == (0, 1)


def test_lower_search_is_deterministic_and_bounded():
    rng = random.Random(37)
    for _ in range(10):
        p = rng.choice((2, 3, 5))
        ctx = PrimeContext(p)
        b = random_form(rng.randint(1, 4), ctx, rng, height=3)
        lo1 = gk_lower_search(b, SearchBudget(150, seed=11))
        lo2 = gk_lower_search(b, SearchBudget(150, seed=11))
        assert lo1 == lo2
        assert tuple(lo1) <= tuple(gk(b))
