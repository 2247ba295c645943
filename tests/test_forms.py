import math
import random
from fractions import Fraction

import pytest

from gkinv import linalg
from gkinv.egk import lift, random_egk, synthesize_nondyadic, synthesize_reduced
from gkinv.forms import (
    FormError,
    _from_rows,
    delta,
    direct_sum,
    in_gk_group,
    is_unimodular,
    leading,
    membership,
    norm_ideal_ord,
    random_form,
    random_unimodular,
    signed_disc,
    transform,
    validate_form,
)
from gkinv.padic import INF, PrimeContext

CTX2 = PrimeContext(2)
CTX3 = PrimeContext(3)

H = [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]


def test_validate_accepts_half_integral():
    form = validate_form([[1, Fraction(1, 2)], [Fraction(1, 2), 3]], CTX2)
    assert form.n == 2 and form.nondegenerate


def test_validate_rejections():
    with pytest.raises(FormError):
        validate_form([[Fraction(1, 2), 0], [0, 1]], CTX2)  # diagonal not integral
    with pytest.raises(FormError):
        validate_form([[1, Fraction(1, 3)], [Fraction(1, 3), 1]], CTX3)
    with pytest.raises(FormError):
        validate_form([[1, 2], [3, 1]], CTX2)  # asymmetric
    with pytest.raises(FormError):
        validate_form([[1, 2, 3], [2, 1, 4]], CTX2)  # not square


def test_transform_examples():
    b = validate_form([[1, 0], [0, 1]], CTX2)
    ident = linalg.identity(2)
    assert transform(b, ident).entries == b.entries
    sheared = transform(b, [[1, 1], [0, 1]])
    assert sheared.entries == linalg.mat([[1, 1], [1, 2]])
    perm = [[0, 1], [1, 0]]
    swapped = transform(validate_form([[1, 0], [0, 3]], CTX2), perm)
    assert swapped.entries == linalg.mat([[3, 0], [0, 1]])


def test_leading_examples():
    b1 = validate_form([[1, 1, 0], [1, 0, 0], [0, 0, 4]], CTX2)
    assert leading(b1, 3).entries == b1.entries
    assert leading(b1, 2).entries == linalg.mat([[1, 1], [1, 0]])
    d = validate_form([[1, 0, 0], [0, 3, 0], [0, 0, 9]], CTX3)
    assert leading(d, 1).entries == linalg.mat([[1]])
    with pytest.raises(FormError):
        leading(d, 5)


def test_signed_disc_examples():
    assert signed_disc(validate_form([[1, 0], [0, 1]], CTX2)) == -4
    assert signed_disc(validate_form(H, CTX2)) == 1
    b1 = validate_form([[1, 1, 0], [1, 0, 0], [0, 0, 4]], CTX2)
    assert b1.det == -4
    assert signed_disc(b1) == 16


def test_delta_examples():
    assert delta(validate_form([[1, 0], [0, 1]], CTX2)) == 1
    assert delta(validate_form(H, CTX2)) == 0
    assert delta(validate_form([[1, 0, 0], [0, 3, 0], [0, 0, 9]], CTX3)) == 3


def test_norm_ideal_examples():
    assert norm_ideal_ord(validate_form([[1, 0], [0, 1]], CTX2)) == 0
    assert norm_ideal_ord(validate_form([[0, 1], [1, 0]], CTX2)) == 1
    assert norm_ideal_ord(validate_form([[4, 0], [0, 8]], CTX2)) == 2
    assert norm_ideal_ord(validate_form((), CTX2)) == INF


def test_membership_examples():
    b = validate_form([[1, 0], [0, 1]], CTX2)
    assert membership(b, (0, 0))
    assert not membership(b, (0, 1))
    assert membership(validate_form([[1, 1], [1, 2]], CTX2), (0, 1))
    assert not membership(b, (0, 0), strict=True)


def test_gk_group_examples():
    ident = linalg.identity(2)
    assert in_gk_group(ident, (0, 2), CTX2)
    lower = [[1, 0], [1, 1]]
    assert in_gk_group(lower, (0, 2), CTX2)
    upper = [[1, 1], [0, 1]]
    assert not in_gk_group(upper, (0, 2), CTX2)  # shear too shallow
    assert in_gk_group([[1, 2], [0, 1]], (0, 2), CTX2)
    assert not in_gk_group([[2, 0], [0, 1]], (0, 0), CTX2)  # det not a unit
    # a Fraction U: p in a denominator leaves Z_p; a unit denominator is read
    # through, so 3/2 has order 1 at p = 3 and 1/2 has order 0
    assert not in_gk_group([[1, Fraction(1, 2)], [0, 1]], (0, 0), CTX2)
    assert in_gk_group([[1, Fraction(3, 2)], [0, Fraction(1, 2)]], (0, 2), CTX3)
    assert not in_gk_group([[1, Fraction(1, 2)], [0, 1]], (0, 2), CTX3)


def test_gk_group_and_unimodular_take_square_matrices_only():
    """A U that is not n x n for its exponent list raises, as ``transform``
    does; ``is_unimodular`` answers False for any matrix that is not square."""
    for u in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0]]):
        with pytest.raises(FormError, match="transform size mismatch"):
            in_gk_group(u, (0,) * len(u), CTX2)
    for u in ([[1, 0], [0, 1], [0, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 0], [0]], [[1], [0]]):
        assert not is_unimodular(u, CTX3)
        assert not is_unimodular(u, CTX2)


def test_direct_sum():
    a = validate_form([[1]], CTX3)
    b = validate_form([[3]], CTX3)
    assert direct_sum(a, b).entries == linalg.mat([[1, 0], [0, 3]])
    empty = validate_form((), CTX3)
    assert direct_sum(a, empty).entries == a.entries
    with pytest.raises(FormError):
        direct_sum(a, validate_form([[1]], CTX2))


def test_random_form_shape():
    rng = random.Random(0)
    for p in (2, 3):
        ctx = PrimeContext(p)
        for _ in range(20):
            f = random_form(3, ctx, rng, height=3)
            assert f.nondegenerate
            if p == 2:
                assert all(f.entries[i][i].denominator == 1 for i in range(f.n))


def test_random_unimodular_is_unimodular():
    rng = random.Random(1)
    from gkinv.forms import is_unimodular

    for p in (2, 5):
        ctx = PrimeContext(p)
        for _ in range(25):
            u = random_unimodular(3, ctx, rng)
            assert is_unimodular(u, ctx)


def test_integer_rows_round_trip():
    """validate_form(form.entries) rebuilds the same rows, den, det and
    hash, for random forms and synthesized ones (den 1 and den 2)."""
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        forms = [random_form(rng.randint(1, 5), ctx, rng, height=3) for _ in range(15)]
        for _ in range(10):
            g = random_egk(rng, max_r=3, max_m=4, max_n=5)
            if p == 2:
                forms.append(synthesize_reduced(g, ctx))
            else:
                forms.append(synthesize_nondyadic(lift(g), ctx))
        for form in forms:
            again = validate_form(form.entries, ctx)
            assert (again.rows, again.den, again.det) == (form.rows, form.den, form.det)
            assert again == form and hash(again) == hash(form)
            assert form.den == math.lcm(*(x.denominator for row in form.entries for x in row))
            assert all(type(x) is int for row in form.rows for x in row)


@pytest.mark.parametrize(
    "p, rows, den, message",
    [
        (2, [[0, 1], [1, 0]], 2, None),  # doubled entry of order exactly -1
        (2, [[0, 1], [1, 0]], 4, "doubled entry (0,1) is not p-integral"),
        (3, [[3, 1], [1, 3]], 3, "doubled entry (0,1) is not p-integral"),
        (2, [[2, 1], [0, 2]], 2, "matrix is not symmetric at (0,1)"),
        (3, [[1, 4, 0], [4, 1, 0], [0, 1, 1]], 1, "matrix is not symmetric at (1,2)"),
        (2, [[1, 2, 3], [2, 1, 4]], 1, "matrix is not square"),
        (2, [[2, 0], [0, 1]], 2, "diagonal entry (1,1) is not p-integral"),
        (5, [[5, 0], [0, 1]], 5, "diagonal entry (1,1) is not p-integral"),
        (2, [[1, 1], [3, 1]], 2, "diagonal entry (0,0) is not p-integral"),
    ],
)
def test_error_boundaries_match(p, rows, den, message):
    """The integer constructor and validate_form accept and reject at the
    same boundaries, with the same message."""
    ctx = PrimeContext(p)
    fractions = [[Fraction(x, den) for x in row] for row in rows]
    if message is None:
        assert _from_rows(rows, den, ctx) == validate_form(fractions, ctx)
        return
    for build in (lambda: _from_rows(rows, den, ctx), lambda: validate_form(fractions, ctx)):
        with pytest.raises(FormError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_is_unimodular_matches_det_mod_p(p):
    """The F_p elimination gives the verdict of the exact determinant:
    p does not divide det U, for random integer matrices, matrices that
    are singular mod p but not singular, and entries of 300+ bits."""
    rng = random.Random(p)
    ctx = PrimeContext(p)
    cases = []
    for n in range(1, 7):
        for _ in range(20):
            cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            big = [[rng.getrandbits(320) - (1 << 319) for _ in range(n)] for _ in range(n)]
            cases.append(big)
            # row 0 made congruent mod p to a combination of the others
            lin = [row[:] for row in big]
            if n > 1:
                c = [rng.randrange(p) for _ in range(n - 1)]
                lin[0] = [
                    sum(ci * lin[i + 1][j] for i, ci in enumerate(c)) + p * rng.getrandbits(300)
                    for j in range(n)
                ]
            cases.append(lin)
    singular_mod_p = 0
    for m in cases:
        d = linalg.det(m)
        assert is_unimodular(m, ctx) == (d % p != 0), m
        singular_mod_p += d != 0 and d % p == 0
    assert singular_mod_p >= 50
