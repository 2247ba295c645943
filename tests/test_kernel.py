"""The in-place kernel against the dense congruences it replaces, its
fraction-free elimination step against the exact Fraction elimination, the
fraction-free solve and inverse against Cramer's rule, the dyadic clear on
integer rows against the exact Fraction clear, the integer dense routines
against naive Fraction references, and golden certificate digests that pin
the reducers' output byte for byte.  The dense routines take integer rows,
so a Fraction matrix reaches them as d·M, scaled here by the test."""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from gkinv import linalg, reducer
from gkinv.cli import _cert_payload
from gkinv.egk import random_egk, synthesize_reduced
from gkinv.forms import HalfIntegralForm, random_form, random_unimodular, transform
from gkinv.padic import INF, PrimeContext, valuation
import parent_steps


def _random_matrix(rng, n, symmetric=False):
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return linalg.mat(m)


def _elementary(n, entries):
    e = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for (i, j), c in entries.items():
        e[i][j] = c
    return linalg.mat(e)


def _copy(m):
    """A mutable copy of a matrix, for the in-place steps."""
    return [list(row) for row in m]


def _perm(new_to_old):
    """Column permutation P: t(P) B P [k][l] == B[pi(k)][pi(l)]."""
    n = len(new_to_old)
    return linalg.mat([[int(i == new_to_old[k]) for k in range(n)] for i in range(n)])


def _check_step(m0, u0, e, step):
    """step on the rows [M | t(U)] gives [t(E) M E | t(U E)], and on a copy
    of M alone t(E) M E."""
    n = len(m0)
    rows = parent_steps.augmented(m0, u0)
    step(rows)
    assert linalg.mat(row[:n] for row in rows) == naive_congruence(m0, e)
    assert linalg.mat(row[n:] for row in rows) == linalg.transpose(linalg.matmul(u0, e))
    alone = _copy(m0)
    step(alone)
    assert alone == [row[:n] for row in rows]


CASES = [(n, sym, seed) for n in (1, 2, 3, 5) for sym in (False, True) for seed in range(3)]


def _move(n, t, k):
    """The permutation that moves coordinate t to position k."""
    rest = [i for i in range(n) if i != t]
    return _perm(tuple(rest[:k] + [t] + rest[k:]))


def _pivot(m, k, ok):
    """(E, branch) for the pivot step at k on m: the identity if ok accepts
    m[k][k], else the move of the first later diagonal entry it accepts,
    else the shear e_i += e_j at the first accepted (i, j), k <= i < j, in
    row-major order, followed by the move of i to k."""
    n = len(m)
    if ok(m[k][k]):
        return _elementary(n, {}), "in place"
    t = next((t for t in range(k + 1, n) if ok(m[t][t])), None)
    if t is not None:
        return _move(n, t, k), "move"
    t, j = next((i, j) for i in range(k, n) for j in range(i + 1, n) if ok(m[i][j]))
    return linalg.matmul(_elementary(n, {(j, t): 1}), _move(n, t, k)), "shear"


@pytest.mark.parametrize("n,symmetric,seed", CASES)
def test_kernel_steps_match_dense_congruence(n, symmetric, seed):
    rng = random.Random(f"kernel/{n}/{symmetric}/{seed}")
    m0 = _random_matrix(rng, n, symmetric)
    u0 = _random_matrix(rng, n)
    for t, k in ((rng.randrange(n), rng.randrange(n)), (n - 1, 0), (0, n - 1), (0, 0)):
        _check_step(m0, u0, _move(n, t, k), lambda m: linalg.move(m, t, k))
    # the pivot step on m0 with its zeros made 1, then also with m[k][k] = 0
    # (a move), then with every diagonal entry from k on 0 (a shear)
    k = rng.randrange(max(n - 1, 1))
    for zero, want in ((lambda i: False, "in place"), (lambda i: i == k, "move"),
                       (lambda i: i >= k, "shear"))[: 3 if n > 1 else 1]:
        mv = linalg.mat(
            [[0 if i == j and zero(i) else x or 1 for j, x in enumerate(r)]
             for i, r in enumerate(m0)]
        )
        e, branch = _pivot(mv, k, bool)
        assert branch == want
        _check_step(mv, u0, e, lambda m: linalg.pivot(m, k, bool))
    if n > 1:
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
        _check_step(m0, u0, _elementary(n, {(i, j): c}), lambda m: linalg.shear(m, i, j, c))
    idx = rng.sample(range(n), rng.randint(1, n))
    c = rng.choice((-3, 5, Fraction(7, 3)))
    scaling = _elementary(n, {(i, i): c for i in idx})
    _check_step(m0, u0, scaling, lambda m: linalg.scale(m, idx, c))


def _det(m):
    """det M for a matrix of ints or Fractions: ``linalg.det`` of d·M / d^n."""
    rows, d = linalg._scaled(m)
    return Fraction(linalg.det(rows), d ** len(m))


def _congruence(b, u):
    """t(U) B U for matrices of ints or Fractions: ``linalg.congruence`` of
    db·B and du·U, over db·du²."""
    (bi, db), (ui, du) = linalg._scaled(b), linalg._scaled(u)
    return linalg.over(linalg.congruence(bi, ui), db * du * du)


def _solve(a, b):
    """A^-1 B for matrices of ints or Fractions: (da·A)^-1 (db·B) = Y / L
    from ``linalg.solve_int``, times da / db."""
    (ai, da), (bi, db) = linalg._scaled(a), linalg._scaled(b)
    y, l = linalg.solve_int(ai, bi)
    return linalg.over([[da * x for x in row] for row in y], db * l)


def _inverse(a):
    """A^-1 for a matrix of ints or Fractions: d·Y / L, with (d·A)^-1 = Y / L
    from ``linalg.inverse``."""
    ai, d = linalg._scaled(a)
    y, l = linalg.inverse(ai)
    return linalg.over([[d * x for x in row] for row in y], l)


def test_solve_matches_inverse_product():
    rng = random.Random("kernel/solve")
    for n in (1, 2, 4):
        a = _random_matrix(rng, n)
        while _det(a) == 0:
            a = _random_matrix(rng, n)
        b = _random_matrix(rng, n)
        assert _solve(a, b) == linalg.matmul(_inverse(a), b)
        assert linalg.matmul(a, _inverse(a)) == linalg.mat(linalg.identity(n))
        ai = linalg._scaled(a)[0]
        y, l = linalg.inverse(ai)
        assert linalg.matmul(ai, y) == tuple(tuple(l * x for x in r) for r in linalg.identity(n))


def naive_congruence(b, u):
    """t(U) B U entry by entry in Fraction arithmetic."""
    n, m = len(b), len(u[0]) if u else 0
    return tuple(
        tuple(
            sum(Fraction(u[k][i]) * b[k][l] * u[l][j] for k in range(n) for l in range(n))
            for j in range(m)
        )
        for i in range(m)
    )


def naive_det(m):
    """Cofactor expansion along the first row, in Fraction arithmetic."""
    if not m:
        return Fraction(1)
    return sum(
        (-1) ** j * Fraction(m[0][j]) * naive_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


# Denominators that mix powers of p = 2, 3 with primes other than p.
MIXED_DENS = (1, 2, 3, 4, 5, 7, 8, 9, 12, 25, 27, 49, 1024)


def _mixed_matrix(rng, n, symmetric=False, singular=False):
    m = [
        [Fraction(rng.randint(-30, 30), rng.choice(MIXED_DENS)) for _ in range(n)]
        for _ in range(n)
    ]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if singular and n > 1:
        # the last row and column: a rational combination of the others
        c = [Fraction(rng.randint(-3, 3), rng.choice(MIXED_DENS)) for _ in range(n - 1)]
        m[-1] = [sum(ci * m[i][j] for i, ci in enumerate(c)) for j in range(n)]
        if symmetric:
            for i in range(n):
                m[i][-1] = m[-1][i]
            m[-1][-1] = sum(ci * m[-1][i] for i, ci in enumerate(c))
    return linalg.mat(m)


def cramer_solve(a, b):
    """A^-1 B by Cramer's rule over cofactor determinants, in Fractions."""
    n, d = len(a), naive_det(a)
    if d == 0:
        raise ZeroDivisionError("matrix is singular")
    cols = range(len(b[0]) if b else 0)
    return [
        [
            naive_det([[b[r][j] if c == i else a[r][c] for c in range(n)] for r in range(n)])
            / d
            for j in cols
        ]
        for i in range(n)
    ]


# (A, B) for the integer solve: zero pivots that need a row swap, at the
# first step and after one elimination step, and singular matrices
SOLVE_SPECIAL = [
    (((0, 1), (1, 0)), ((3, -4), (5, 0))),
    (((0, 2, 1), (0, 3, 4), (5, 6, 7)), ((1,), (0,), (-2,))),
    (((1, 2, 3), (2, 4, 5), (3, 5, 6)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    (((2, 4), (3, 6)), ((1,), (1,))),
    (((1, 2, 3), (2, 4, 6), (0, 0, 1)), ((1,), (2,), (3,))),
    (((0, 0), (0, 5)), ((1,), (1,))),
]


@pytest.mark.parametrize("a,b", SOLVE_SPECIAL, ids=range(len(SOLVE_SPECIAL)))
def test_solve_int_special_cases(a, b):
    if naive_det(a) == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.solve_int(a, b)
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(a)
        return
    y, l = linalg.solve_int(a, b)
    assert [[Fraction(v, l) for v in row] for row in y] == cramer_solve(a, b)
    y, l = linalg.inverse(a)
    assert linalg.over(linalg.matmul(y, b), l) == linalg.mat(cramer_solve(a, b))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_solve_int_matches_cramer(n):
    """Y / L is A^-1 B in lowest terms (L > 0, gcd(L, Y) = 1) on random
    integer matrices, zero entries and singular ones included, and it gives
    the same values on mixed-denominator matrices scaled to integers."""
    rng = random.Random(f"solve_int/{n}")
    seen = {"L = 1": 0, "L > 1": 0, "singular": 0}
    for trial in range(40):
        a = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        width = rng.randint(0, 4)
        b = [[rng.randint(-20, 20) for _ in range(width)] for _ in range(n)]
        if naive_det(a) == 0:
            seen["singular"] += 1
            with pytest.raises(ZeroDivisionError):
                linalg.solve_int(a, b)
            continue
        y, l = linalg.solve_int(a, b)
        assert l > 0 and math.gcd(l, *(v for row in y for v in row)) == 1
        assert [[Fraction(v, l) for v in row] for row in y] == cramer_solve(a, b)
        seen["L = 1" if l == 1 else "L > 1"] += 1
        fa, fb = _mixed_matrix(rng, n, singular=trial % 5 == 0), _mixed_matrix(rng, n)
        if naive_det(fa) == 0:
            with pytest.raises(ZeroDivisionError):
                _solve(fa, fb)
        else:
            x = _solve(fa, fb)
            assert x == linalg.mat(cramer_solve(fa, fb))
            assert all(type(v) is Fraction for row in x for v in row)
    assert all(seen.values()) or n == 1, seen


def _clear_case(rng, kind):
    """Integer rows m (symmetric) and u with a prefix type whose paired block
    A = t(V)·D·V, V unimodular, has det D = ±1 (kind "unit"), odd (kind
    "odd") or even (kind "even"), so X = A^-1 C has L = 1, odd L or, mostly,
    even L."""
    k = rng.randint(2, 4)
    n = k + rng.randint(1, 3)
    sigma = list(range(k))
    i, j = rng.sample(range(k), 2)
    sigma[i], sigma[j] = j, i
    if k == 4 and rng.random() < 0.5:
        i, j = (t for t in range(k) if sigma[t] == t)
        sigma[i], sigma[j] = j, i
    paired = [t for t in range(k) if sigma[t] != t]
    diag = {"unit": (1, -1, 1, -1), "odd": (3, 5, -7, 9), "even": (2, 3, 4, 1)}[kind]
    v = [[int(r == c) for c in paired] for r in paired]
    for _ in range(6):
        r, c = rng.sample(range(len(paired)), 2)
        x = rng.randint(-3, 3)
        for row in v:
            row[c] += x * row[r]
    size = range(len(paired))
    a = [[sum(v[t][r] * diag[t] * v[t][c] for t in size) for c in size] for r in size]
    m = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            m[r][c] = m[c][r] = rng.randint(-12, 12)
    for r, i in enumerate(paired):
        for c, j in enumerate(paired):
            m[i][j] = a[r][c]
    u = [[rng.randint(-3, 3) + (r == c) * 5 for c in range(n)] for r in range(n)]
    return m, u, tuple(range(k)), tuple(sigma), paired


def test_clear_matrix_on_integer_rows_matches_the_exact_clear():
    """``_clear_matrix`` on the integer rows [M | t(U)] against the exact
    Fraction clear E_X = 1 - sum of X[i][j] e_i t(e_j), X = A^-1 C: it
    returns the odd L and leaves [L²·t(E_X) M E_X | L·t(U E_X)], or refuses
    with the rows untouched when X has an even denominator."""
    rng = random.Random("clear/int")
    seen = {"L = 1": 0, "odd L > 1": 0, "refused": 0}
    for trial in range(90):
        m, u, exps, sigma, paired = _clear_case(rng, ("unit", "odd", "even")[trial % 3])
        m0, u0 = [row[:] for row in m], [row[:] for row in u]
        n, k = len(m), len(exps)
        tail = range(k, n)
        x = cramer_solve([[m[i][j] for j in paired] for i in paired],
                         [[m[i][j] for j in tail] for i in paired])
        big_l = math.lcm(*(v.denominator for row in x for v in row))
        rows = parent_steps.augmented(m, u)
        l = reducer._clear_matrix(rows, exps, sigma)
        m, u = parent_steps.split(rows)
        if big_l % 2 == 0:
            assert l is None and m == m0 and u == u0
            seen["refused"] += 1
            continue
        assert l == big_l
        e = _elementary(
            n, {(i, j): -x[r][c] for r, i in enumerate(paired) for c, j in enumerate(tail)}
        )
        want_m = naive_congruence(m0, e)
        want_u = linalg.matmul(linalg.mat(u0), e)
        assert m == [[l * l * v for v in row] for row in want_m]
        assert u == [[l * v for v in row] for row in want_u]
        assert all(type(v) is int for row in m + u for v in row)
        assert all(m[i][j] == 0 for i in paired for j in tail)
        seen["L = 1" if l == 1 else "odd L > 1"] += 1
    assert all(v >= 10 for v in seen.values()), seen


# (matrix, its determinant)
SPECIAL = [
    ((), 1),
    (((0,),), 0),
    (((Fraction(-7, 12),),), Fraction(-7, 12)),
    (((2, 1), (1, 1)), 1),  # plain ints
    (((0, 1), (1, 0)), -1),  # zero leading pivot: a row swap
    (((0, 0, 3), (0, 2, 0), (5, 0, 0)), -30),
    (((0, 1, 2), (0, 3, 4), (5, 6, 7)), -10),  # a swap at the first step
    (((1, 2, 3), (2, 4, 6), (0, 0, 1)), 0),  # a zero pivot with no row to swap in
    (((1, 2), (2, 4)), 0),
    (((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), Fraction(1, 7))), Fraction(1, 210)),
    (
        ((Fraction(3, 8), Fraction(-5, 9)), (Fraction(-5, 9), Fraction(7, 1024))),
        Fraction(-203099, 663552),
    ),
]


@pytest.mark.parametrize("m,expected", SPECIAL, ids=range(len(SPECIAL)))
def test_det_matches_cofactor_expansion_on_special_matrices(m, expected):
    rows, d = linalg._scaled(m)
    x = linalg.det(rows)
    assert type(x) is int and Fraction(x, d ** len(m)) == naive_det(m) == expected
    assert rows == linalg._scaled(m)[0]  # det works on a copy


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_on_diagonal_permuted_triangular_and_singular_matrices(n):
    """``det`` updates only the rows with a non-zero entry in the pivot
    column: diagonal matrices (some with a zero diagonal entry), upper and
    lower triangular ones with their rows permuted (a row swap at a zero
    pivot, and rows left at an older scale), and singular ones with a
    multiple of another row, a zero row or a zero column."""
    rng = random.Random(f"det/{n}")
    for trial in range(10):
        d = [rng.randint(-9, 9) or trial % 3 for _ in range(n)]
        diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        upper = [[rng.randint(-9, 9) if j > i else d[i] * (j == i) for j in range(n)]
                 for i in range(n)]
        lower = [list(col) for col in zip(*upper)]
        perm = rng.sample(range(n), n)
        for m in (diag, upper, lower, [upper[i] for i in perm], [lower[i] for i in perm]):
            assert linalg.det(m) == naive_det(m)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        multiple = [[3 * x for x in a[i]] if k == j else row for k, row in enumerate(a)]
        zero_row = [[0] * n if k == j else row for k, row in enumerate(a)]
        zero_col = [[0 if k == j else x for k, x in enumerate(row)] for row in a]
        for m in ((multiple,) if n > 1 else ()) + (zero_row, zero_col):
            assert linalg.det(m) == 0 == naive_det(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dense_routines_match_naive_fraction_references(n):
    rng = random.Random(f"dense/{n}")
    for trial in range(12):
        b = _mixed_matrix(rng, n, symmetric=True, singular=trial % 3 == 0)
        u = _mixed_matrix(rng, n, singular=trial % 4 == 1)
        for m in (b, u):
            assert _det(m) == naive_det(m)
        # a zero leading pivot: the first column's top entry cleared
        z = linalg.mat([[0, *row[1:]] if i == 0 else row for i, row in enumerate(u)])
        assert _det(z) == naive_det(z)
        c = _congruence(b, u)
        assert c == naive_congruence(b, u)
        assert all(type(x) is Fraction for row in c for x in row)
        assert all(x is linalg.mat([[0]])[0][0] for row in c for x in row if not x)
        # on integer rows, B symmetric as every form's rows are
        bi, ui = (tuple(tuple(x.numerator for x in row) for row in m) for m in (b, u))
        c = linalg.congruence(bi, ui)
        assert c == naive_congruence(bi, ui)
        assert all(type(x) is int for row in c for x in row)
    assert linalg.congruence((), ()) == ()


def test_congruence_refuses_a_non_symmetric_b():
    """``congruence`` forms the entries i <= j only and mirrors them, which is
    t(U) B U only for a symmetric B: any other B raises, and so does
    ``transform`` of a form built by hand with non-symmetric rows."""
    u = ((1, 1), (0, 1))
    with pytest.raises(ValueError, match="symmetric"):
        linalg.congruence(((1, 2), (3, 4)), u)
    form = HalfIntegralForm(PrimeContext(3), ((1, 2), (3, 4)), 1)
    with pytest.raises(ValueError, match="symmetric"):
        transform(form, u)
    assert linalg.congruence(((1, 2), (2, 4)), u) == ((1, 3), (3, 9))


def old_valuation(x, ctx):
    """valuation as it was before it stopped copying Fraction inputs."""
    x = Fraction(x)
    if x == 0:
        return INF
    v, num, den = 0, x.numerator, x.denominator
    while num % ctx.p == 0:
        num, v = num // ctx.p, v + 1
    while den % ctx.p == 0:
        den, v = den // ctx.p, v - 1
    return v


def test_valuation_matches_its_copying_version():
    values = [0, Fraction(0), 1, -1, 12, -48, 2**40, -(3**7) * 5]
    values += [Fraction(a, b) for a in (-250, -9, -1, 1, 6, 375) for b in (1, 2, 4, 9, 10, 125)]
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        for x in values:
            assert valuation(x, ctx) == old_valuation(x, ctx), (p, x)
    assert valuation(0, ctx) is INF and valuation(Fraction(0), ctx) is INF


def fraction_step(m, u, k):
    """The exact symmetric elimination at pivot k: t(E) M E and U E with
    E = 1 - sum over j > k of (m[k][j] / m[k][k]) e_k t(e_j), entry by entry."""
    e = _elementary(len(m), {(k, j): -m[k][j] / m[k][k] for j in range(k + 1, len(m))})
    return naive_congruence(m, e), linalg.matmul(u, e)


def parent_eliminate(m, k, prev, u=None, base=None):
    """``linalg.eliminate`` as it was when it still took a working U and
    updated U's tail columns in a second loop, kept verbatim as the
    reference for the step on the rows [S | 1]."""
    p, tail = m[k][k], m[k][k + 1 :]
    scales = base or [prev] * len(m)
    for i, ri in enumerate(m[k + 1 :], k + 1):
        c = ri[k]
        if c or base is None:
            ri[k + 1 :] = [(p * x - c * y) // scales[i] for x, y in zip(ri[k + 1 :], tail)]
            scales[i] = p
    if u is not None:
        for row in u:
            c = row[k]
            row[k + 1 :] = [(p * x - y * c) // prev for x, y in zip(row[k + 1 :], tail)]


def _random_symmetric(rng, n):
    """Mixed denominators; some diagonals zero, and all of them in a third of
    the cases, so pivots are reached through moves and exposing shears."""
    m = _mixed_matrix(rng, n, symmetric=True)
    zero_all = rng.random() < 1 / 3
    return linalg.mat(
        [[0 if i == j and (zero_all or rng.random() < 0.4) else x for j, x in enumerate(row)]
         for i, row in enumerate(m)]
    )


@pytest.mark.parametrize("seed", range(6))
def test_integer_step_matches_fraction_elimination(seed):
    """The fraction-free step against the exact Fraction elimination, one
    pivot at a time, with tail moves and shears between the steps: the
    tail of the integer rows stays den·prev times the exact tail, U's tail
    columns prev times the exact ones, and every division is exact.  U is
    carried by the parent's step (``parent_eliminate``); the library's step,
    which takes no U, runs on the rows [w | t(U)] beside it and must give
    the same rows with t(U) as their right half."""
    rng = random.Random(f"bareiss/{seed}")
    seen = {"move": 0, "shear": 0, "tail move": 0}
    for _ in range(25):
        n = rng.randint(1, 6)
        b = _random_symmetric(rng, n)
        if _det(b) == 0:
            continue
        m, u = _copy(b), linalg.identity(n)
        w, den = linalg._scaled(b)
        wu = [[int(i == j) for j in range(n)] for i in range(n)]
        wa = [row + e for row, e in zip(w, linalg.identity(n))]
        prev, prevs = 1, []
        for k in range(n):
            if n - k > 1 and rng.random() < 0.5:  # a tail-only move or shear
                i, j = rng.sample(range(k, n), 2)
                c = rng.randint(-3, 3)
                for a, v in ((m, u), (w, wu)):
                    if c:
                        parent_steps.shear(a, i, j, c, v)
                    else:
                        parent_steps.move(a, i, j, v)
                if c:
                    linalg.shear(wa, i, j, c)
                else:
                    linalg.move(wa, i, j)
                seen["tail move"] += 1
            if m[k][k] == 0:
                piv = next((t for t in range(k + 1, n) if m[t][t] != 0), None)
                if piv is None:  # e_i += e_j exposes 2·m[i][j] on the diagonal
                    i, j = next(
                        (i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j] != 0
                    )
                    for a, v in ((m, u), (w, wu)):
                        parent_steps.shear(a, j, i, 1, v)
                    linalg.shear(wa, j, i, 1)
                    piv = i
                    seen["shear"] += 1
                else:
                    seen["move"] += 1
                for a, v in ((m, u), (w, wu)):
                    parent_steps.move(a, piv, k, v)
                linalg.move(wa, piv, k)
            p, tail = w[k][k], range(k + 1, n)
            assert p == den * prev * m[k][k] != 0
            assert all((p * w[i][j] - w[i][k] * w[k][j]) % prev == 0 for i in tail for j in tail)
            assert all((p * row[j] - w[k][j] * row[k]) % prev == 0 for row in wu for j in tail)
            m, u = (_copy(x) for x in fraction_step(m, u, k))
            prevs.append(prev)
            parent_eliminate(w, k, prev, wu)
            linalg.eliminate(wa, k, prev)
            assert wa == [row + list(col) for row, col in zip(w, zip(*wu))]
            prev = p
            assert all(w[i][j] == den * p * m[i][j] for i in tail for j in tail)
            assert all(row[j] == p * x[j] for row, x in zip(wu, u) for j in tail)
        assert all(m[i][j] == 0 for i in range(n) for j in range(n) if i != j)
        assert [Fraction(w[k][k], den * d) for k, d in enumerate(prevs)] == [
            m[k][k] for k in range(n)
        ]
        assert [[Fraction(x, d) for x, d in zip(row, prevs)] for row in wu] == u
    assert all(seen.values()), seen


# SHA-256 of the certificates of the corpora, one `gkinv reduce` JSON line
# each, taken when the reducers made U integral by scaling each column by its
# least denominator; `test_integral_certificates.py` checks on these corpora
# that each certificate is the one before with exactly that scaling.  "odd" was
# taken again when the p-unimodular forms moved to the split over F_p, and
# again when the forms of ord_p det B = 1 (indices 7 and 13) followed them,
# and again when the forms of ord_p det B >= 2 whose U at the precision
# reducedness needs prints shorter kept it (indices 3, 6, 10 and 11, all
# n = 8; index 8, n = 6, keeps its exact U); `test_unimodular_split.py`
# checks the split over F_p against the exact one, and
# `test_short_columns.py` the short columns.  Any change to a certificate
# shows here.
GOLDEN = {
    "dyadic": "ea1c617d1dc08551346d729f5dbcf18241056c3ec1772c811278bfcdda9c0b89",
    "odd": "fd53171e6ab5bed58085d154edb6a0f2e4cc4d1500722a02700f61fb893d5825",
    "dyadic_even_den": "b679b7b9fe3ef7fcc50ecac05fd95d570beb38e510b04a767aea5bded3a1f881",
}


def _scrambled_dyadic_forms(seed):
    """p = 2: random_egk -> synthesize_reduced -> random_unimodular(steps=12),
    n = 2..6 in turn, without end."""
    rng = random.Random(seed)
    ctx = PrimeContext(2)
    for k in itertools.count():
        n = 2 + k % 5
        g = random_egk(rng, max_r=4, max_m=8, max_n=n)
        while g.n != n:
            g = random_egk(rng, max_r=4, max_m=8, max_n=n)
        r = synthesize_reduced(g, ctx)
        yield transform(r, random_unimodular(n, ctx, rng, steps=12))


def dyadic_corpus(count=40):
    """The first scrambled dyadic forms; reaches collision shears, splits and
    pairs."""
    return list(itertools.islice(_scrambled_dyadic_forms("golden/dyadic"), count))


def dyadic_even_den_corpus(count=40):
    """Scrambled dyadic forms drawn as ``dyadic_corpus`` draws them, keeping
    those with an even den (s = ord den >= 1), where a collision shear must
    raise its exponents by s to find the orders of the integer rows."""
    forms = _scrambled_dyadic_forms("golden/dyadic/even-den")
    return list(itertools.islice((f for f in forms if f.den % 2 == 0), count))


def odd_corpus(count=16):
    """p = 3, 5: random_form(height=6) at n = 6 and 8."""
    rng = random.Random("golden/odd")
    return [
        random_form((6, 8)[(k // 2) % 2], PrimeContext((3, 5)[k % 2]), rng, height=6)
        for k in range(count)
    ]


def certificate_digest(forms):
    h = hashlib.sha256()
    for form in forms:
        cert = _cert_payload(reducer.reduce_form(form))
        h.update(json.dumps(cert, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


def test_golden_dyadic_certificates(monkeypatch):
    shears = []
    complete_square = reducer.complete_square

    def counted(*args):
        shears.append(args)
        return complete_square(*args)

    monkeypatch.setattr(reducer, "complete_square", counted)
    forms = dyadic_corpus()
    assert certificate_digest(forms) == GOLDEN["dyadic"]
    assert shears, "the corpus must reach parity-collision shears"


def test_golden_dyadic_even_den_certificates(monkeypatch):
    """Every form has s = ord den >= 1, so a collision shear that read the
    integer rows' orders without the shift by s would fail or change U."""
    shears = []
    complete_square = reducer.complete_square

    def counted(*args):
        shears.append(args)
        return complete_square(*args)

    monkeypatch.setattr(reducer, "complete_square", counted)
    forms = dyadic_even_den_corpus()
    assert all(valuation(f.den, f.ctx) >= 1 for f in forms)
    assert certificate_digest(forms) == GOLDEN["dyadic_even_den"]
    assert len(shears) >= 5, "the corpus must reach parity-collision shears"


def test_golden_odd_certificates():
    assert certificate_digest(odd_corpus()) == GOLDEN["odd"]
