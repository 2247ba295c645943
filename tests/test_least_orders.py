"""The reducers and ``norm_ideal_ord`` read each least order off one gcd.
The references below read every entry's order into a table and take its
minimum, as the library did before; they are compared with the library on
random inputs that reach every branch: zero diagonals (the Jordan split's
shear), ties in the least order, zero tails and every kind of dyadic move."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from gkinv import linalg
from gkinv.forms import FormError, norm_ideal_ord, random_form, validate_form
from gkinv.involutions import standard_involution
from gkinv.padic import INF, PrimeContext, valuation
from gkinv.reducer import _candidates, _exact_split
import parent_steps
from test_integral_certificates import through_column_scales
from test_kernel import parent_eliminate


def ref_jordan_split(form):
    ctx = form.ctx
    n = form.n
    m = [list(row) for row in form.rows]
    u = linalg.identity(n)
    prev, prevs = 1, []
    for k in range(n):
        idx = range(k, n)
        ords = {(i, j): valuation(m[i][j], ctx) for i in idx for j in range(i, n)}
        v, i, j = min((v, i, j) for (i, j), v in ords.items())
        if i != j and all(ords[t, t] > v for t in idx):
            parent_steps.shear(m, j, i, 1, u)
            ords[i, i] = valuation(m[i][i], ctx)
        piv = min(idx, key=lambda t: ords[t, t])
        parent_steps.move(m, piv, k, u)
        prevs.append(prev)
        parent_eliminate(m, k, prev, u)
        prev = m[k][k]
    exps = tuple(valuation(m[k][k], ctx) - valuation(pk, ctx) for k, pk in enumerate(prevs))
    l = math.lcm(*prevs)
    diag = [[m[i][i] * (l // prevs[i]) if i == j else 0 for j in range(n)] for i in range(n)]
    return diag, u, exps, standard_involution(exps), form.den * l, prevs


def ref_ordb(m, ctx, s, i, j):
    x = m[i][j]
    if not x:
        return INF
    v = valuation(x, ctx) - s
    return v if i == j else v + 1


def ref_candidates(m, s, exps, sigma, ctx):
    k, n = len(exps), len(m)
    amin = exps[-1] if exps else 0
    fixed = [i for i in range(k) if sigma[i] == i]
    tail = range(k, n)
    moves = []
    for h in fixed:
        for j in tail:
            v = ref_ordb(m, ctx, s, h, j)
            if v is INF:
                continue
            c = 2 * v - exps[h]
            if c < amin:
                continue
            if ref_ordb(m, ctx, s, j, j) < c:
                continue
            moves.append((c, 0, h, j))
    tail_ords = {(i, j): ref_ordb(m, ctx, s, i, j) for i in tail for j in tail if i <= j}
    finite = [v for v in tail_ords.values() if v is not INF]
    if finite:
        c_tail = min(finite)
        if amin <= c_tail:
            collision = next((h for h in fixed if (exps[h] - c_tail) % 2 == 0), None)
            for (i, j), v in tail_ords.items():
                if v != c_tail:
                    continue
                if i < j:
                    moves.append((c_tail, 1, i, j))
                elif collision is None:
                    moves.append((c_tail, 2, i, i))
                else:
                    moves.append((c_tail, 3, collision, i))
    return moves


def ref_norm_ideal_ord(form):
    n, ctx, r = form.n, form.ctx, form.rows
    vals = [valuation(r[i][i], ctx) for i in range(n)]
    vals += [valuation(r[i][j], ctx) + ctx.e for i in range(n) for j in range(i + 1, n)]
    return min(vals) - valuation(form.den, ctx) if vals else INF


def _symmetric(rng, n, p, zero_diagonal=False, top=3):
    """Integer rows whose entries are 0 or a unit times p^a, a <= top, so
    that many entries share the least order."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and zero_diagonal) or rng.random() < 0.25:
                continue
            x = rng.choice((1, -1)) * rng.randrange(1, 2 * p, 2 if p == 2 else 1)
            while x % p == 0:
                x += 1
            m[i][j] = m[j][i] = x * p ** rng.randint(0, top)
    return m


def _jordan_forms(rng, ctx):
    """Random, zero-diagonal and tied forms over a denominator prime to p."""
    p = ctx.p
    for _ in range(60):
        n = rng.randint(1, 10)
        yield random_form(n, ctx, rng, height=rng.randint(1, 4))
    for zero_diagonal in (False, True):
        made = 0
        while made < 60:
            n = rng.randint(2 if zero_diagonal else 1, 10)
            m = _symmetric(rng, n, p, zero_diagonal)
            den = rng.choice((1, 2, p + 1, 4 * p + 2))
            form = validate_form([[Fraction(x, den) for x in row] for row in m], ctx)
            if form.nondegenerate:
                made += 1
                yield form


def _least_order_entries(form):
    """The entries (i, j), i <= j, of least order in the form."""
    ords = {(i, j): valuation(form.rows[i][j], form.ctx) for i in range(form.n)
            for j in range(i, form.n)}
    v = min(ords.values())
    return [ij for ij, w in ords.items() if w == v]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_jordan_split_matches_the_order_table(p):
    ctx = PrimeContext(p)
    rng = random.Random(1900 + p)
    shears = ties = 0
    for form in _jordan_forms(rng, ctx):
        ref = through_column_scales(form, ref_jordan_split(form))
        assert _exact_split(form) == ref, (form.rows, form.den)
        least = _least_order_entries(form)
        shears += all(i != j for i, j in least)
        ties += len(least) > 1
    # the first step alone shears or breaks a tie this often
    assert shears >= 60 and ties >= 100, (shears, ties)


def test_candidates_match_the_order_table():
    ctx = PrimeContext(2)
    rng = random.Random(1919)
    kinds, zero_tails = Counter(), 0
    for _ in range(3000):
        n = rng.randint(1, 7)
        k = rng.randrange(n)
        exps = sorted(rng.randint(0, 4) for _ in range(k))
        sigma = list(range(k))
        free = list(range(k))
        rng.shuffle(free)
        while len(free) >= 2 and rng.random() < 0.5:
            i, j = free.pop(), free.pop()
            sigma[i], sigma[j] = j, i
        s = rng.choice((0, 1, 2))
        m = _symmetric(rng, n, 2, top=6)
        if rng.random() < 0.1:
            for i in range(k, n):
                m[i][k:] = [0] * (n - k)
        zero_tails += all(not x for row in m[k:] for x in row[k:])
        got = _candidates(m, s, tuple(exps), tuple(sigma), ctx)
        ref = ref_candidates(m, s, tuple(exps), tuple(sigma), ctx)
        assert sorted(got) == sorted(ref), (m, s, exps, sigma)
        kinds.update(move[1] for move in got)
    assert zero_tails >= 50
    assert all(kinds[kind] >= 100 for kind in range(4)), kinds


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_norm_ideal_ord_matches_the_order_table(p):
    ctx = PrimeContext(p)
    rng = random.Random(1990 + p)
    forms = [validate_form([], ctx), validate_form([[0, 0], [0, 0]], ctx)]
    for _ in range(150):
        forms.append(random_form(rng.randint(1, 8), ctx, rng, height=rng.randint(1, 5)))
    for _ in range(150):
        n = rng.randint(1, 8)
        den = rng.choice((1, 2, p, 3 * p, p * p))
        rows = [[Fraction(x, den) for x in row] for row in _symmetric(rng, n, p, top=4)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j] = rows[i][j] / 2
        try:
            forms.append(validate_form(rows, ctx))
        except FormError:
            continue  # not half-integral at p
    assert len(forms) >= 200
    for form in forms:
        assert norm_ideal_ord(form) == ref_norm_ideal_ord(form), (form.rows, form.den)
    assert norm_ideal_ord(forms[0]) == norm_ideal_ord(forms[1]) == INF
