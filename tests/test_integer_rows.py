"""The integer-row readers give the verdicts of the Fraction readers they
replaced.  The references below are those Fraction versions, kept here as
written: each reads a matrix of Fractions entry by entry.  They are compared
with the library on random, synthesized and tampered inputs, Fraction
transforms among them (p in a denominator, and a unit denominator such as
1/2 at p = 3), and every comparison reaches both verdicts."""

import random
from fractions import Fraction

import pytest

from gkinv import linalg
from gkinv.egk import lift, random_egk, synthesize_nondyadic, synthesize_reduced
from gkinv.forms import (
    FormError,
    in_gk_group,
    is_unimodular,
    matrix_in_lattice,
    random_form,
    random_unimodular,
    transform,
)
from gkinv.invariants import is_optimal_binary
from gkinv.involutions import GKType, standard_involutions
from gkinv.padic import PrimeContext, valuation
from gkinv.reducer import dyadic_pair_conditions, reduce_form
from gkinv.selfcheck import _random_gk_group_element

CTXS = tuple(PrimeContext(p) for p in (2, 3, 5))
CTX2 = CTXS[0]


def ref_is_unimodular(u, ctx):
    p = ctx.p
    if any(len(row) != len(u) for row in u):
        return False
    if any(x.denominator % p == 0 for row in u for x in row):
        return False
    a = [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in u]
    while a:
        piv = next((r for r in a if r[0]), None)
        if piv is None:
            return False
        a.remove(piv)
        c = pow(piv[0], -1, p)
        a = [[(x - r[0] * c * y) % p for x, y in zip(r, piv)][1:] if r[0] else r[1:] for r in a]
    return True


def ref_in_gk_group(u, exps, ctx):
    u = linalg.mat(u)
    n = len(u)
    if not ref_is_unimodular(u, ctx):
        return False
    return all(
        2 * valuation(u[i][j], ctx) >= exps[j] - exps[i]
        for i in range(n)
        for j in range(n)
        if exps[i] < exps[j]
    )


def ref_matrix_in_lattice(entries, exps, ctx, strict=False):
    n = len(entries)
    e = ctx.e
    for i in range(n):
        vi = valuation(entries[i][i], ctx)
        if (vi <= exps[i]) if strict else (vi < exps[i]):
            return False
        for j in range(i + 1, n):
            w = 2 * (valuation(entries[i][j], ctx) + e)
            bound = exps[i] + exps[j]
            if (w <= bound) if strict else (w < bound):
                return False
    return True


def ref_dyadic_pair_conditions(form, gk_type):
    b, exps, sigma = form.entries, gk_type.exps, gk_type.sigma
    for i in range(form.n):
        j = sigma[i]
        if j == i:
            continue
        if 2 * (valuation(b[i][j], form.ctx) + 1) != exps[i] + exps[j]:
            return False
        if exps[i] < exps[j] and valuation(b[i][i], form.ctx) != exps[i]:
            return False
    return True


def ref_is_optimal_binary(form, exps):
    a1, a2 = exps
    ctx = form.ctx
    b = form.entries
    ord2b = valuation(b[0][1], ctx) + ctx.e
    if a1 == a2:
        return ord2b == a1
    if (a2 - a1) % 2 == 0:
        f = (a2 - a1) // 2
        return valuation(b[0][0], ctx) == a1 and ord2b == a1 + f
    return valuation(b[0][0], ctx) == a1 and valuation(b[1][1], ctx) == a2


def _forms(rng, ctx, count):
    """Random forms, synthesized reduced ones and scrambled copies of both."""
    for _ in range(count):
        b = random_form(rng.randint(1, 4), ctx, rng, height=rng.randint(1, 3))
        g = random_egk(rng, max_r=3, max_m=3, max_n=4)
        r = synthesize_reduced(g, ctx) if ctx.p == 2 else synthesize_nondyadic(lift(g), ctx)
        for f in (b, r):
            yield f
            yield transform(f, random_unimodular(f.n, ctx, rng))


def _tamper(u, ctx, rng):
    """U with one entry moved: off Z_p, by a unit fraction, by a multiple of
    p, or with a row made divisible by p."""
    u = [list(row) for row in linalg.mat(u)]
    n = len(u)
    i, j = rng.randrange(n), rng.randrange(n)
    unit = rng.choice([t for t in (1, 2, 3, 4, 5, 7) if t % ctx.p])
    kind = rng.randrange(4)
    if kind == 0:
        u[i][j] += Fraction(rng.randint(1, 3), ctx.p)
    elif kind == 1:
        u[i][j] *= Fraction(1, unit)
    elif kind == 2:
        u[i][j] += ctx.p * rng.randint(-2, 2)
    else:
        u[i] = [ctx.p * x for x in u[i]]
    return u


def _denominator(u):
    return linalg._scaled(linalg.mat(u))[1]


def test_is_unimodular_same_verdicts():
    rng = random.Random("is_unimodular")
    seen = set()
    for ctx in CTXS:
        for _ in range(120):
            n = rng.randint(1, 5)
            cases = [
                random_unimodular(n, ctx, rng),
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)],
                [[rng.getrandbits(200) - (1 << 199) for _ in range(n)] for _ in range(n)],
            ]
            for u in cases:
                got = is_unimodular(u, ctx)
                assert got == ref_is_unimodular(linalg.mat(u), ctx), (ctx.p, u)
                seen.add(got)
        for b in _forms(rng, ctx, 15):
            if b.nondegenerate:
                y = reduce_form(b).y
                assert is_unimodular(y, ctx) == ref_is_unimodular(linalg.mat(y), ctx) is True
    assert seen == {True, False}


def test_in_gk_group_same_verdicts():
    rng = random.Random("in_gk_group")
    seen = set()
    for ctx in CTXS:
        for _ in range(150):
            n = rng.randint(1, 5)
            exps = tuple(sorted(rng.randint(0, 4) for _ in range(n)))
            u = _random_gk_group_element(exps, ctx, rng)
            # a unit scale on a column keeps U in the group: 1/2 at p = 3
            unit = rng.choice([t for t in (2, 3, 5, 7) if t % ctx.p])
            k = rng.randrange(n)
            scaled = [[x * Fraction(1, unit) if c == k else x for c, x in enumerate(row)] for row in u]
            for v in (u, scaled, _tamper(u, ctx, rng), _tamper(scaled, ctx, rng)):
                got = in_gk_group(v, exps, ctx)
                assert got == ref_in_gk_group(v, exps, ctx), (ctx.p, exps, v)
                seen.add((_denominator(v) % ctx.p == 0, _denominator(v) > 1, got))
            v = random_unimodular(n, ctx, rng)
            assert in_gk_group(v, exps, ctx) == ref_in_gk_group(v, exps, ctx)
    for _ in range(40):
        g = random_egk(rng, max_r=3, max_m=3, max_n=5)
        cert = reduce_form(synthesize_reduced(g, CTX2))
        for v in (cert.u, _tamper(cert.u, CTX2, rng)):
            assert in_gk_group(v, cert.exps, CTX2) == ref_in_gk_group(v, cert.exps, CTX2)
    # (p divides the denominator, a denominator at all, verdict): a unit
    # denominator reaches both verdicts, and p in one only False
    assert seen == {(False, False, True), (False, False, False), (False, True, True),
                    (False, True, False), (True, True, False)}


def test_matrix_in_lattice_same_verdicts():
    rng = random.Random("matrix_in_lattice")
    seen = set()
    for ctx in CTXS:
        for b in _forms(rng, ctx, 40):
            for _ in range(4):
                exps = tuple(rng.randint(-2, 3) for _ in range(b.n))
                for strict in (False, True):
                    got = matrix_in_lattice(b.rows, b.den, exps, ctx, strict)
                    assert got == ref_matrix_in_lattice(b.entries, exps, ctx, strict)
                    seen.add((strict, got))
            # integer rows over a denominator that is not the least one
            rows = [[6 * x for x in row] for row in b.rows]
            exps = tuple(rng.randint(-1, 2) for _ in range(b.n))
            want = ref_matrix_in_lattice(b.entries, exps, ctx)
            assert matrix_in_lattice(rows, 6 * b.den, exps, ctx) == want
    assert seen == {(False, True), (False, False), (True, True), (True, False)}
    with pytest.raises(FormError, match="exponent sequence length mismatch"):
        matrix_in_lattice([[1]], 1, (0, 0), CTX2)


def test_dyadic_pair_conditions_same_verdicts():
    rng = random.Random("dyadic_pair_conditions")
    seen = set()
    for b in _forms(rng, CTX2, 60):
        if not b.nondegenerate:
            continue
        cert = reduce_form(b)
        types = [cert.gk_type]
        types += [GKType(cert.exps, s) for s in standard_involutions(cert.exps)]
        for form in (cert.reduced, b):
            for gk_type in types:
                got = dyadic_pair_conditions(form, gk_type)
                assert got == ref_dyadic_pair_conditions(form, gk_type)
                seen.add(got)
    assert seen == {True, False}


def test_is_optimal_binary_same_verdicts():
    rng = random.Random("is_optimal_binary")
    seen = set()
    forms = [random_form(2, CTX2, rng, height=rng.randint(1, 4)) for _ in range(150)]
    for _ in range(60):
        g = random_egk(rng, max_r=2, max_m=4, max_n=2)
        if g.n == 2:
            r = synthesize_reduced(g, CTX2)
            forms += [r, transform(r, random_unimodular(2, CTX2, rng))]
    for b in forms:
        for a1 in range(4):
            for a2 in range(a1, 6):
                if not ref_matrix_in_lattice(b.entries, (a1, a2), CTX2):
                    continue
                got = is_optimal_binary(b, (a1, a2))
                assert got == ref_is_optimal_binary(b, (a1, a2)), (b.entries, a1, a2)
                seen.add(got)
    assert seen == {True, False}
