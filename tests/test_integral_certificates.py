"""Certificates from ``reduce_form`` have integral U and R over the form's own
denominator.  The references below are the reducers' outputs as they were
built before, U over the pivots (the Jordan split) or over the product e of
the clearing scales (the dyadic search), and R over den times the common
multiple of those scales; the library's certificate must be that one with
each column of U scaled by its least denominator f_k, a p-unit:
U_new = U_old·diag(f) and R_new = diag(f)·R_old·diag(f), with the same
exponents and involution.  Certificates from outside may still carry p-unit
column denominators, and the verifier accepts them."""

import json
import math
import random
from fractions import Fraction

import pytest

from gkinv import linalg
from gkinv.cli import main
from gkinv.egk import lift, random_egk, synthesize_nondyadic, synthesize_reduced
from gkinv.forms import (
    _from_rows,
    _norm_gcd,
    random_form,
    random_unimodular,
    transform,
    validate_form,
)
from gkinv.involutions import GKType, standard_involution
from gkinv.padic import PrimeContext, valuation
from gkinv.reducer import (
    ReductionCertificate,
    _candidates,
    _dyadic_search,
    _exact_split,
    complete_square,
    reduce_form,
    verify_certificate,
)
import parent_steps
from test_kernel import dyadic_corpus, dyadic_even_den_corpus, odd_corpus, parent_eliminate
from test_standard_layout import parent_standardize

CTX3 = PrimeContext(3)


def parent_jordan_split(form):
    """(M, U, exps, sigma, d, c) with B[U·diag(c)^-1] = M / d, c the pivots
    prev_k and d = den·lcm(prev_k)."""
    ctx, n = form.ctx, form.n
    m = [list(row) for row in form.rows]
    u = linalg.identity(n)
    prev, prevs, exps, last = 1, [], (), 0
    for k in range(n):
        v = valuation(_norm_gcd(m, k, ctx.p ** (last + exps[-1] + 1) if k else ctx.p), ctx)
        q = ctx.p ** (v + 1)
        parent_steps.pivot(m, k, lambda x: x % q, u)
        prevs.append(prev)
        exps += (v - last,)
        parent_eliminate(m, k, prev, u)
        prev, last = m[k][k], v
    l = math.lcm(*prevs)
    diag = [[m[i][i] * (l // prevs[i]) if i == j else 0 for j in range(n)] for i in range(n)]
    return diag, u, exps, standard_involution(exps), form.den * l, prevs


def parent_dyadic_search(form):
    """(M, U, exps, sigma, d, c) with B[U / e] = M / d, c = (e,) * n and
    d = den·e²."""
    ctx, n = form.ctx, form.n
    m, den = [list(row) for row in form.rows], form.den
    s = valuation(den, ctx)
    u = linalg.identity(n)
    e, exps, sigma = 1, (), ()
    while len(exps) < n:
        e *= parent_steps.clear_matrix(m, u, exps, sigma)
        c, kind, x, y = min(_candidates(m, s, exps, sigma, ctx))
        k = len(exps)
        if kind == 3:
            sh = complete_square(m[x][x], m[x][y], m[y][y], exps[x] + s, c + s, ctx)
            parent_steps.shear(m, x, y, sh, u)
            continue
        if kind == 0:
            chosen = (y,)
            sigma = tuple(k if i == x else sigma[i] for i in range(k)) + (x,)
            exps += (c,)
        elif kind == 1:
            chosen = (x, y)
            sigma += (k + 1, k)
            exps += (c, c)
        else:
            chosen = (x,)
            sigma += (k,)
            exps += (c,)
        for t, i in enumerate(chosen):
            parent_steps.move(m, i, k + t, u)
    return m, u, exps, sigma, den * e * e, (e,) * n


def parent_certificate(form):
    if form.ctx.p != 2:
        m, u, exps, sigma, d, c = parent_jordan_split(form)
    else:
        m, u, exps, sigma, d, c = parent_dyadic_search(form)
        sigma = parent_standardize(m, u, exps, sigma)
    return ReductionCertificate._of_rows(u, c, _from_rows(m, d, form.ctx), GKType(exps, sigma))


def through_column_scales(form, old):
    """A reducer's output of the old shape, (M, U, exps, sigma, d, c) with
    B[U·diag(c)^-1] = M / d, with each column of U·diag(c)^-1 scaled by its
    least denominator f_k: (M', U', exps, sigma) with U' = U·diag(c)^-1·diag(f)
    and M' / den = diag(f)·(M / d)·diag(f), both integer rows."""
    m, u, exps, sigma, d, c = old
    cols = [[Fraction(x, ck) for x in col] for col, ck in zip(zip(*u), c)]
    f = [math.lcm(*(x.denominator for x in col)) for col in cols]
    u_new = [[x * fk for x, fk in zip(row, f)] for row in zip(*cols)]
    m_new = [[Fraction(x * fi * fj * form.den, d) for x, fj in zip(row, f)]
             for row, fi in zip(m, f)]
    assert all(x.denominator == 1 for rows in (u_new, m_new) for row in rows for x in row)
    m_new, u_new = ([[int(x) for x in row] for row in rows] for rows in (m_new, u_new))
    return m_new, u_new, exps, sigma


def _scrambled(rng, p, n):
    """A form of a random EGK datum of size n, synthesized reduced and then
    scrambled by a random unimodular U, as the dyadic_scrambled and
    cli_batch benchmark corpora draw them."""
    ctx = PrimeContext(p)
    g = random_egk(rng, max_r=4, max_m=8, max_n=n)
    while g.n != n:
        g = random_egk(rng, max_r=4, max_m=8, max_n=n)
    r = synthesize_reduced(g, ctx) if p == 2 else synthesize_nondyadic(lift(g), ctx)
    return transform(r, random_unimodular(n, ctx, rng, steps=12))


def _zero_diagonal(rng, p, n, top=3):
    """A non-degenerate form with a zero diagonal, its entries units times
    powers p^0 to p^top over a denominator prime to p."""
    while True:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = rng.choice((0, 1, -1, 2, 4, 5)) * p ** rng.randint(0, top)
                m[i][j] = m[j][i] = Fraction(x, rng.choice((1, 2, p + 1)) if p != 2 else 3)
        form = validate_form(m, PrimeContext(p))
        if form.nondegenerate:
            return form


def corpora():
    """The golden corpora; odd_random-style forms (p = 3, 5, random_form at
    height 6, n = 6 and 8); dyadic_scrambled-style forms (p = 2, n = 5, 6);
    cli_batch-style forms (p = 2, 3, 5, 7, n = 3, 4)."""
    rng = random.Random("integral certificates")
    yield from dyadic_corpus() + dyadic_even_den_corpus() + odd_corpus()
    for k in range(50):
        yield random_form((6, 8)[k % 3 // 2], PrimeContext((3, 5)[k % 2]), rng, height=6)
        yield _scrambled(rng, 2, (5, 6)[k % 2])
        yield _scrambled(rng, (2, 3, 5, 7)[k % 4], (3, 4)[k % 5 // 4])


def test_certificates_are_the_parents_scaled_by_least_column_denominators():
    """A form at odd p with ord_p det B <= 1 takes ``_split_mod_p``, whose U
    is another one mod p^(ord_p det B + 1), and one with ord_p det B >= 2
    may keep U at the precision reducedness needs (``_short_columns``): there
    the exponents and involution are the parent's, and both certificates
    verify."""
    scaled = {True: 0, False: 0}  # forms whose old U had a denominator, by p = 2
    fixed = short = 0
    for form in corpora():
        old, new = parent_certificate(form), reduce_form(form)
        if form.ctx.p != 2 and (
            valuation(form.det, form.ctx) <= 1 or new.y != tuple(map(tuple, _exact_split(form)[1]))
        ):
            short += valuation(form.det, form.ctx) >= 2
            assert (new.exps, new.gk_type.sigma) == (old.exps, old.gk_type.sigma)
            assert verify_certificate(form, old) == verify_certificate(form, new) == (True, "ok")
            fixed += 1
            continue
        f = [math.lcm(*(x.denominator for x in col)) for col in zip(*old.u)]
        assert new.u == tuple(tuple(x * fj for x, fj in zip(row, f)) for row in old.u)
        r_old = old.reduced.entries
        assert new.reduced.entries == tuple(
            tuple(fi * x * fj for x, fj in zip(row, f)) for row, fi in zip(r_old, f)
        )
        assert (new.exps, new.gk_type.sigma) == (old.exps, old.gk_type.sigma)
        scaled[form.ctx.p == 2] += any(fj != 1 for fj in f)
    assert min(scaled.values()) >= 40 and fixed >= 30 and short >= 1, (scaled, fixed, short)


def test_reducer_outputs_are_the_parents_through_the_column_scales():
    for form in corpora():
        if form.ctx.p == 2:
            assert _dyadic_search(form) == through_column_scales(form, parent_dyadic_search(form))
        else:
            assert _exact_split(form) == through_column_scales(form, parent_jordan_split(form))


def _invariant_forms():
    rng = random.Random("integral invariant")
    for p in (2, 3, 5, 7):
        for k in range(12):
            n = 2 + k % 5
            yield random_form(n, PrimeContext(p), rng, height=rng.randint(1, 6))
            yield _scrambled(rng, p, n)
            yield _zero_diagonal(rng, p, n)
    yield random_form(40, CTX3, random.Random(40), height=14)


def test_reduce_form_certificates_are_integral_over_the_form_denominator():
    """Every certificate from reduce_form has column scales 1 and R over a
    divisor of B's denominator; before, U had p-unit column denominators and
    R had den·lcm of the pivots."""
    for form in _invariant_forms():
        cert = reduce_form(form)
        assert cert.c == (1,) * form.n
        assert form.den % cert.reduced.den == 0, (form.rows, form.den)


# 3·H at p = 3, the certificate the reducer gave for it before (U's second
# column has the unit 2 in its denominator), and a U with p in a denominator
# that still maps 3·H to a half-integral R
H3 = {"p": 3, "matrix": [["0", "3/2"], ["3/2", "0"]]}
H3_CERT = {
    "U": [["1", "-1/2"], ["1", "1/2"]],
    "R": [["3", "0"], ["0", "-3/4"]],
    "ua": [1, 1],
    "sigma": [2, 1],
}
H3_BAD = dict(H3_CERT, U=[["1", "1/3"], ["1", "0"]], R=[["3", "1/2"], ["1/2", "0"]])


def _rational(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _h3_cert(payload):
    sigma = tuple(s - 1 for s in payload["sigma"])
    r = validate_form(_rational(payload["R"]), CTX3)
    return ReductionCertificate(_rational(payload["U"]), r, GKType(tuple(payload["ua"]), sigma))


def test_outside_certificates_with_unit_column_denominators_verify():
    form = validate_form(_rational(H3["matrix"]), CTX3)
    cert = _h3_cert(H3_CERT)
    assert cert.gk_type.sigma == standard_involution((1, 1))
    assert cert.c == (1, 2)
    assert verify_certificate(form, cert) == (True, "ok")
    assert verify_certificate(form, _h3_cert(H3_BAD)) == (False, "transform is not unimodular")
    assert reduce_form(form).c == (1, 1)


@pytest.mark.parametrize(
    "payload, expect",
    [
        (H3_CERT, {"verified": True}),
        (H3_BAD, {"verified": False, "reason": "transform is not unimodular"}),
    ],
)
def test_gkinv_verify_reads_an_outside_certificate(tmp_path, capsys, payload, expect):
    form_path, cert_path = tmp_path / "h3.json", tmp_path / "h3_cert.json"
    form_path.write_text(json.dumps(H3))
    cert_path.write_text(json.dumps(payload))
    code = main(["verify", "--input", str(form_path), "--certificate", str(cert_path)])
    out = capsys.readouterr().out
    assert code == (0 if expect["verified"] else 2)
    assert json.loads(out) == expect
    if expect["verified"]:
        assert out == '{"verified":true}\n'
