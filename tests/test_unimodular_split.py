"""``jordan_split`` runs ``_split_mod_p`` on every odd-p form first: it
diagonalizes den·B over F_p, keeps U mod p for each form with
d = ord_p det B <= 1 and returns None for every other one, which goes on to
``_exact_split``.  The library's own exact split is the reference.  On
odd_random-style forms (the bench's draws, seeds 1-3), random p = 3, 5, 7
forms at n = 2-12 and zero-diagonal forms with d = 0 and d = 1, both routes
give the same exponents and involution and both certificates verify; U's
entries are balanced residues mod p; R's last diagonal entry has order
exactly d; the exposing shears of ``linalg.pivot`` are counted, so that path
provably runs; at d = 1 any other lift of U mod p certifies too, so no digit
past the first is needed; ``reduce_form`` calls ``jordan_split`` and
``_split_mod_p`` once on every odd-p form, and exactly those with d >= 2 go
on to ``_exact_split``; and a degenerate form, whichever way the split over
F_p gives it up, raises ``FormError`` from the exact split, and through the
CLI.  R is formed by ``linalg.congruence`` and checked by the verifier's own
product, so a fault in either one is caught."""

import json
import random

import pytest

from gkinv import linalg, reducer
from gkinv.cli import _form_payload, main
from gkinv.forms import FormError, _from_rows, random_form
from gkinv.involutions import GKType
from gkinv.padic import PrimeContext, valuation
from gkinv.reducer import (
    ReductionCertificate,
    ReductionError,
    _exact_split,
    _split_mod_p,
    reduce_form,
    verify_certificate,
)
from test_integral_certificates import _zero_diagonal
from test_kernel import dyadic_corpus

# (p, n) in turn, as bench/corpus.py draws the odd_random workload
ODD_SHAPES = ((3, 6), (5, 6), (3, 8), (5, 6), (3, 6), (5, 8))


def _order(form):
    """d = ord_p det B."""
    return valuation(form.det, form.ctx)


def _rank_mod_p(form):
    """The rank of den·B mod p, by Gaussian elimination over F_p."""
    p = form.ctx.p
    m = [[x % p for x in row] for row in form.rows]
    rank = 0
    for k in range(form.n):
        i = next((i for i in range(rank, form.n) if m[i][k]), None)
        if i is None:
            continue
        m[rank], m[i] = m[i], m[rank]
        w = pow(m[rank][k], -1, p)
        for j in range(rank + 1, form.n):
            c = m[j][k] * w % p
            m[j] = [(x - c * y) % p for x, y in zip(m[j], m[rank])]
        rank += 1
    return rank


def _forms():
    """The first 100 odd_random forms of seeds 1-3; random p = 3, 5, 7 forms
    at n = 2-12 and heights 1-6; zero-diagonal forms at p = 3, 5, 7, n = 2-12,
    five with d = 0 per size and, from n = 3 on, five with d = 1 (a
    zero-diagonal binary form has det -b², of even order), drawn with entries
    of order at most 1, among which d = 1 is common."""
    for seed in (1, 2, 3):
        rng = random.Random(f"odd_random/{seed}")
        for k in range(100):
            p, n = ODD_SHAPES[k % len(ODD_SHAPES)]
            yield random_form(n, PrimeContext(p), rng, height=6)
    rng, order_one = random.Random("unimodular split"), random.Random("order one")
    for p in (3, 5, 7):
        for n in range(2, 13):
            for _ in range(4):
                yield random_form(n, PrimeContext(p), rng, height=rng.randint(1, 6))
            kept = 0
            while kept < 5:
                form = _zero_diagonal(rng, p, n)
                if _order(form) == 0:
                    kept += 1
                    yield form
            kept = 0
            while kept < 5 and n > 2:
                form = _zero_diagonal(order_one, p, n, top=1)
                if _order(form) == 1:
                    kept += 1
                    yield form


def _certificate(form, rows):
    m, u, exps, sigma = rows
    r = _from_rows(m, form.den, form.ctx)
    return ReductionCertificate._of_rows(u, (1,) * form.n, r, GKType(exps, sigma))


def _matches_the_exact_split(monkeypatch, d):
    """(forms seen, exposing shears) over the forms of order d, asserting on
    each what the module docstring lists."""
    shears = []
    step = linalg.shear
    monkeypatch.setattr(linalg, "shear", lambda m, *a: shears.append(a) or step(m, *a))
    seen = exposing = 0
    for form in _forms():
        if _order(form) != d:
            continue
        seen += 1
        before = len(shears)
        new = _certificate(form, _split_mod_p(form))
        exposing += len(shears) - before
        ref = _certificate(form, _exact_split(form))
        assert (new.exps, new.gk_type.sigma) == (ref.exps, ref.gk_type.sigma)
        assert verify_certificate(form, new) == verify_certificate(form, ref) == (True, "ok")
        assert all(2 * abs(x) < form.ctx.p for row in new.y for x in row)
        r = new.reduced
        assert valuation(r.rows[-1][-1], form.ctx) - valuation(r.den, form.ctx) == d
    return seen, exposing


def test_unimodular_split_matches_the_exact_split(monkeypatch):
    seen, exposing = _matches_the_exact_split(monkeypatch, 0)
    assert seen >= 400 and exposing >= 300, (seen, exposing)


def test_order_one_split_matches_the_exact_split(monkeypatch):
    seen, exposing = _matches_the_exact_split(monkeypatch, 1)
    assert seen >= 150 and exposing >= 50, (seen, exposing)


def test_any_lift_of_u_mod_p_certifies_an_order_one_form():
    """At d = 1 the certificate rests on U mod p alone: with V = U + p·E for
    a random integer E, R = B[V] still has order exactly 1 at the last
    diagonal entry, as det(den·R) is the diagonal product mod p², so V
    certifies the same type."""
    rng = random.Random("lift")
    seen = 0
    for form in _forms():
        if _order(form) != 1:
            continue
        seen += 1
        m, u, exps, sigma = _split_mod_p(form)
        p = form.ctx.p
        v = [[x + p * rng.randint(-p, p) for x in row] for row in u]
        cert = _certificate(form, (linalg.congruence(form.rows, v), v, exps, sigma))
        assert verify_certificate(form, cert) == (True, "ok")
    assert seen >= 150, seen


def test_the_split_over_f_p_gives_up_every_form_of_order_two_or_more():
    """``_split_mod_p`` returns None on each form with d >= 2, both where the
    tail runs out of units early and where the last diagonal entry t of den·R
    is divisible by p² (rank n - 1 mod p): it never needs det B to tell."""
    ranks = set()
    for form in _forms():
        if _order(form) >= 2:
            assert _split_mod_p(form) is None, (form.rows, form.den)
            ranks.add(form.n - _rank_mod_p(form))
    assert {1, 2} <= ranks, ranks


def test_exactly_the_unimodular_odd_forms_take_the_new_route(monkeypatch):
    """Every odd-p form calls ``_split_mod_p`` once, and exactly those with
    d >= 2 go on to ``_exact_split``, once; a p = 2 form takes neither."""
    names = ("_dyadic_search", "jordan_split", "_exact_split", "_split_mod_p")
    calls = dict.fromkeys(names, 0)
    for name in calls:

        def counted(*args, _name=name, _original=getattr(reducer, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(reducer, name, counted)
    taken = dict.fromkeys(calls, 0)
    orders = set()
    for form in [*_forms(), *dyadic_corpus(20)]:
        before = dict(calls)
        reduce_form(form)
        if form.ctx.p == 2:
            route = {"_dyadic_search"}
        else:
            orders.add(_order(form))
            route = {"jordan_split", "_split_mod_p"}
            if _order(form) >= 2:
                route.add("_exact_split")
        assert {k for k in calls if calls[k] != before[k]} == route
        assert all(calls[k] == before[k] + 1 for k in route)
        for k in route:
            taken[k] += 1
    assert min(taken.values()) >= 20 and {0, 1, 2} <= orders, (taken, orders)


def _unimodular_form():
    form = random_form(8, PrimeContext(3), random.Random(1), height=6)
    assert _order(form) == 0
    return form


@pytest.mark.parametrize("name", ["congruence", "matmul"])
def test_a_faulty_product_is_caught_by_the_verifier(name, monkeypatch):
    """Doubling every entry keeps R symmetric and reduced (2 is a unit at odd
    p), so only the map check can see it: R formed by a faulty
    ``congruence``, or checked by a faulty ``matmul``, is rejected."""
    product = getattr(linalg, name)

    def faulty(a, b):
        return tuple(tuple(2 * x for x in row) for row in product(a, b))

    monkeypatch.setattr(linalg, name, faulty)
    with pytest.raises(ReductionError, match="transform does not map the source to the claimed"):
        reduce_form(_unimodular_form())
    monkeypatch.setattr(linalg, name, product)
    assert reduce_form(_unimodular_form()).exps == (0,) * 8


def _degenerate(rng, p, n, family):
    """A form with det B = 0 exactly, as t(C)·A·C / den for a random integer
    k x n matrix C, k < n: family 0 takes A = diag(1, p, ..., p), k = n - 1,
    so den·B has rank at most 1 <= n - 2 mod p; family 1 takes A = 1,
    k = n - 1, kept when den·B has rank n - 1 mod p, so t = 0 mod p²; family
    2 takes a symmetric A with diagonal 2 and den = 2 at any rank k < n,
    the zero form included, with half-integral entries off the diagonal."""
    k = n - 1 if family < 2 else rng.randrange(n)
    while True:
        c = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        a = [[0] * k for _ in range(k)]
        for i in range(k):
            a[i][i] = (1 if i == 0 else p) if family == 0 else 1 if family == 1 else 2
            for j in range(i + 1, k):
                a[i][j] = a[j][i] = rng.randint(-2, 2) if family == 2 else 0
        ca = [[sum(c[s][i] * a[s][t] for s in range(k)) for t in range(k)] for i in range(n)]
        rows = [[sum(x * y for x, y in zip(ca[i], (cr[j] for cr in c))) for j in range(n)]
                for i in range(n)]
        form = _from_rows(*linalg.lowest(rows, 2 if family == 2 else 1), PrimeContext(p))
        if family != 1 or _rank_mod_p(form) == n - 1:
            return form


def test_a_degenerate_odd_form_is_rejected_by_the_exact_split(tmp_path, capsys):
    """Degenerate forms at p = 3, 5, 7, n = 2-7, of rank <= n - 2 mod p, of
    rank n - 1 mod p (so t = 0 mod p²) and half-integral ones of any rank:
    ``_split_mod_p`` gives each up and ``reduce_form`` raises
    ``FormError("degenerate form")`` from the exact split's zero tail.
    ``gkinv reduce``, with --jobs 1 and in a pool of two behind a valid
    form, exits 1 with one invalid_input JSON document naming it."""
    rng = random.Random("degenerate")
    batches = []
    for p in (3, 5, 7):
        for family in range(3):
            for n in range(2 if family == 2 else 3, 8):
                form = _degenerate(rng, p, n, family)
                assert form.det == 0 and (family != 0 or _rank_mod_p(form) <= n - 2)
                fresh = _from_rows(form.rows, form.den, form.ctx)
                assert _split_mod_p(fresh) is None and "det" not in vars(fresh)
                with pytest.raises(FormError, match="^degenerate form$"):
                    reduce_form(fresh)
                if n == 4:
                    batches.append([{"p": p, "matrix": [["1", "0"], ["0", "1"]]},
                                    _form_payload(form)])
    assert len(batches) == 9
    for k, batch in enumerate(batches):
        path = tmp_path / f"degenerate{k}.json"
        path.write_text(json.dumps(batch))
        for jobs in ("1", "2"):
            assert main(["reduce", "--input", str(path), "--jobs", jobs]) == 1
            out = capsys.readouterr().out
            assert out == '{"detail":"degenerate form","error":"invalid_input"}\n', (k, jobs)
