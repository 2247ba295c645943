"""``jordan_split`` sends each odd-p form with ord_p det B = 0 to
``_unimodular_split``, which diagonalizes den·B over F_p and keeps U mod p.
The library's own exact split, ``_exact_split``, is the reference.  On odd_random-style
forms (the bench's draws, seeds 1-3), random p = 3, 5, 7 forms at n = 2-12
and zero-diagonal unimodular forms, both routes give the same exponents and
involution and both certificates verify; U's entries are balanced residues
mod p; the exposing shears of ``linalg.pivot`` are counted, so that path
provably runs; and ``reduce_form`` calls ``jordan_split`` once on every
odd-p form, and exactly those with ord_p det B = 0 take the new route.  R is formed by ``linalg.congruence`` and checked by the verifier's
own product, so a fault in either one is caught."""

import random

import pytest

from gkinv import linalg, reducer
from gkinv.forms import _from_rows, random_form
from gkinv.involutions import GKType
from gkinv.padic import PrimeContext, valuation
from gkinv.reducer import (
    ReductionCertificate,
    ReductionError,
    _exact_split,
    _unimodular_split,
    reduce_form,
    verify_certificate,
)
from test_integral_certificates import _zero_diagonal
from test_kernel import dyadic_corpus

# (p, n) in turn, as bench/corpus.py draws the odd_random workload
ODD_SHAPES = ((3, 6), (5, 6), (3, 8), (5, 6), (3, 6), (5, 8))


def _unimodular(form):
    return valuation(form.det, form.ctx) == 0


def _forms():
    """The first 100 odd_random forms of seeds 1-3; random p = 3, 5, 7 forms
    at n = 2-12 and heights 1-6; zero-diagonal forms at p = 3, 5, 7, n = 2-12,
    five unimodular ones per size."""
    for seed in (1, 2, 3):
        rng = random.Random(f"odd_random/{seed}")
        for k in range(100):
            p, n = ODD_SHAPES[k % len(ODD_SHAPES)]
            yield random_form(n, PrimeContext(p), rng, height=6)
    rng = random.Random("unimodular split")
    for p in (3, 5, 7):
        for n in range(2, 13):
            for _ in range(4):
                yield random_form(n, PrimeContext(p), rng, height=rng.randint(1, 6))
            kept = 0
            while kept < 5:
                form = _zero_diagonal(rng, p, n)
                if _unimodular(form):
                    kept += 1
                    yield form


def _certificate(form, split):
    m, u, exps, sigma = split(form)
    r = _from_rows(m, form.den, form.ctx)
    return ReductionCertificate._of_rows(u, (1,) * form.n, r, GKType(exps, sigma))


def test_unimodular_split_matches_the_exact_split(monkeypatch):
    shears = []
    step = linalg.shear
    monkeypatch.setattr(linalg, "shear", lambda m, *a: shears.append(a) or step(m, *a))
    seen = exposing = 0
    for form in _forms():
        if not _unimodular(form):
            continue
        seen += 1
        before = len(shears)
        new = _certificate(form, _unimodular_split)
        exposing += len(shears) - before
        ref = _certificate(form, _exact_split)
        assert (new.exps, new.gk_type.sigma) == (ref.exps, ref.gk_type.sigma)
        assert verify_certificate(form, new) == verify_certificate(form, ref) == (True, "ok")
        assert all(2 * abs(x) < form.ctx.p for row in new.y for x in row)
    assert seen >= 400 and exposing >= 300, (seen, exposing)


def test_exactly_the_unimodular_odd_forms_take_the_new_route(monkeypatch):
    calls = {"_dyadic_search": 0, "jordan_split": 0, "_exact_split": 0, "_unimodular_split": 0}
    for name in calls:

        def counted(form, _name=name, _original=getattr(reducer, name)):
            calls[_name] += 1
            return _original(form)

        monkeypatch.setattr(reducer, name, counted)
    taken = dict.fromkeys(calls, 0)
    for form in [*_forms(), *dyadic_corpus(20)]:
        before = dict(calls)
        reduce_form(form)
        if form.ctx.p == 2:
            route = {"_dyadic_search"}
        else:
            route = {"jordan_split", "_unimodular_split" if _unimodular(form) else "_exact_split"}
        assert {k for k in calls if calls[k] != before[k]} == route
        assert all(calls[k] == before[k] + 1 for k in route)
        for k in route:
            taken[k] += 1
    assert min(taken.values()) >= 20, taken


def _unimodular_form():
    form = random_form(8, PrimeContext(3), random.Random(1), height=6)
    assert _unimodular(form)
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
