"""One elimination per form: ``form.pivots``, the pivot chain of den·B
(``linalg.pivot_chain``), gives both det B, its last pivot over den^n, and
eta, the Hilbert symbols of its pivots' square classes.  det B is compared
with ``linalg.det``, kept as the reference, and eta and the leading signs of
the reduced forms with ``parent_chain``, where eta ran an elimination of its
own: on the bench pools of a 1 s run, seeds 1-3, each form rebuilt by
``_from_rows`` so that nothing is cached.  ``validate_form`` then ``eta``
eliminate once in all; a degenerate form has det 0 and no eta, and the empty
form has det 1."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import parent_chain as parent
import pytest

from gkinv import invariants, linalg
from gkinv.forms import FormError, _from_rows, random_form, validate_form
from gkinv.involutions import blocks
from gkinv.padic import PrimeContext
from gkinv.reducer import reduce_form
from test_degenerate_forms import _forms as degenerate_forms
from test_invariants import _zero_diagonal_forms
from test_read_side import _bench, _bench_pool

POOLS = ["verify_invariants", "dyadic_scrambled", "odd_random", "cli_batch"]


def _fresh(form):
    return _from_rows(form.rows, form.den, form.ctx)


@lru_cache(maxsize=None)
def _pool_forms(name: str, seed: int):
    """The pool's forms and the reduced forms of their certificates: the
    claimed R of each ``verify_invariants`` item, genuine or tampered, and
    ``reduce_form``'s R for the other pools."""
    worker = _bench("worker")
    out = []
    for payload, _ in _bench_pool(name, seed):
        if name == "verify_invariants":
            form, cert = worker.parse_item(name, payload)
        else:
            form = worker.parse_form(payload)
            cert = reduce_form(form)
        out.append((_fresh(form), _fresh(cert.reduced), cert.exps))
    return out


def _ends(exps):
    bl = blocks(exps)
    return [start + size for start, size in zip(bl.starts, bl.sizes)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", POOLS)
def test_det_is_the_last_pivot_of_the_chain(name, seed):
    """form.det equals linalg.det(den·B) / den^n on every form of the pool
    and every reduced form; the chain has n pivots, the last one det(den·B),
    exactly when that det is not 0 (a tampered R may be degenerate)."""
    for items in _pool_forms(name, seed):
        for form in items[:2]:
            fresh, ref = _fresh(form), linalg.det(form.rows)
            assert fresh.det == Fraction(ref, form.den**form.n)
            assert (len(fresh.pivots) == form.n) == (ref != 0)
            assert fresh.pivots[-1] == ref if ref else len(fresh.pivots) < form.n


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", POOLS)
def test_eta_and_the_block_signs_read_as_parent(name, seed, monkeypatch):
    """eta of each form, read off its cached chain, equals the parent's,
    which eliminated on its own, with the square class of the same pivots
    read once each (the parent by ``_unit_class``, before its Hilbert
    symbols; the change by ``_class_bits``, whose bits the symbols read);
    the leading signs of each reduced form over its block ends, the signs
    that ``egk_of`` reads, equal the parent's."""
    reads = {"change": 0, "parent": 0}

    def counted(side, real):
        def run(*args):
            reads[side] += 1
            return real(*args)

        return run

    monkeypatch.setattr(invariants, "_class_bits", counted("change", invariants._class_bits))
    monkeypatch.setattr(parent, "_unit_class", counted("parent", parent._unit_class))
    for form, reduced, exps in _pool_forms(name, seed):
        assert invariants.eta(_fresh(form)) == parent.eta(form)
        ends = _ends(exps)
        got = _outcome(invariants.leading_signs, reduced, ends)
        assert got == _outcome(parent.leading_signs, reduced, ends)
    assert reads["change"] == reads["parent"] > 0


def _outcome(fn, *args):
    """fn(*args), or the type and message of the FormError it raises."""
    try:
        return fn(*args)
    except FormError as ex:
        return FormError, str(ex)


def test_validate_form_then_eta_eliminate_once(monkeypatch):
    """validate_form runs the one chain of den·B, n pivot steps and no
    ``linalg.det`` or ``linalg.eliminate``, and eta after it eliminates
    nothing, on random forms at p = 2, 3, 5 and 7 and on forms whose pivots
    need a move or an exposing shear."""
    steps, chains, calls = [], [], []
    chain = linalg.pivot_chain
    rng = random.Random("one elimination")
    forms = _zero_diagonal_forms(rng)
    forms += [random_form(n, PrimeContext(p), rng) for p in (2, 3, 5, 7) for n in range(1, 9)]

    def counted(rows, ends):
        chains.append(rows)
        for piv in chain(rows, ends):
            steps.append(piv)
            yield piv

    monkeypatch.setattr(linalg, "pivot_chain", counted)
    for name in ("det", "eliminate"):
        monkeypatch.setattr(linalg, name, lambda *a, _name=name: calls.append(_name))
    for form in forms:
        steps.clear()
        chains.clear()
        checked = validate_form(form.entries, form.ctx)
        value = invariants.eta(checked)
        assert len(steps) == form.n and chains == [checked.rows] and not calls
        assert value == parent.eta(form)


def test_a_degenerate_form_has_det_0_and_no_eta():
    """The degenerate forms at p = 2, 3, 5 and 7: the chain stops short, det
    is 0, as linalg.det says, and eta raises FormError("degenerate form")."""
    forms = degenerate_forms((2, 3, 5, 7))
    assert {form.ctx.p for form, _ in forms} == {2, 3, 5, 7}
    for form, _ in forms:
        fresh = _fresh(form)
        assert fresh.det == 0 == linalg.det(form.rows)
        assert len(fresh.pivots) < form.n
        with pytest.raises(FormError, match="^degenerate form$"):
            invariants.eta(fresh)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_the_empty_form_has_det_1(p):
    empty = validate_form((), PrimeContext(p))
    assert empty.pivots == () and empty.det == 1 == linalg.det(())
    assert invariants.eta(empty) == parent.eta(empty) == 1
