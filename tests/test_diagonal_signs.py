"""At odd p ``leading_signs`` reads the block signs of R off its diagonal
(``invariants._diagonal_classes``) when den·R is diagonal up to higher
orders: ord r_ii = v_i, v non-decreasing, and ord r_ij > (v_i + v_j)/2 for
i < j.  Otherwise it runs its pivot chain, as at p = 2.  The reference is
``leading_signs`` through ``linalg.pivot_chain``, with the diagonal read
switched off.  A reduced odd-p R with a zero-diagonal pair fails the
condition and gets the chain's signs; every R of the odd-p reducers meets
it, on every odd-p item of the four bench pools, seeds 1-3, and on the
large forms of ``tools/large_forms.py`` that a test can afford (the
many-block forms at n = 40 and 80 and the d = 1 form "80/3"), and there the
diagonal read equals the chain."""

from __future__ import annotations

import random

import parent_chain
import pytest

from gkinv import invariants, linalg
from gkinv.forms import FormError, _from_rows, random_form
from gkinv.involutions import GKType, blocks
from gkinv.padic import PrimeContext
from gkinv.reducer import is_reduced, reduce_form
from test_read_side import _bench, _bench_pool
from test_smith_exponents import many_block_form

POOLS = ["verify_invariants", "dyadic_scrambled", "odd_random", "cli_batch"]


def _outcome(fn, *args):
    """fn(*args), or the type and message of the FormError it raises."""
    try:
        return fn(*args)
    except FormError as ex:
        return FormError, str(ex)


def chain_signs(form, ends, monkeypatch):
    """``leading_signs`` through ``linalg.pivot_chain``, the diagonal read
    switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(invariants, "_diagonal_classes", lambda *args: None)
        return _outcome(invariants.leading_signs, form, ends)


def _ends(exps):
    bl = blocks(exps)
    return [start + size for start, size in zip(bl.starts, bl.sizes)]


def assert_diagonal_read(r, ends, monkeypatch) -> None:
    """R meets the condition, and its signs over ``ends`` and over every
    prefix are the chain's, read with no chain."""
    assert invariants._diagonal_classes(r.rows, r.n, r.ctx.p) is not None
    chains = []
    chain = linalg.pivot_chain
    for e in (ends, range(1, r.n + 1)):
        want = chain_signs(r, e, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "pivot_chain", lambda a, x: chains.append(x) or chain(a, x))
            assert invariants.leading_signs(r, e) == want
    assert not chains


def test_a_reduced_pair_with_a_zero_diagonal_gets_the_chains_signs(monkeypatch):
    """R = H + (3) at p = 3, H = [[0, 1/2], [1/2, 0]]: reduced of type
    (0, 0, 1) with the standard pair (0, 1), whose diagonal is zero.  The
    diagonal read refuses it, and ``leading_signs`` runs the chain, which
    finds the leading 1-block degenerate."""
    r = _from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 6]], 2, PrimeContext(3))
    gk_type = GKType((0, 0, 1), (1, 0, 2))
    assert is_reduced(r, gk_type)
    assert invariants._diagonal_classes(r.rows, 3, 3) is None
    chains = []
    chain = linalg.pivot_chain
    for ends in (_ends(gk_type.exps), [1, 2, 3], [3]):
        want = chain_signs(r, ends, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "pivot_chain", lambda a, e: chains.append(e) or chain(a, e))
            assert _outcome(invariants.leading_signs, r, ends) == want
        assert chains.pop() == ends
    assert chain_signs(r, [1, 2, 3], monkeypatch) == (FormError, "degenerate form")
    assert chain_signs(r, [2, 3], monkeypatch) == parent_chain.leading_signs(r, [2, 3])


@pytest.mark.parametrize(
    "rows, why",
    [
        ([[3, 0], [0, 1]], "orders decrease"),
        ([[1, 1], [1, 3]], "ord r_01 = 0 is not above (0 + 1)/2"),
        ([[3, 3], [3, 9]], "ord r_01 = 1 is not above (1 + 2)/2"),
        ([[1, 0], [0, 0]], "a zero diagonal entry"),
    ],
)
def test_the_condition_is_read_by_divisibility(rows, why):
    assert invariants._diagonal_classes(rows, 2, 3) is None, why


def test_the_classes_are_running_products_mod_p():
    """Each running product as p^(v mod 2)·(u mod p).  At p = 7 the units
    6, 45 = 3 and -27 = 1 give 6, 4, 4.  At p = 3 the diagonal 2, 3·2, 3^2·5
    (r_12 = 9 of order 2 > (1 + 2)/2) gives 2, 3·(2·2 mod 3) = 3 and
    3·(1·5 mod 3) = 6."""
    assert invariants._diagonal_classes([[6, 0, 0], [0, 45, 0], [0, 0, -27]], 3, 7) == [6, 4, 4]
    assert invariants._diagonal_classes([[2, 0, 0], [0, 6, 9], [0, 9, 45]], 3, 3) == [2, 3, 6]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", POOLS)
def test_the_diagonal_read_is_the_chain_on_the_pools(name, seed, monkeypatch):
    """On every odd-p item: R meets the condition and reads as the chain;
    on ``verify_invariants`` the claimed R, tampered or not, reads as the
    chain too, through whichever route it takes."""
    worker = _bench("worker")
    seen = 0
    for payload, _ in _bench_pool(name, seed):
        if payload["p"] == 2:
            continue
        seen += 1
        if name == "verify_invariants":
            form, claimed = worker.parse_item(name, payload)
            r = claimed.reduced
            ends = list(range(1, r.n + 1))
            assert _outcome(invariants.leading_signs, r, ends) == chain_signs(r, ends, monkeypatch)
        else:
            form = worker.parse_form(payload)
        cert = reduce_form(form)
        assert_diagonal_read(cert.reduced, _ends(cert.exps), monkeypatch)
    assert (seen > 0) == (name != "dyadic_scrambled")


@pytest.mark.parametrize("which", ["many40", "many80", "80/3"])
def test_the_diagonal_read_is_the_chain_on_large_forms(which, monkeypatch):
    if which.startswith("many"):
        form, _ = many_block_form(int(which[4:]))
    else:
        form = random_form(80, PrimeContext(3), random.Random(which), height=14)
    cert = reduce_form(form)
    r, ends = cert.reduced, _ends(cert.exps)
    assert invariants.leading_signs(r, ends) == chain_signs(r, ends, monkeypatch)
    assert invariants._diagonal_classes(r.rows, r.n, 3) is not None
