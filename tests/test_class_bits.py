"""Hilbert symbols read off square-class bits.  ``padic._class_bits`` reads
the square class of a non-zero int into its coordinates over F_2, and the
table of ``padic._hilbert_form`` holds the symbol as the bilinear form on two
such coordinates; ``hilbert_symbol`` is one lookup in it.  The table's symbol
and ``hilbert_symbol`` equal the parent's closed form (``parent_padic``) on
every pair of square-class representatives and on random non-zero ints,
negative ones and multiples of p and p^2 among them, and equal
``oracle.hilbert_brute`` on every pair of representatives at p = 2, 3, 5 and
7; and ``eta``, ``leading_signs`` and ``egk_of``, which read it, equal the
references in ``parent_chain`` and ``parent_read_side`` on a slice of each of
the four bench pools."""

from __future__ import annotations

import random
from itertools import islice

import parent_chain
import parent_padic
import parent_read_side
import pytest

from gkinv import invariants
from gkinv.egk import EGKDatum
from gkinv.forms import FormError
from gkinv.involutions import blocks
from gkinv.oracle import hilbert_brute
from gkinv.padic import (
    PrimeContext,
    _class_bits,
    _hilbert_bits,
    _hilbert_form,
    hilbert_symbol,
    square_class_reps,
)
from gkinv.reducer import reduce_form
from test_read_side import _bench, _bench_pool

# the primes of the checks, and one large prime of each class mod 4
PRIMES = (2, 3, 5, 7, 11, 13, 10007, 10009)
POOLS = ["verify_invariants", "dyadic_scrambled", "odd_random", "cli_batch"]
SLICE = 100  # forms of each pool


def bit_symbol(a: int, b: int, p: int) -> int:
    table, _ = _hilbert_form(p)
    return 1 - 2 * table[_class_bits(a, p)][_class_bits(b, p)]


@pytest.mark.parametrize("p", PRIMES)
def test_the_bit_symbol_is_hilbert_symbol_on_class_representatives(p):
    """The representatives have distinct coordinates, one per class, so the
    table is checked on every pair of classes against the parent's closed
    form, and at p <= 7 against the residue search of
    ``oracle.hilbert_brute``, which shares no code with either; the class of
    -1 is the one ``_hilbert_form`` gives."""
    ctx = PrimeContext(p)
    reps = [int(r) for r in square_class_reps(ctx)]
    assert len({_class_bits(r, p) for r in reps}) == len(reps) == (8 if p == 2 else 4)
    table, minus = _hilbert_form(p)
    assert minus == _class_bits(-1, p)
    for a in reps:
        for b in reps:
            want = parent_padic.hilbert_symbol(a, b, ctx)
            assert bit_symbol(a, b, p) == want == hilbert_symbol(a, b, ctx), (a, b)
            assert 1 - 2 * _hilbert_bits(_class_bits(a, p), _class_bits(b, p), p) == want
            assert p > 7 or want == hilbert_brute(a, b, ctx), (a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_the_bit_symbol_is_hilbert_symbol_on_random_ints(p):
    """Random non-zero ints of up to 30 digits, of either sign, times p^0 to
    p^3, against the parent's closed form; the coordinates of a product are
    the sum of the factors' coordinates, which ``_leading_etas`` uses for the
    class of -P."""
    ctx, rng = PrimeContext(p), random.Random(f"class bits {p}")
    xs = [
        rng.choice((-1, 1)) * rng.randrange(1, 10 ** rng.randrange(1, 30)) * p ** rng.randrange(4)
        for _ in range(90)
    ]
    assert any(x % p for x in xs) and any(x % (p * p) == 0 for x in xs)
    for a in xs:
        for b in xs:
            want = parent_padic.hilbert_symbol(a, b, ctx)
            assert bit_symbol(a, b, p) == want == hilbert_symbol(a, b, ctx), (a, b)
            assert _class_bits(a * b, p) == _class_bits(a, p) ^ _class_bits(b, p)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the FormError it raises."""
    try:
        return fn(*args)
    except FormError as ex:
        return FormError, str(ex)


@pytest.mark.parametrize("name", POOLS)
def test_eta_signs_and_egk_read_as_the_references(name):
    """eta of each form (and of the claimed R of a ``verify_invariants``
    item, which a tamper may leave degenerate) equals both references; the
    leading signs of each reduced form over its block ends equal the
    parent's; and ``egk_of`` is the datum built on them."""
    worker = _bench("worker")
    for payload, _ in islice(_bench_pool(name, 1), SLICE):
        if name == "verify_invariants":
            form, claimed = worker.parse_item(name, payload)
            forms = (form, claimed.reduced)
        else:
            form = worker.parse_form(payload)
            forms = (form,)
        for f in forms:
            want = _outcome(parent_chain.eta, f)
            assert _outcome(invariants.eta, f) == want == _outcome(parent_read_side.eta, f)
        cert = reduce_form(form)
        bl = blocks(cert.exps)
        ends = [start + size for start, size in zip(bl.starts, bl.sizes)]
        signs = invariants.leading_signs(cert.reduced, ends)
        assert signs == parent_chain.leading_signs(cert.reduced, ends)
        assert invariants.egk_of(form) == EGKDatum(bl.sizes, bl.values, tuple(signs))
