"""At odd p the GK exponents of B are its Jordan exponents, which are the
p-adic orders of the elementary divisors of den·B over Z_(p) (den is prime to
p).  ``smith_exponents`` finds those orders by a routine of its own, which
shares no code with the reducer or ``linalg``, and ``reduce_form`` must report
them: on random p = 3, 5 forms with ord_p det B = 0 and 1 at n <= 30, which
take the split mod p, and on the many-block p = 3 form of seven Jordan blocks,
which takes the exact split."""

import random

from gkinv.forms import _from_rows, random_form, random_unimodular, transform
from gkinv.padic import PrimeContext, valuation
from gkinv.reducer import reduce_form

# the many-block form's size, the largest of 40, 80 and 120 that keeps this
# test under 10 s: at n = 120 it took 4.7 s on a 2-vCPU VM (Python 3.11),
# nearly all in the exact split, and at n = 140 11.5 s
MANY_BLOCK_N = 120


def _ord(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def smith_exponents(rows, p: int) -> list[int]:
    """Sorted p-adic orders of the elementary divisors of the non-singular
    integer matrix ``rows``: elimination mod p^N, each step moving an entry
    of least order in the tail to the diagonal and clearing the rows below
    it, with N doubling from 2 until each of the n pivots is non-zero mod p^N
    (the orders below N are those over Z_(p))."""
    n, big = len(rows), 2
    while True:
        q = p**big
        a = [[x % q for x in row] for row in rows]
        out = []
        for k in range(n):
            tail = [(_ord(a[i][j], p), i, j) for i in range(k, n) for j in range(k, n) if a[i][j]]
            if not tail:
                break
            v, i, j = min(tail)
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            pk = a[k]
            w = pow(pk[k] // p**v, -1, q)
            for row in a[k + 1 :]:
                if row[k]:
                    c = row[k] // p**v * w % q
                    row[k:] = [(x - c * y) % q for x, y in zip(row[k:], pk[k:])]
            out.append(v)
        else:
            return sorted(out)
        big *= 2


def test_smith_exponents_of_a_diagonal_matrix():
    """A scrambled diagonal matrix keeps the orders of its entries."""
    rng, p = random.Random("smith"), 3
    orders = [0, 0, 1, 2, 2, 5, 9]
    d = [rng.choice((1, 2, 4, 5)) * p**a for a in orders]
    diag = [[d[i] if i == j else 0 for j in range(7)] for i in range(7)]
    ctx = PrimeContext(p)
    form = transform(_from_rows(diag, 1, ctx), random_unimodular(7, ctx, rng, steps=40))
    assert smith_exponents(form.rows, p) == orders


def test_reduced_exponents_are_the_smith_exponents_at_order_0_and_1():
    rng = random.Random("smith exponents")
    seen = {0: 0, 1: 0}
    while min(seen.values()) < 20:
        p, n = rng.choice((3, 5)), rng.randint(2, 30)
        form = random_form(n, PrimeContext(p), rng, height=rng.randint(1, 6))
        d = valuation(form.det, form.ctx)
        if d in seen:
            seen[d] += 1
            assert list(reduce_form(form).exps) == smith_exponents(form.rows, p)


def many_block_form(n: int):
    """The p = 3 form diag(unit·3^a_i), a_i in 0..6, scrambled, and its sorted
    exponents a."""
    rng, ctx = random.Random(n), PrimeContext(3)
    a = sorted(rng.randint(0, 6) for _ in range(n))
    d = [rng.choice((1, 2, 4, 5, 7, 8)) * 3**ai for ai in a]
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    u = random_unimodular(n, ctx, rng, steps=6 * n, height=2)
    return transform(_from_rows(diag, 1, ctx), u), a


def test_reduced_exponents_of_the_many_block_form_are_the_smith_exponents():
    form, a = many_block_form(MANY_BLOCK_N)
    assert len(set(a)) == 7 and valuation(form.det, form.ctx) > 1
    assert smith_exponents(form.rows, 3) == a
    assert list(reduce_form(form).exps) == a
