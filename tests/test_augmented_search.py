"""The dyadic search runs on the rows [den·B | 1], whose right half is t(U),
as the Jordan split does, and reads U off as its transpose.  The reference
below is the search as it was before, verbatim but for the names of the
steps it calls: it carried U as its own rows and passed it to its clear and
to every step (``parent_steps``, the parent's steps kept verbatim).  Both
must give the same (M, U, exps, sigma) on the golden dyadic corpora, on
dyadic_scrambled-style forms and on random p = 2 forms of n = 2-30; clears
with L != 1, collision shears and kind-0 moves of the library's search are
counted, so its scalings and shears on the augmented rows provably run."""

import random
from collections import Counter

from gkinv import linalg, reducer
from gkinv.egk import random_egk, synthesize_reduced
from gkinv.forms import FormError, HalfIntegralForm, random_form, random_unimodular, transform
from gkinv.padic import PrimeContext, valuation
from gkinv.reducer import (
    SEARCH_BUDGET,
    BudgetExhausted,
    ReductionError,
    _candidates,
    _lowest_columns,
    complete_square,
)
import parent_steps
from test_kernel import dyadic_corpus, dyadic_even_den_corpus

CTX2 = PrimeContext(2)


def parent_dyadic_search(form: HalfIntegralForm):
    """(M, U, exps, sigma) with B[U] = M / den reduced, den the denominator of
    B, for integer rows M and U: clear the prefix, then take the smallest
    move, until the prefix is everything, in at most ``SEARCH_BUDGET`` passes.

    The rows start as den·B and 1, and every step is an integer congruence,
    so M = den·e²·B[U / e] with e the product of the clearing scales L, all
    odd.  The order of an exact entry is then its integer's order minus
    s = ord(den), and each move is chosen as it would be on the exact rows.
    At the end column k of U is divided by gcd(e, column k), and M to match.

    The involution comes out standard.  Each move is the least (c, kind, x, y),
    so at each exponent c the search appends the raised kind-0 coordinate
    first, then kind-1 equal pairs side by side, then the kind-2 fixed point.
    After that fixed point no move at c is left: a kind-0 or kind-1 move at c
    would have been taken first, and a later diagonal of its parity is sheared
    past c.  The verifier's ``is_standard`` rejects any other layout."""
    ctx, n = form.ctx, form.n
    m = [list(row) for row in form.rows]
    s = valuation(form.den, ctx)
    u = linalg.identity(n)
    e, budget = 1, SEARCH_BUDGET
    exps, sigma = (), ()

    def at():  # where the search stopped, built only for a failure
        return f"at prefix exps={list(exps)} sigma={list(sigma)}"

    while len(exps) < n:
        if budget <= 0:
            raise BudgetExhausted("reduction budget exhausted")
        budget -= 1
        l = parent_steps.clear_matrix(m, u, exps, sigma)
        if l is None:
            raise ReductionError(f"clearing transform is not integral {at()}")
        e *= l
        moves = _candidates(m, s, exps, sigma, ctx)
        if not moves:
            raise ReductionError(f"no admissible move {at()}")
        c, kind, x, y = min(moves)
        k = len(exps)
        if kind == 3:  # parity collision: shear the tail diagonal away
            # on the integers each order is the exact one plus s: raise both
            try:
                sh = complete_square(m[x][x], m[x][y], m[y][y], exps[x] + s, c + s, ctx)
            except (FormError, ReductionError) as ex:
                what = f"collision shear of {y} against {x} to exponent {c}"
                raise ReductionError(f"{what} failed {at()}: {ex}") from ex
            parent_steps.shear(m, x, y, sh, u)
            continue
        if kind == 0:  # pair the prefix fixed point x with tail coordinate y
            chosen = (y,)
            sigma = tuple(k if i == x else sigma[i] for i in range(k)) + (x,)
            exps += (c,)
        elif kind == 1:  # split a scaled primitive-unramified pair (x, y)
            chosen = (x, y)
            sigma += (k + 1, k)
            exps += (c, c)
        else:  # kind == 2, admit a new fixed point at x
            chosen = (x,)
            sigma += (k,)
            exps += (c,)
        # a split pair has x < y, so moving x to k leaves y where it was
        for t, i in enumerate(chosen):
            parent_steps.move(m, i, k + t, u)
    if e != 1:
        u, g = _lowest_columns(u, (e,) * n)
        m = [[x // (gi * gj) for x, gj in zip(row, g)] for row, gi in zip(m, g)]
    return m, u, exps, sigma


def scrambled(rng, count):
    """dyadic_scrambled-style forms: random_egk (at most 4 blocks, exponents
    at most 8) of size n = 5, 6, 6, 6, 6 in turn -> synthesize_reduced ->
    random_unimodular(steps=12)."""
    for k in range(count):
        n = (5, 6, 6, 6, 6)[k % 5]
        g = random_egk(rng, max_r=4, max_m=8, max_n=n)
        while g.n != n:
            g = random_egk(rng, max_r=4, max_m=8, max_n=n)
        r = synthesize_reduced(g, CTX2)
        yield transform(r, random_unimodular(n, CTX2, rng, steps=12))


def _forms():
    """The golden dyadic corpora, 600 dyadic_scrambled-style forms and
    random_form at p = 2 for n = 2-30 (height 14)."""
    yield from dyadic_corpus() + dyadic_even_den_corpus()
    rng = random.Random("augmented search")
    yield from scrambled(rng, 600)
    for n in range(2, 31):
        yield random_form(n, CTX2, rng, height=14)


def test_augmented_search_matches_the_parent_search(monkeypatch):
    seen = Counter()
    clear, candidates = reducer._clear_matrix, reducer._candidates

    def cleared(m, exps, sigma):
        l = clear(m, exps, sigma)
        seen["L != 1"] += l != 1
        return l

    def counted(*args):
        moves = candidates(*args)
        if moves:
            seen[f"kind {min(moves)[1]}"] += 1
        return moves

    # the reference calls its own clear and the unpatched _candidates
    monkeypatch.setattr(reducer, "_clear_matrix", cleared)
    monkeypatch.setattr(reducer, "_candidates", counted)
    searches = 0
    for form in _forms():
        assert reducer._dyadic_search(form) == parent_dyadic_search(form), (form.rows, form.den)
        searches += 1
    assert searches == 80 + 600 + 29
    # the hard paths: odd clearing scales, collision shears, cross-block pairs
    assert seen["L != 1"] >= 500 and seen["kind 3"] >= 120 and seen["kind 0"] >= 250, seen
