"""The dyadic search lays out a standard involution by itself, so
``reduce_form`` builds its certificate straight from the search.  The pass
that once reordered the search's coordinates into the standard layout is
kept here, verbatim, as the reference: on every corpus below it moves no
row and returns the search's involution unchanged."""

import random
from collections import Counter
from fractions import Fraction

from gkinv import reducer
from gkinv.egk import lift, random_egk, synthesize_reduced
from gkinv.forms import _from_rows, random_form, random_unimodular, transform, validate_form
from gkinv.involutions import blocks, is_standard, standard_involutions
from gkinv.padic import PrimeContext
import parent_steps
from test_kernel import dyadic_corpus, dyadic_even_den_corpus

CTX2 = PrimeContext(2)


def parent_standardize(m, u, exps, sigma):
    """Reorder the working rows m, u within equal-exponent blocks so the
    involution is standard, by one move per coordinate (the parent's
    ``parent_steps.move``, which carries u); returns the new involution."""
    bl = blocks(exps)
    target: list[int] = []
    for s in range(bl.r):
        idx = list(bl.indices(s))
        plus = [i for i in idx if sigma[i] != i and exps[sigma[i]] < exps[i]]
        dang = [i for i in idx if sigma[i] == i or exps[sigma[i]] > exps[i]]
        pairs = []
        for i in idx:
            j = sigma[i]
            if j != i and exps[j] == exps[i] and i < j:
                pairs.extend((i, j))
        target.extend(plus + pairs + dang)
    # order holds the input coordinates in their current order: place each
    # target coordinate in turn, behind those already placed
    order, inv = list(range(len(target))), [0] * len(target)
    for k, old in enumerate(target):
        t = order.index(old, k)
        order.insert(k, order.pop(t))
        parent_steps.move(m, t, k, u)
        inv[old] = k
    return tuple(inv[sigma[old]] for old in target)


def synthesized(rng, count, choices):
    """Forms of ``count`` random_egk data (n <= 8), each synthesized reduced
    for every one of its standard involutions and scrambled twice by a random
    unimodular U; ``choices`` counts the data with more than one involution
    (K >= 1 choice blocks)."""
    for _ in range(count):
        g = random_egk(rng, max_r=4, max_m=8, max_n=8)
        sigmas = standard_involutions(lift(g).a)
        choices[len(sigmas) > 1] += 1
        for sigma in sigmas:
            r = synthesize_reduced(g, CTX2, sigma)
            for _ in range(2):
                yield transform(r, random_unimodular(g.n, CTX2, rng, steps=12))


def zero_diagonal(rng, n):
    """A non-degenerate p = 2 form with a zero diagonal."""
    while True:
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                x = rng.choice((0, 1, -1, 3, 5)) * 2 ** rng.randint(0, 3)
                m[i][j] = m[j][i] = Fraction(x, rng.choice((1, 2, 3)))
        form = validate_form(m, CTX2)
        if form.nondegenerate:
            return form


def random_dyadic(rng, count):
    """Random p = 2 forms of n = 2..12: random_form at heights 1-6, forms
    with a zero diagonal, and either kind rescaled by 2, 4 or 8."""
    for k in range(count):
        n = 2 + k % 11
        if k % 3:
            form = random_form(n, CTX2, rng, height=rng.randint(1, 6))
        else:
            form = zero_diagonal(rng, n)
        yield form
        if k % 2:
            t = rng.randint(1, 3)
            yield _from_rows([[x << t for x in row] for row in form.rows], form.den, CTX2)


def test_the_search_lays_out_a_standard_involution(monkeypatch):
    kinds = Counter()  # moves taken, by kind; 3 is a collision shear
    candidates = reducer._candidates

    def counted(*args):
        moves = candidates(*args)
        if moves:
            kinds[min(moves)[1]] += 1
        return moves

    monkeypatch.setattr(reducer, "_candidates", counted)
    rng, choices = random.Random("standard layout"), Counter()
    corpora = {
        "golden": dyadic_corpus() + dyadic_even_den_corpus(),
        "synthesized": synthesized(rng, 1500, choices),
        "random": random_dyadic(rng, 1200),
    }
    searches = Counter()
    for name, forms in corpora.items():
        for form in forms:
            m, u, exps, sigma = reducer._dyadic_search(form)
            assert is_standard(exps, sigma)
            m_ref, u_ref = [list(row) for row in m], [list(row) for row in u]
            assert parent_standardize(m_ref, u_ref, exps, sigma) == sigma
            assert (m_ref, u_ref) == (m, u), (name, form.rows, form.den)
            searches[name] += 1
    assert sum(searches.values()) >= 5000, searches
    assert choices[True] >= 150, choices
    # the hard paths: kind-0 (cross-block) pairs and collision shears
    assert kinds[0] >= 1000 and kinds[3] >= 500, kinds
