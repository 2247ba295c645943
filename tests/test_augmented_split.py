"""The Jordan split eliminates on the rows [den·B | 1], whose right half is
t(U), and reads U off as its transpose.  The reference below is the split as
it was before, verbatim: it carried U as its own rows and updated U's tail
columns in a second loop of the step (``test_kernel.parent_eliminate``, the
parent step kept verbatim) and passed U to its pivot steps
(``parent_steps.pivot``).  Both must give the same (D, U, exps, sigma) on
the golden odd corpus, odd_random-style forms, zero-diagonal forms (whose
pivots need exposing shears) and the p = 3, n = 40 form of the CLI smoke
test; the library's moves and exposing shears on the augmented rows are
counted, so that path provably runs."""

import random

import pytest

from gkinv import linalg
from gkinv.forms import FormError, _norm_gcd, random_form
from gkinv.involutions import standard_involution
from gkinv.padic import PrimeContext, valuation
from gkinv.reducer import _exact_split, _lowest_columns
from test_integral_certificates import _zero_diagonal
import parent_steps
from test_kernel import odd_corpus, parent_eliminate


def parent_jordan_split(form):
    if form.ctx.p == 2:
        raise FormError("Jordan splitting requires p odd")
    if not form.nondegenerate:
        raise FormError("degenerate form")
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
    # each pivot has the least order in its tail and elimination keeps the
    # tail at or above it, so the exponents are already non-decreasing
    u, g = _lowest_columns(u, prevs)
    d = [m[k][k] * (pk // gk) // gk for k, (pk, gk) in enumerate(zip(prevs, g))]
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return diag, u, exps, standard_involution(exps)


def _forms():
    """The golden odd corpus; odd_random-style forms (p = 3, 5, random_form
    at height 6, n = 6 and 8); zero-diagonal forms at p = 3, 5, 7, n = 2-8;
    the p = 3, n = 40 form of the CLI smoke test."""
    yield from odd_corpus()
    rng = random.Random("augmented split")
    for k in range(60):
        yield random_form((6, 8)[k % 3 // 2], PrimeContext((3, 5)[k % 2]), rng, height=6)
    for p in (3, 5, 7):
        for k in range(21):
            yield _zero_diagonal(rng, p, 2 + k % 7)
    yield random_form(40, PrimeContext(3), random.Random(40), height=14)


def test_augmented_split_matches_the_parent_split(monkeypatch):
    seen = {"move": 0, "shear": 0}

    def counted(name, step):
        def run(m, *args):
            # the library's rows carry t(U), the parent's are square
            if len(m[0]) == 2 * len(m):
                seen[name] += name == "shear" or args[0] != args[1]
            return step(m, *args)

        return run

    for name in seen:
        monkeypatch.setattr(linalg, name, counted(name, getattr(linalg, name)))
    for form in _forms():
        assert _exact_split(form) == parent_jordan_split(form)
    assert seen["move"] >= 200 and seen["shear"] >= 100, seen


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zero_diagonal_split_needs_an_exposing_shear_first(p, monkeypatch):
    """A form with a zero diagonal has no diagonal pivot: the first step
    shears, on the augmented rows, and U still maps B to D.  The form is
    built first, so the shears of its pivot chain are not counted."""
    shears = []
    step = linalg.shear
    form = _zero_diagonal(random.Random(f"first shear/{p}"), p, 6)
    monkeypatch.setattr(linalg, "shear", lambda m, *a: shears.append(len(m[0])) or step(m, *a))
    d, u, _, _ = _exact_split(form)
    assert shears and shears[0] == 12
    bu = linalg.matmul(form.rows, u)
    assert linalg.matmul(linalg.transpose(u), bu) == tuple(map(tuple, d))
