"""The in-place elimination kernel against the dense congruences it replaces,
and golden certificate digests that pin the reducers' output byte for byte."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from gkinv import linalg, reducer
from gkinv.cli import _cert_payload
from gkinv.egk import random_egk, synthesize_reduced
from gkinv.forms import random_form, random_unimodular, transform
from gkinv.padic import PrimeContext


def _random_matrix(rng, n, symmetric=False):
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    if symmetric:
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return linalg.mat(m)


def _elementary(n, entries):
    e = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for (i, j), c in entries.items():
        e[i][j] = c
    return linalg.mat(e)


def _check_step(m0, u0, e, step):
    """step(m, u) and step(m, None) on working copies give t(E) M E and U E."""
    m, u = linalg.rows(m0), linalg.rows(u0)
    step(m, u)
    assert linalg.mat(m) == linalg.congruence(m0, e)
    assert linalg.mat(u) == linalg.matmul(u0, e)
    alone = linalg.rows(m0)
    step(alone, None)
    assert alone == m


CASES = [(n, sym, seed) for n in (1, 2, 3, 5) for sym in (False, True) for seed in range(3)]


@pytest.mark.parametrize("n,symmetric,seed", CASES)
def test_kernel_steps_match_dense_congruence(n, symmetric, seed):
    rng = random.Random(f"kernel/{n}/{symmetric}/{seed}")
    m0 = _random_matrix(rng, n, symmetric)
    u0 = _random_matrix(rng, n)
    i, j = rng.randrange(n), rng.randrange(n)
    swap = linalg.perm_matrix(tuple({i: j, j: i}.get(t, t) for t in range(n)))
    _check_step(m0, u0, swap, lambda m, u: linalg.swap(m, i, j, u))
    perm = list(range(n))
    rng.shuffle(perm)
    _check_step(m0, u0, linalg.perm_matrix(tuple(perm)), lambda m, u: linalg.permute(m, perm, u))
    if n > 1:
        i, j = rng.sample(range(n), 2)
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 3))
        _check_step(m0, u0, _elementary(n, {(i, j): c}), lambda m, u: linalg.shear(m, i, j, c, u))
    for k in range(n):
        if m0[k][k] == 0:
            continue
        e = _elementary(n, {(k, j): -m0[k][j] / m0[k][k] for j in range(k + 1, n)})
        _check_step(m0, u0, e, lambda m, u: linalg.eliminate(m, k, u))


def test_solve_matches_inverse_product():
    rng = random.Random("kernel/solve")
    for n in (1, 2, 4):
        a = _random_matrix(rng, n)
        while linalg.det(a) == 0:
            a = _random_matrix(rng, n)
        b = _random_matrix(rng, n)
        assert linalg.solve(a, b) == linalg.matmul(linalg.inverse(a), b)
        assert linalg.matmul(a, linalg.inverse(a)) == linalg.identity(n)


# SHA-256 of the certificates of both corpora, one `gkinv reduce` JSON line
# each, taken from the dense reducers before the in-place kernel replaced
# them; any change to a certificate shows here.
GOLDEN = {
    "dyadic": "84e3edcdd7b0d2ad67279710a41166979f036acfa01f55cb9d877a5bd522f440",
    "odd": "5dadcd142b2c823b89cf797d7a3d0f15c3734be7212b40f2aefe551ebf25568d",
}


def dyadic_corpus(count=40):
    """p = 2: random_egk -> synthesize_reduced -> random_unimodular(steps=12),
    n = 2..6 in turn; reaches collision shears, splits and pairs."""
    rng = random.Random("golden/dyadic")
    ctx = PrimeContext(2)
    forms = []
    for k in range(count):
        n = 2 + k % 5
        g = random_egk(rng, max_r=4, max_m=8, max_n=n)
        while g.n != n:
            g = random_egk(rng, max_r=4, max_m=8, max_n=n)
        r = synthesize_reduced(g, ctx)
        forms.append(transform(r, random_unimodular(n, ctx, rng, steps=12)))
    return forms


def odd_corpus(count=16):
    """p = 3, 5: random_form(height=6) at n = 6 and 8."""
    rng = random.Random("golden/odd")
    return [
        random_form((6, 8)[(k // 2) % 2], PrimeContext((3, 5)[k % 2]), rng, height=6)
        for k in range(count)
    ]


def certificate_digest(forms):
    h = hashlib.sha256()
    for form in forms:
        cert = _cert_payload(reducer.reduce_form(form))
        h.update(json.dumps(cert, sort_keys=True, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


def test_golden_dyadic_certificates(monkeypatch):
    shears = []
    complete_square = reducer.complete_square

    def counted(*args):
        shears.append(args)
        return complete_square(*args)

    monkeypatch.setattr(reducer, "complete_square", counted)
    forms = dyadic_corpus()
    assert certificate_digest(forms) == GOLDEN["dyadic"]
    assert shears, "the corpus must reach parity-collision shears"


def test_golden_odd_certificates():
    assert certificate_digest(odd_corpus()) == GOLDEN["odd"]
