"""The read side on small integers: ``delta`` and ``xi`` on an integer of the
signed discriminant's square class, ``_leading_etas`` on one small class
representative per pivot, and ``is_reduced`` with one divisibility test per
off-diagonal entry.  Each is compared, value for value and verdict for
verdict, with its previous form in ``parent_read_side``: on the bench pools
of a 1 s run, seeds 1-3 (their certificates too), on ``random_form`` at
p = 2, 3, 5 and 7 and n = 0-10, on zero-diagonal forms, whose pivots need a
shear, and on p = 2 forms with an even den; and ``is_reduced`` at the
boundary of each off-diagonal bound."""

from __future__ import annotations

import importlib
import random
import sys
from collections import Counter
from pathlib import Path

import parent_read_side as parent
import pytest

from gkinv import invariants, linalg
from gkinv.egk import lift, random_egk, synthesize_nondyadic, synthesize_reduced
from gkinv.forms import FormError, _from_rows, delta, leading, random_form
from gkinv.involutions import GKType, standard_involutions
from gkinv.padic import PrimeContext, valuation
from gkinv.reducer import is_reduced, reduce_form, verify_certificate
from test_kernel import dyadic_even_den_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"
CTX = {p: PrimeContext(p) for p in (2, 3, 5, 7)}


def _bench(module: str):
    """A module of the bench, imported from its directory."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    return importlib.import_module(module)


def _bench_pool(name: str, seed: int):
    """The items of ``name``'s pool for a 1 s run of the bench at ``seed``,
    as ``bench/run.py`` generates them, the first items of a 10 s run's."""
    corpus = _bench("corpus")
    gen, _ = corpus.GENERATORS[name]
    return gen(seed, corpus.pool_size(name, 1, _bench("measure").MIN_SAMPLES))


def _ends(form):
    return [j for j in range(1, form.n + 1) if leading(form, j).nondegenerate]


def assert_read_side_as_parent(form, gk_type=None) -> None:
    """delta, xi, eta and every leading (eta, piv) equal the parent's, and so
    does the ``is_reduced`` verdict for ``gk_type``, when given."""
    if form.nondegenerate:
        assert delta(form) == parent.delta(form)
        assert invariants.xi(form) == parent.xi(form)
        assert invariants.eta(form) == parent.eta(form)
    ends = _ends(form)
    for signed in (set(ends), {j for j in ends if j % 2}, set(ends[:1])):
        pivots = linalg.pivot_chain(form.rows, ends)
        got = list(invariants._leading_etas(form, ends, signed, pivots))
        assert got == list(parent._leading_etas(form, ends, signed)), (ends, signed)
    if gk_type is not None:
        assert is_reduced(form, gk_type) == parent.is_reduced(form, gk_type)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_invariants_pool_reads_as_parent(seed):
    """Every item of the pool, genuine and tampered: the values of delta, xi
    and eta, the leading signs of B and of the claimed R, and the verdict of
    ``is_reduced`` on the claimed R for its claimed type; the verifier
    accepts exactly the genuine certificates."""
    worker = _bench("worker")
    verdicts = Counter()
    for payload, expected in _bench_pool("verify_invariants", seed):
        form, cert = worker.parse_item("verify_invariants", payload)
        assert_read_side_as_parent(form)
        assert_read_side_as_parent(cert.reduced, cert.gk_type)
        ok, _ = verify_certificate(form, cert)
        assert ok == expected["genuine"]
        assert delta(form) == expected["delta"]
        verdicts[ok, is_reduced(cert.reduced, cert.gk_type)] += 1
    # both verdicts of is_reduced are reached, and rejections besides it
    assert verdicts[True, True] >= 300 and verdicts[False, False] >= 40, verdicts
    assert verdicts[False, True] >= 50, verdicts


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["dyadic_scrambled", "odd_random", "cli_batch"])
def test_certificates_of_the_reducing_pools_read_as_parent(name, seed):
    """The forms of the pool and the reduced forms of their certificates."""
    for payload, _ in _bench_pool(name, seed):
        form = _bench("worker").parse_form(payload)
        cert = reduce_form(form)
        assert_read_side_as_parent(form)
        assert_read_side_as_parent(cert.reduced, cert.gk_type)


def _other_types(gk_type, rng):
    """The type itself, and types whose exponents are moved by one at one
    index, with each standard involution of the moved exponents (so the
    verdicts include False at every check)."""
    yield gk_type
    exps = gk_type.exps
    for _ in range(3):
        if not exps:
            return
        i = rng.randrange(len(exps))
        step = rng.choice((-1, 1))
        moved = tuple(sorted(a + (step if k == i else 0) for k, a in enumerate(exps)))
        for sigma in standard_involutions(moved)[:2]:
            yield GKType._of(moved, sigma)


def test_random_forms_read_as_parent():
    """random_form at p = 2, 3, 5, 7 and n = 0-10, and their reduced forms
    against their own and moved types."""
    rng = random.Random("read side/random")
    for p, ctx in CTX.items():
        for n in range(11):
            for _ in range(3 if n > 6 else 6):
                form = random_form(n, ctx, rng, height=rng.choice((2, 6)))
                cert = reduce_form(form)
                assert_read_side_as_parent(form)
                for t in _other_types(cert.gk_type, rng):
                    assert_read_side_as_parent(cert.reduced, t)
                    assert is_reduced(form, t) == parent.is_reduced(form, t)


def _zero_diagonal(n, p, rng):
    """A symmetric matrix with zero diagonal and off-diagonal entries a unit
    times p^0..3 (even den at p = 2: half-integral with odd doubled entries)."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = rng.choice((1, -1, 3, 5)) * p ** rng.randint(0, 3)
    return _from_rows(m, 2 if p == 2 else 1, CTX[p])


def test_zero_diagonal_forms_read_as_parent():
    """Every leading pivot of a zero-diagonal form needs a move or a shear."""
    rng = random.Random("read side/zero diagonal")
    seen = 0
    for k in range(60):
        p = (2, 3, 5, 7)[k % 4]
        form = _zero_diagonal(rng.randint(2, 9), p, rng)
        if not form.nondegenerate:
            continue
        seen += 1
        cert = reduce_form(form)
        assert_read_side_as_parent(form)
        for t in _other_types(cert.gk_type, rng):
            assert_read_side_as_parent(cert.reduced, t)
    assert seen >= 40, seen


def test_even_den_dyadic_forms_read_as_parent():
    """p = 2 forms with ord(den) >= 1, so each order shifts by s."""
    rng = random.Random("read side/even den")
    forms = dyadic_even_den_corpus(30)
    assert all(f.den % 2 == 0 for f in forms)
    for form in forms:
        cert = reduce_form(form)
        assert valuation(form.den, form.ctx) >= 1
        assert_read_side_as_parent(form)
        for t in _other_types(cert.gk_type, rng):
            assert_read_side_as_parent(cert.reduced, t)


def _synthesized(ctx, rng):
    """A form reduced for the first standard involution of its exponents,
    with its type, as the bench realizes an EGK datum."""
    g = random_egk(rng, max_r=4, max_m=6, max_n=7)
    r = synthesize_reduced(g, ctx) if ctx.p == 2 else synthesize_nondyadic(lift(g), ctx)
    exps = tuple(g.expand_exps())
    return r, GKType._of(exps, standard_involutions(exps)[0])


def test_is_reduced_at_the_boundary_of_each_off_diagonal_bound():
    """On forms reduced for their type, set one off-diagonal entry (and its
    mirror) to exact order need - 1 and to exact order need, the least order
    the bound allows: need = ceil(t/2) - e on a pair of the involution and
    floor(t/2) + 1 - e off it, t = a_i + a_j.  At need - 1 the form is never
    reduced; at need the verdict is the parent's, and the test counts the
    cases where the form stays reduced, on a pair and off it, at p = 2 and 3."""
    rng = random.Random("read side/boundary")
    reached = Counter()
    for k in range(160):
        ctx = (CTX[2], CTX[3])[k % 2]
        p, e = ctx.p, ctx.e
        r, t = _synthesized(ctx, rng)
        assert is_reduced(r, t)
        s = valuation(r.den, ctx)
        for i in range(r.n):
            for j in range(i + 1, r.n):
                pair = t.sigma[i] == j
                tot = t.exps[i] + t.exps[j]
                need = (tot + 1) // 2 - e if pair else tot // 2 + 1 - e
                unit = r.rows[i][j] // p ** valuation(r.rows[i][j], ctx) if r.rows[i][j] else 1
                for order in (need - 1, need):
                    if order + s < 0:
                        continue
                    rows = [list(row) for row in r.rows]
                    rows[i][j] = rows[j][i] = unit * p ** (order + s)
                    try:
                        f = _from_rows(rows, r.den, ctx)
                    except FormError:
                        continue
                    got = is_reduced(f, t)
                    assert got == parent.is_reduced(f, t)
                    if order < need:
                        assert not got, (rows, t)
                    reached[p, pair, order - need, got] += 1
    for p in (2, 3):
        assert reached[p, True, 0, True] >= 100, reached
        assert reached[p, False, 0, True] >= 500, reached
        assert reached[p, True, -1, False] >= 100, reached
        assert reached[p, False, -1, False] >= 500, reached
