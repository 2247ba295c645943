import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

from gkinv.egk import (
    SIGNS3,
    EGKDatum,
    EGKError,
    NaiveEGK,
    collapse,
    enumerate_egk,
    lift,
    naive_datum_of_diagonal,
    random_egk,
    synthesize_nondyadic,
    synthesize_reduced,
    validate_egk,
    validate_naive,
)
from gkinv import egk, forms, invariants, linalg, reducer
from gkinv.forms import FormError, direct_sum, leading, random_unimodular, transform, validate_form
from gkinv.invariants import block_sign, egk_of, eta, leading_signs, xi
from gkinv.involutions import standard_involutions
from gkinv.padic import PrimeContext, valuation, zpow
from gkinv.reducer import is_reduced, reduce_form
from gkinv.involutions import GKType

CTX2 = PrimeContext(2)
CTX3 = PrimeContext(3)
CTX5 = PrimeContext(5)


def test_validate_naive_examples():
    assert validate_naive(NaiveEGK((0, 1), (1, 0)))[0]
    assert validate_naive(NaiveEGK((0, 0), (1, 1)))[0]
    ok, bad = validate_naive(NaiveEGK((1, 0), (1, 1)))
    assert not ok and bad


def naive_sign_rules(a, eps):
    """The coordinate-level sign rules written out position by position, as
    ``validate_naive`` once checked them: True when every rule holds."""
    n, psum = len(a), 0
    for i in range(1, n + 1):  # 1-based position
        psum += a[i - 1]
        e = eps[i - 1]
        if i % 2 == 0:
            if (e != 0) != (psum % 2 == 0):
                return False
        elif e == 0:
            return False
    if eps[0] != 1:
        return False
    for i in range(3, n + 1, 2):
        if sum(a[: i - 1]) % 2 == 0:
            if eps[i - 1] != eps[i - 3] * zpow(eps[i - 2], a[i - 1] + a[i - 2]):
                return False
    return True


def test_validate_naive_matches_the_written_out_sign_rules():
    """The block-level sign axioms at unit block sizes give the verdict of the
    position-by-position rules on every naive datum with n <= 6, exponents
    non-decreasing in 0..3 and any signs in {0, 1, -1}."""
    verdicts = {True: 0, False: 0}
    for n in range(1, 7):
        for a in itertools.combinations_with_replacement(range(4), n):
            for eps in itertools.product(SIGNS3, repeat=n):
                want = naive_sign_rules(a, eps)
                assert validate_naive(NaiveEGK(a, eps))[0] == want, (a, eps)
                verdicts[want] += 1
    assert sum(verdicts.values()) == 78321 and min(verdicts.values()) > 0, verdicts


def test_validate_egk_examples():
    assert validate_egk(EGKDatum((1, 1), (0, 1), (1, 0)))[0]
    assert validate_egk(EGKDatum((2,), (0,), (-1,)))[0]
    ok, bad = validate_egk(EGKDatum((1,), (0,), (-1,)))
    assert not ok  # an odd first block forces the sign +1


def test_collapse_examples():
    assert collapse(NaiveEGK((0, 1), (1, 0))) == EGKDatum((1, 1), (0, 1), (1, 0))
    assert collapse(NaiveEGK((0, 0), (1, -1))) == EGKDatum((2,), (0,), (-1,))
    assert collapse(NaiveEGK((3,), (1,))) == EGKDatum((1,), (3,), (1,))


def test_lift_examples():
    assert lift(EGKDatum((1, 1), (0, 1), (1, 0))) == NaiveEGK((0, 1), (1, 0))
    assert lift(EGKDatum((2,), (0,), (1,))) == NaiveEGK((0, 0), (1, 1))
    h = lift(EGKDatum((3,), (0,), (1,)))
    assert h.a == (0, 0, 0) and h.eps[0] == 1 and h.eps[2] == 1
    with pytest.raises(EGKError):
        lift(EGKDatum((1,), (0,), (0,)))


def test_lift_surjectivity_exhaustive():
    data = enumerate_egk(3, 4, 6)
    assert len(data) > 500
    for g in data:
        h = lift(g)
        assert validate_naive(h)[0]
        assert collapse(h) == g


def test_lift_of_a_long_block_round_trips():
    g = EGKDatum((3000,), (1,), (1,))
    h = lift(g)
    assert h.a == (1,) * 3000
    assert collapse(h) == g


def test_synthesize_nondyadic_examples():
    t = synthesize_nondyadic(NaiveEGK((0, 1), (1, 0)), CTX3)
    assert [valuation(t.entries[i][i], CTX3) for i in range(2)] == [0, 1]
    assert naive_datum_of_diagonal(t) == NaiveEGK((0, 1), (1, 0))
    t = synthesize_nondyadic(NaiveEGK((0, 0), (1, -1)), CTX3)
    assert xi(t) == -1
    t = synthesize_nondyadic(NaiveEGK((2,), (1,)), CTX5)
    assert valuation(t.entries[0][0], CTX5) == 2
    with pytest.raises(EGKError):
        synthesize_nondyadic(NaiveEGK((0,), (1,)), CTX2)


def test_synthesize_nondyadic_random_round_trip():
    rng = random.Random(13)
    for _ in range(40):
        g = random_egk(rng, max_r=3, max_m=4, max_n=6)
        h = lift(g)
        for ctx in (CTX3, CTX5):
            t = synthesize_nondyadic(h, ctx)
            assert naive_datum_of_diagonal(t) == h


def test_synthesize_reduced_examples():
    form = synthesize_reduced(EGKDatum((2,), (0,), (1,)), CTX2)
    assert xi(form) == 1 and egk_of(form) == EGKDatum((2,), (0,), (1,))
    form = synthesize_reduced(EGKDatum((1, 1), (0, 1), (1, 0)), CTX2)
    assert egk_of(form) == EGKDatum((1, 1), (0, 1), (1, 0))
    form = synthesize_reduced(EGKDatum((1,), (3,), (1,)), CTX2)
    assert valuation(form.entries[0][0], CTX2) == 3
    with pytest.raises(EGKError):
        synthesize_reduced(EGKDatum((1, 1), (0, 1), (1, 0)), CTX3)


def test_synthesize_reduced_is_clean_and_reduced():
    rng = random.Random(17)
    for _ in range(25):
        g = random_egk(rng, max_r=3, max_m=4, max_n=6)
        exps = g.expand_exps()
        for sigma in standard_involutions(exps):
            form = synthesize_reduced(g, CTX2, sigma)
            assert is_reduced(form, GKType(exps, sigma))
            for i in range(form.n):
                for j in range(form.n):
                    if i != j and sigma[i] != j:
                        assert form.entries[i][j] == 0  # clean


def test_synthesize_reduced_round_trip_all_sigmas():
    rng = random.Random(19)
    for _ in range(30):
        g = random_egk(rng, max_r=3, max_m=4, max_n=6)
        assert egk_of(synthesize_reduced(g, CTX2)) == g


# SHA-256 of every synthesized matrix over enumerate_egk(3, 4, 6) and every
# standard involution of each datum (985 matrices), one JSON line of exact
# ``num/den`` strings per matrix; any change to a synthesized matrix shows here.
GOLDEN_SYNTHESIS = "a94f1801970fe0a199a5a22ba8463d66009288f690e9dd0db8302d7ff33ccc93"


def test_golden_synthesized_matrices():
    h = hashlib.sha256()
    count = 0
    for g in enumerate_egk(3, 4, 6):
        for sigma in standard_involutions(g.expand_exps()):
            form = synthesize_reduced(g, CTX2, sigma)
            rows = [[f"{x.numerator}/{x.denominator}" for x in row] for row in form.entries]
            h.update(json.dumps(rows, separators=(",", ":")).encode() + b"\n")
            count += 1
    assert count == 985
    assert h.hexdigest() == GOLDEN_SYNTHESIS


def _frame_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_synthesis_stack_depth_does_not_grow_with_n():
    g = EGKDatum((400,), (1,), (1,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        form = synthesize_reduced(g, CTX2)
    finally:
        sys.setrecursionlimit(limit)
    exps = g.expand_exps()
    assert is_reduced(form, GKType(exps, standard_involutions(exps)[0]))


def test_clifford_recursion_even_extension():
    from gkinv.involutions import restrict

    rng = random.Random(23)
    for _ in range(40):
        g = random_egk(rng, max_r=2, max_m=3, max_n=6)
        exps = g.expand_exps()
        sigma = standard_involutions(exps)[0]
        b = synthesize_reduced(g, CTX2, sigma)
        n = b.n
        if n < 2:
            continue
        res = restrict(GKType(exps, sigma), n - 1)
        lead = leading(b, n - 1)
        if res is None or not lead.nondegenerate or not is_reduced(lead, res):
            continue  # the recursion presumes a reduced leading block
        if n % 2 == 0 and sum(exps) % 2 == 0:
            assert eta(b) == eta(lead) * zpow(xi(b), exps[-1])


def ref_leading_signs(form, ends):
    """The per-block reference: each leading block rebuilt as a form and its
    sign taken on its own."""
    return [block_sign(leading(form, end)) for end in ends]


def ref_naive_datum_of_diagonal(form):
    """The per-prefix reference for ``naive_datum_of_diagonal``."""
    eps = tuple(ref_leading_signs(form, range(1, form.n + 1)))
    v = valuation(form.den, form.ctx)
    return NaiveEGK(tuple(valuation(form.rows[i][i], form.ctx) - v for i in range(form.n)), eps)


def _block_ends(exps):
    return [i + 1 for i in range(len(exps)) if i + 1 == len(exps) or exps[i] < exps[i + 1]]


def test_leading_signs_match_the_per_block_reference(monkeypatch):
    """The signs of every leading block from one bounded, lazily scaled
    elimination equal the per-block reference: on the reduced forms of
    scrambled synthesized forms at p = 2, 3 and 5, at each block end and at
    every non-degenerate prefix; on the forms themselves and on sums with a
    hyperbolic plane in front, whose zero diagonals need a move or an
    exposing shear inside a block; and on the diagonal forms
    ``naive_datum_of_diagonal`` reads."""
    steps = {"move": 0, "shear": 0}
    for name in steps:
        step = getattr(linalg, name)

        def counted(m, i, j, *args, _step=step, _name=name):
            if _name == "shear" or i != j:
                steps[_name] += 1
            return _step(m, i, j, *args)

        monkeypatch.setattr(linalg, name, counted)
    rng = random.Random("leading signs")
    for k in range(90):
        ctx = (CTX2, CTX3, CTX5)[k % 3]
        g = random_egk(rng, max_r=4, max_m=5, max_n=8)
        if ctx.p == 2:
            r = synthesize_reduced(g, ctx)
        else:
            r = synthesize_nondyadic(lift(g), ctx)
            assert naive_datum_of_diagonal(r) == ref_naive_datum_of_diagonal(r)
        b = transform(r, random_unimodular(r.n, ctx, rng, steps=10))
        h = validate_form([[0, Fraction(3, 2)], [Fraction(3, 2), 0]], ctx)
        for f in (b, direct_sum(h, b), reduce_form(b).reduced):
            ends = [e for e in range(1, f.n + 1) if leading(f, e).nondegenerate]
            assert leading_signs(f, ends) == ref_leading_signs(f, ends)
        cert = reduce_form(b)
        ends = _block_ends(cert.exps)
        assert leading_signs(cert.reduced, ends) == ref_leading_signs(cert.reduced, ends)
        assert list(egk_of(b).zeta) == ref_leading_signs(cert.reduced, ends)
    assert steps["move"] and steps["shear"], steps
    with pytest.raises(FormError):  # as the reference raises on its degenerate prefix
        naive_datum_of_diagonal(validate_form([[1, 0, 0], [0, 0, 0], [0, 0, 3]], CTX3))


def test_leading_signs_take_symbols_only_up_to_the_last_odd_end(monkeypatch):
    """leading_signs reads eta only at odd ends, so it takes the running
    product of Hilbert symbols only up to the last odd end L: it reads the
    square class of each of the L pivots below L once, by ``_class_bits``,
    and reads none with only even ends (every symbol is then a table lookup
    on two classes).  Its signs equal the per-block reference."""
    calls = []
    read = invariants._class_bits

    def counted(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(invariants, "_class_bits", counted)
    rng = random.Random("odd ends")
    even_only = 0
    for k in range(60):
        ctx = (CTX2, CTX3, CTX5)[k % 3]
        g = random_egk(rng, max_r=4, max_m=5, max_n=8)
        r = synthesize_reduced(g, ctx) if ctx.p == 2 else synthesize_nondyadic(lift(g), ctx)
        b = transform(r, random_unimodular(r.n, ctx, rng, steps=10))
        for f in (b, reduce_form(b).reduced):
            ends = [e for e in range(1, f.n + 1) if leading(f, e).nondegenerate]
            for chosen in (ends, [e for e in ends if e % 2 == 0]):
                odd = [e for e in chosen if e % 2]
                calls.clear()
                signs = leading_signs(f, chosen)
                assert len(calls) == (max(odd) if odd else 0), (chosen, calls)
                assert signs == ref_leading_signs(f, chosen)
                even_only += bool(chosen) and not odd
    assert even_only >= 40, even_only


def test_egk_of_builds_no_leading_subform(monkeypatch):
    """With its certificate cached, egk_of reads every sign off integer rows:
    it builds no leading subform and no form at all, on forms of several
    blocks at p = 2 and p = 3."""
    rng = random.Random("no subform")
    cases = []
    for ctx in (CTX2, CTX3):
        for _ in range(8):
            g = random_egk(rng, max_r=4, max_m=5, max_n=8)
            r = synthesize_reduced(g, ctx) if ctx.p == 2 else synthesize_nondyadic(lift(g), ctx)
            b = transform(r, random_unimodular(r.n, ctx, rng, steps=10))
            reduce_form(b)
            cases.append((b, g))
    assert max(g.r for _, g in cases) >= 3

    def forbidden(*args, **kw):
        raise AssertionError("a form was built")

    for mod in (forms, invariants, egk, reducer):
        for name in ("leading", "_from_rows"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)
    for b, g in cases:
        assert egk_of(b) == g


def test_the_sign_readers_read_no_det_b(monkeypatch):
    """On fresh forms at p = 2, 3 and 5, rebuilt by ``_from_rows`` so that no
    det or pivot chain is cached, eta takes no det B and no ``linalg.det`` at
    all: it runs the form's one pivot chain of den·B, which it caches.
    ``reduce_form`` then ``egk_of`` takes no det of den·B at odd p and one at
    p = 2, the dyadic search's non-degeneracy check, off one chain of den·B,
    and none of den·R; its one ``linalg.det`` is the verifier's, of U mod p.
    egk_of makes one ``leading_signs`` call, over every block end with n
    included, which runs one chain of den·R over those ends at p = 2 and
    none at odd p, where it reads R's diagonal; it calls neither block_sign
    nor eta, and its signs equal the per-block reference."""
    dets, signs, chains = [], [], []
    det, read, chain = linalg.det, invariants.leading_signs, linalg.pivot_chain

    def forbidden(*args):
        raise AssertionError("a sign was read apart")

    rng = random.Random("no det")
    for k in range(45):
        ctx = (CTX2, CTX3, CTX5)[k % 3]
        g = random_egk(rng, max_r=4, max_m=5, max_n=8)
        r = synthesize_reduced(g, ctx) if ctx.p == 2 else synthesize_nondyadic(lift(g), ctx)
        b = transform(r, random_unimodular(r.n, ctx, rng, steps=10))
        fresh = [forms._from_rows(b.rows, b.den, ctx) for _ in range(2)]
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "det", lambda a: dets.append(a) or det(a))
            patch.setattr(linalg, "pivot_chain", lambda a, e: chains.append((a, e)) or chain(a, e))
            patch.setattr(invariants, "leading_signs", lambda f, e: signs.append(e) or read(f, e))
            patch.setattr(invariants, "block_sign", forbidden)
            patch.setattr(invariants, "eta", forbidden)
            dets.clear()
            chains.clear()
            eta(fresh[0])
            assert not dets and "det" not in vars(fresh[0])
            assert chains == [(fresh[0].rows, (b.n,))] and "pivots" in vars(fresh[0])
            chains.clear()
            cert = reduce_form(fresh[1])
            signs.clear()
            datum = egk_of(fresh[1])
        assert datum == g
        of_b = [a for a, _ in chains if a is fresh[1].rows]
        assert len(of_b) == (ctx.p == 2) and len(chains) == 2 * len(of_b)
        assert dets == [[[x % ctx.p for x in row] for row in cert.y]]
        assert "det" not in vars(cert.reduced) and ("det" in vars(fresh[1])) == (ctx.p == 2)
        assert "pivots" not in vars(cert.reduced)
        ends = _block_ends(cert.exps)
        assert signs == [ends] and ends[-1] == b.n
        assert ctx.p != 2 or chains[-1] == (cert.reduced.rows, ends)
        assert list(datum.zeta) == ref_leading_signs(cert.reduced, ends)
