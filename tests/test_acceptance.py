"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check here is exact; the only tolerances are the stated wall-clock
budgets.  Random corpora are seed-fixed so reruns are byte-identical.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from gkinv import linalg
from gkinv.egk import enumerate_egk, collapse, lift, random_egk, synthesize_reduced, validate_egk, validate_naive
from gkinv.forms import (
    delta,
    norm_ideal_ord,
    random_form,
    random_unimodular,
    transform,
    validate_form,
)
from gkinv.invariants import check_inverse_bounds, classify_binary, egk_of, gk
from gkinv.involutions import (
    GKType,
    all_involutions,
    choice_block_count,
    is_admissible,
    plus_signature,
    restrict,
    standard_involutions,
)
from gkinv.oracle import (
    SearchBudget,
    exhaustive_gk_binary,
    gk_lower_search,
    hilbert_brute,
    _int_det,
    _int_matrix,
    _iord,
)
from gkinv.padic import PrimeContext, hilbert_symbol, square_class_reps
from gkinv.reducer import is_reduced, reduce_form, verify_certificate
from gkinv.selfcheck import _random_nonzero, random_forms

CTX2 = PrimeContext(2)


def _report(num, text):
    print(f"PASS criterion {num}: {text}")


def corpus_desk_scale(count=500, seed=2024):
    return list(random_forms(random.Random(seed), count, (1, 4), height=4))


def test_criterion_01_worked_example():
    t0 = time.time()
    b = validate_form([[1, 0], [0, 1]], CTX2)
    cert = reduce_form(b)
    assert cert.exps == (0, 1)
    assert verify_certificate(b, cert) == (True, "ok")
    assert cert.reduced.entries == linalg.mat([[1, 1], [1, 2]])
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"gk(diag(1,1)) = (0,1) with verified certificate in {elapsed:.3f}s")


def test_criterion_02_reduced_form_examples():
    b1 = validate_form([[1, 1, 0], [1, 0, 0], [0, 0, 4]], CTX2)
    t1 = GKType((0, 2, 2), (1, 0, 2))
    b2 = validate_form([[1, 0, 0], [0, 0, 2], [0, 2, 0]], CTX2)
    t2 = GKType((0, 2, 2), (0, 2, 1))
    assert is_reduced(b1, t1)
    assert is_reduced(b2, t2)
    assert restrict(t1, 2) is not None
    assert restrict(t2, 2) is None
    _report(2, "both worked 3x3 forms reduced; restriction accepts/rejects as stated")


def test_criterion_03_mass_identity_at_desk_scale():
    t0 = time.time()
    corpus = corpus_desk_scale(500)
    for b in corpus:
        assert sum(gk(b)) == delta(b)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(3, f"|gk| = delta on 500 random forms (n<=4, p in 2,3,5) in {elapsed:.1f}s")


def test_criterion_04_binary_ground_truth():
    rng = random.Random(41)
    done = {2: 0, 3: 0}
    while min(done.values()) < 100:
        p = 2 if done[2] <= done[3] else 3
        ctx = PrimeContext(p)
        b = random_form(2, ctx, rng, height=2)
        if norm_ideal_ord(b) != 0:
            continue
        c, _ = _int_matrix(b)
        if _iord(_int_det(c), p) > (5 if p == 2 else 3):
            continue  # keep the exhaustive transform search tractable
        cls = classify_binary(b, check=False)
        assert gk(b) == exhaustive_gk_binary(b) == cls.predicted_gk
        done[p] += 1
    _report(4, f"gk = exhaustive = classification on {sum(done.values())} primitive binaries")


def test_criterion_05_basis_independence():
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 4)
        b = random_form(n, CTX2, rng, height=3)
        u1 = random_unimodular(n, CTX2, rng)
        u2 = random_unimodular(n, CTX2, rng)
        m1, m2 = transform(b, u1), transform(b, u2)
        c1, c2 = reduce_form(m1), reduce_form(m2)
        assert c1.exps == c2.exps
        assert c1.gk_type.sigma == c2.gk_type.sigma
        assert egk_of(m1) == egk_of(m2)
    _report(5, "identical standard types and block data across 100 random re-coordinatizations")


def test_criterion_06_datum_axioms_and_round_trip():
    rng = random.Random(47)
    for b in corpus_desk_scale(120, seed=4747):
        assert validate_egk(egk_of(b))[0]
    for _ in range(100):
        g = random_egk(rng, max_r=3, max_m=4, max_n=6)
        assert egk_of(synthesize_reduced(g, CTX2)) == g
    _report(6, "computed data satisfy the axioms; 100 dyadic synthesis round trips exact")


def test_criterion_07_lift_surjectivity():
    data = enumerate_egk(3, 4, 6)
    for g in data:
        h = lift(g)
        assert validate_naive(h)[0]
        assert collapse(h) == g
    _report(7, f"collapse(lift(G)) = G for all {len(data)} data with r<=3, m<=4, n<=6")


def test_criterion_08_hilbert_soundness():
    rng = random.Random(53)
    pairs = triples = 0
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        reps = square_class_reps(ctx)
        for a in reps:
            for b in reps:
                assert hilbert_symbol(a, b, ctx) == hilbert_brute(a, b, ctx)
        for _ in range(500):
            a, b = _random_nonzero(rng, ctx), _random_nonzero(rng, ctx)
            assert hilbert_symbol(a, b, ctx) == hilbert_brute(a, b, ctx)
            pairs += 1
    for _ in range(1000):
        ctx = PrimeContext(rng.choice((2, 3, 5)))
        a, b, c = (_random_nonzero(rng, ctx) for _ in range(3))
        assert hilbert_symbol(a, b * c, ctx) == hilbert_symbol(a, b, ctx) * hilbert_symbol(a, c, ctx)
        assert hilbert_symbol(a, -a, ctx) == 1
        triples += 1
    _report(8, f"closed form = brute on full tables and {pairs} pairs; {triples} triples bimultiplicative")


def test_criterion_09_oracle_bracket():
    search_corpus = list(random_forms(random.Random(59), 40, (1, 4), height=3))
    bound_corpus = search_corpus + corpus_desk_scale(500)
    for b in bound_corpus:
        # det(2B) = det(2·den·B) / den^n, on the integer rows den·B
        two_b = [[2 * x for x in row] for row in b.rows]
        from gkinv.padic import valuation

        assert sum(gk(b)) <= valuation(Fraction(linalg.det(two_b), b.den**b.n), b.ctx)
    for i, b in enumerate(search_corpus):
        lo = gk_lower_search(b, SearchBudget(10_000, seed=i))
        assert tuple(lo) <= tuple(gk(b))
    _report(9, "sampled search stays below gk on 40 forms; mass bound holds on 540 forms")


def test_criterion_10_inverse_bounds():
    rng = random.Random(61)
    done = 0
    while done < 50:
        g = random_egk(rng, max_r=3, max_m=4, max_n=6, parity="odd_total")
        exps = g.expand_exps()
        sigma = rng.choice(standard_involutions(exps))
        form = synthesize_reduced(g, CTX2, sigma)
        assert check_inverse_bounds(form, GKType(exps, sigma))
        done += 1
    _report(10, "all five inverse valuation clauses hold on 50 synthesized forms")


def test_criterion_11_involution_census():
    t0 = time.time()
    checked = 0
    for n in range(1, 9):
        invs = all_involutions(n)
        for exps in combinations_with_replacement(range(5), n):
            stds = standard_involutions(exps)
            assert len(stds) == 2 ** choice_block_count(exps)
            sigs = {plus_signature(exps, s) for s in invs if is_admissible(exps, s)}
            assert sigs == {plus_signature(exps, s) for s in stds}
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(11, f"census exact on {checked} exponent sequences (n<=8, values<=4) in {elapsed:.1f}s")
