"""The dyadic clear solves only on the paired rows linked to the cross block.

``reducer._clear_matrix`` takes the paired rows with a non-zero cross entry,
closes them over the non-zero entries of the paired block A, and solves on
that closure S alone: A is block diagonal between S and the other paired
rows, where the cross block C is zero, so X = A^-1 C is zero off S and Y / L
in lowest terms is the same.  The clear that solved on every paired row is
kept here, verbatim but for the parent's U-carrying steps it calls
(``parent_steps``), as the reference: on every pass of the search over the
corpora below it gives the same M, U and L as the library's clear on the
rows [M | t(U)]."""

import json
import random
from collections import Counter

from gkinv import cli, linalg, reducer
from gkinv.forms import random_form
from gkinv.padic import PrimeContext
import parent_steps
from test_cli import _quick_cli
from test_kernel import dyadic_corpus, dyadic_even_den_corpus
from test_standard_layout import random_dyadic, synthesized, zero_diagonal

CTX2 = PrimeContext(2)


def parent_clear_matrix(m, u, exps, sigma):
    """Zero the cross rows of the reduced prefix against the tail, skipping
    fixed-point rows, on integer rows.  With X = A^-1 C = Y / L in lowest
    terms (``linalg.solve_int``), apply the integer congruence L·E_X, where
    E_X takes X times the paired prefix columns off each tail column, to m
    and u in place: scale the tail coordinates by L, shear by -Y, scale the
    prefix coordinates by L.  Returns L, which is odd; returns None, with
    both untouched, when L is even, that is when X leaves Z_2 (such a prefix
    cannot extend)."""
    k = len(exps)
    paired = [i for i in range(k) if sigma[i] != i]
    tail = range(k, len(m))
    if not any(any(m[i][k:]) for i in paired):  # nothing to clear
        return 1
    y, l = linalg.solve_int(
        linalg.submatrix(m, paired, paired), linalg.submatrix(m, paired, tail)
    )
    if l % 2 == 0:
        return None
    if l != 1:
        parent_steps.scale(m, tail, l, u)
    # in (prefix, tail) blocks diag(1, L)·[[1, -Y], [0, 1]]·diag(L, 1) = L·E_X;
    # the shears run from prefix to tail coordinates, so they commute
    for i, row in zip(paired, y):
        for j, v in zip(tail, row):
            if v:
                parent_steps.shear(m, i, j, -v, u)
    if l != 1:
        parent_steps.scale(m, range(k), l, u)
    return l


def larger_random(rng):
    """p = 2 forms of n = 13 and 14: random_form at heights 4-14, and forms
    with a zero diagonal."""
    for n in (13, 14):
        for _ in range(6):
            yield random_form(n, CTX2, rng, height=rng.randint(4, 14))
            yield zero_diagonal(rng, n)


def test_the_linked_clear_is_the_full_clear(monkeypatch):
    solved = []  # the size of A in each solve
    solve, clear = linalg.solve_int, reducer._clear_matrix

    def recorded(a, c):
        solved.append(len(a))
        return solve(a, c)

    passes = Counter()  # solves on a strict part of the paired rows, or all

    def checked(m, exps, sigma):
        m_ref, u_ref = parent_steps.split(m)
        l_ref = parent_clear_matrix(m_ref, u_ref, exps, sigma)
        solved.clear()
        l = clear(m, exps, sigma)
        assert (m, l) == (parent_steps.augmented(m_ref, u_ref), l_ref), (exps, sigma)
        if solved:
            paired = sum(s != i for i, s in enumerate(sigma))
            passes["strict" if solved[0] < paired else "all"] += 1
        return l

    kinds = Counter()  # moves taken, by kind; 3 is a collision shear
    candidates = reducer._candidates

    def counted(*args):
        moves = candidates(*args)
        if moves:
            kinds[min(moves)[1]] += 1
        return moves

    monkeypatch.setattr(linalg, "solve_int", recorded)
    monkeypatch.setattr(reducer, "_clear_matrix", checked)
    monkeypatch.setattr(reducer, "_candidates", counted)
    rng, choices = random.Random("linked clear"), Counter()
    corpora = {
        "golden": dyadic_corpus() + dyadic_even_den_corpus(),
        "synthesized": synthesized(rng, 600, choices),
        "random": random_dyadic(rng, 800),
        "larger random": larger_random(rng),
    }
    searches = Counter()
    for name, forms in corpora.items():
        for form in forms:
            reducer._dyadic_search(form)
            searches[name] += 1
    assert sum(searches.values()) >= 2500, searches
    assert passes["strict"] >= 2500 and passes["all"] >= 1600, passes
    # the hard paths: kind-0 (cross-block) pairs and collision shears
    assert kinds[0] >= 600 and kinds[3] >= 350, kinds


def test_gk_of_a_large_dyadic_form_is_quick(tmp_path):
    """gk of random_form(30, PrimeContext(2), random.Random(30), height=14) is
    printed within 10 s: each clear solves on the pair the last move added,
    not on the whole paired prefix."""
    form = random_form(30, CTX2, random.Random(30), height=14)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(cli._form_payload(form)))
    out = _quick_cli(["compute", "--what", "gk", "--input", str(path)], 10, "gk at p = 2, n = 30")
    assert len(out["gk"]) == 30
