"""The verifier compares the upper triangle of the congruence only.

``verify_certificate`` first checks that B and R equal their transposes, and
then that t(y)·(den·B)·y = den·diag(c)·R·diag(c) entry by entry for i <= j,
each entry one dot product of a column of y and a column of B·y.  The
verifier that compared the whole of t(y)·(den·B)·y is kept here, verbatim, as
the reference: on the benchmark's ``verify_invariants`` corpora it gives the
same verdicts and reasons."""

import importlib
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from gkinv import linalg
from gkinv.forms import HalfIntegralForm, is_unimodular, random_form, validate_form
from gkinv.involutions import GKType, is_standard
from gkinv.padic import PrimeContext
from gkinv.reducer import ReductionCertificate, is_reduced, reduce_form, verify_certificate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def parent_verify_certificate(form, cert):
    """Independent check of a reduction certificate, on the integer rows y
    and column scales c of U and the integer rows of B and R; it runs no
    search code.  Never raises on bad certificates; returns (False, reason)."""
    exps, y, c = cert.gk_type.exps, cert.y, cert.c
    sizes = {len(exps), cert.reduced.n, len(y), len(c), *map(len, y)}
    if sizes != {form.n}:
        return False, "size mismatch"
    if any(exps[i] > exps[i + 1] for i in range(len(exps) - 1)):
        return False, "exponents not non-decreasing"
    if any(a < 0 for a in exps):
        return False, "negative exponent"
    # each column of U = y·diag(c)^-1 is in lowest terms, so U is p-integral
    # iff p divides no c_j, and then det y = det U·prod(c) is a unit iff det U is
    if any(cj % form.ctx.p == 0 for cj in c) or not is_unimodular(y, form.ctx):
        return False, "transform is not unimodular"
    # t(U) B U = R as t(y)·(den·B)·y = den·diag(c)·R·diag(c), on integer rows
    ri, dr = cert.reduced.rows, cert.reduced.den
    t = linalg.congruence(form.rows, y)
    for row, rrow, ci in zip(t, ri, c):
        k = form.den * ci
        if [x * dr for x in row] != [k * r * cj for cj, r in zip(c, rrow)]:
            return False, "transform does not map the source to the claimed matrix"
    if not is_standard(exps, cert.gk_type.sigma):
        return False, "involution is not standard"
    if not is_reduced(cert.reduced, cert.gk_type):
        return False, "matrix is not reduced for the claimed type"
    return True, "ok"


def _rational(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_upper_triangle_verdicts_are_the_parents(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    corpus = importlib.import_module("corpus")
    reasons = Counter()
    for seed in (1, 2, 3):
        for payload, expected in corpus.verify_invariants(seed, 400):
            ctx = PrimeContext(payload["p"])
            form = validate_form(_rational(payload["matrix"]), ctx)
            cert = payload["cert"]
            gk_type = GKType(tuple(cert["ua"]), tuple(s - 1 for s in cert["sigma"]))
            r = validate_form(_rational(cert["R"]), ctx)
            cert = ReductionCertificate(_rational(cert["U"]), r, gk_type)
            verdict = verify_certificate(form, cert)
            assert verdict == parent_verify_certificate(form, cert)
            assert verdict[0] == expected["genuine"]
            reasons[verdict[1]] += 1
    assert reasons["ok"] >= 700 and sum(reasons.values()) - reasons["ok"] >= 200, reasons


def _lower_tampered(form, i, j, delta):
    """The form with its entry (i, j), i > j, changed by delta only: not
    symmetric, so built by hand, around ``_from_rows``."""
    rows = [list(row) for row in form.rows]
    rows[i][j] += delta
    return HalfIntegralForm(form.ctx, tuple(map(tuple, rows)), form.den)


def test_a_certificate_tampered_below_the_diagonal_is_rejected():
    """The comparison reads i <= j only, so R (or B) tampered at one entry
    below the diagonal is caught by the symmetry check, which also rejects a
    ragged R."""
    for p, n in ((2, 4), (3, 5), (5, 3)):
        form = random_form(n, PrimeContext(p), random.Random(n), height=4)
        cert = reduce_form(form)
        assert verify_certificate(form, cert) == (True, "ok")
        for i in range(1, n):
            for j in range(i):
                bad_r = _lower_tampered(cert.reduced, i, j, p)
                tampered = ReductionCertificate._of_rows(cert.y, cert.c, bad_r, cert.gk_type)
                assert verify_certificate(form, tampered) == (False, "matrix is not symmetric")
                bad_b = _lower_tampered(form, i, j, p)
                assert verify_certificate(bad_b, cert) == (False, "matrix is not symmetric")
        # a ragged R of the right row count is not symmetric either, and no
        # entry past a short row is read
        r = cert.reduced
        ragged = HalfIntegralForm(r.ctx, r.rows[:-1] + (r.rows[-1][:-1],), r.den)
        tampered = ReductionCertificate._of_rows(cert.y, cert.c, ragged, cert.gk_type)
        assert verify_certificate(form, tampered) == (False, "matrix is not symmetric")
