"""The verifier with its type check read from a cache of verdicts, one entry
per distinct (exps, sigma): ``verify_certificate``'s (ok, reason) equals the
parent's in ``parent_verify`` on every item of the ``verify_invariants`` pool,
genuine and tampered, on one targeted tamper per rejection reason, and with
list-typed exps and sigma; and ``is_admissible`` and ``is_standard`` equal
the parent's uncached verdicts on every involution of every exponent
sequence with entries <= 5 at n <= 6 and <= 4 at n = 7, on a cold cache and
on a warm one."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import parent_verify as parent
import pytest

from gkinv import involutions
from gkinv.forms import HalfIntegralForm, _from_rows, validate_form
from gkinv.involutions import (
    TYPE_CACHE_SIZE,
    GKType,
    _type_verdict,
    all_involutions,
    is_admissible,
    is_standard,
)
from gkinv.padic import PrimeContext
from gkinv.reducer import ReductionCertificate, reduce_form, verify_certificate
from test_read_side import _bench, _bench_pool

CTX3, CTX5 = PrimeContext(3), PrimeContext(5)


def assert_as_parent(form, cert, reason=None) -> None:
    """(ok, reason) equals the parent's, twice (the second on a warm cache),
    and is (False, reason) when a reason is given."""
    want = parent.verify_certificate(form, cert)
    for _ in range(2):
        assert verify_certificate(form, cert) == want
    if reason is not None:
        assert want == (False, reason)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_the_verify_invariants_pool_verifies_as_parent(seed):
    """Every item, genuine and tampered, with its type as given and as lists."""
    worker = _bench("worker")
    reasons = set()
    for payload, expected in _bench_pool("verify_invariants", seed):
        form, cert = worker.parse_item("verify_invariants", payload)
        assert_as_parent(form, cert)
        ok, reason = verify_certificate(form, cert)
        assert ok == expected["genuine"]
        reasons.add(reason)
        t = cert.gk_type
        listed = ReductionCertificate._of_rows(
            cert.y, cert.c, cert.reduced, GKType._of(list(t.exps), list(t.sigma))
        )
        assert verify_certificate(form, listed) == (ok, reason)
    assert "ok" in reasons and len(reasons) > 1, reasons


def _base():
    """B = diag(1, 3, 9) at p = 3, its certificate, exps (0, 1, 2) with the
    pair (0 2), and the pieces a tamper changes."""
    b = validate_form([[1, 0, 0], [0, 3, 0], [0, 0, 9]], CTX3)
    cert = reduce_form(b)
    assert cert.exps == (0, 1, 2) and cert.gk_type.sigma == (2, 1, 0)
    return b, cert, cert.y, cert.c, cert.reduced


def _tampers():
    """(reason, certificate) for each rejection of the verifier, in its order."""
    b, cert, y, c, r = _base()
    t = cert.gk_type
    rows = [list(row) for row in r.rows]
    rows[0][1] += 1  # R no longer symmetric
    moved = [list(row) for row in r.rows]
    moved[0][0] += 3  # symmetric, but not t(U) B U
    yield "size mismatch", ReductionCertificate._of_rows(y[:2], c[:2], r, t)
    yield "prime mismatch", ReductionCertificate._of_rows(y, c, _from_rows(r.rows, r.den, CTX5), t)
    yield "exponents not non-decreasing", ReductionCertificate._of_rows(
        y, c, r, GKType._of((0, 2, 1), t.sigma)
    )
    yield "negative exponent", ReductionCertificate._of_rows(
        y, c, r, GKType._of((-1, 1, 2), t.sigma)
    )
    yield "transform is not unimodular", ReductionCertificate._of_rows(y, (3, *c[1:]), r, t)
    yield "matrix is not symmetric", ReductionCertificate._of_rows(
        y, c, HalfIntegralForm(CTX3, tuple(map(tuple, rows)), r.den), t
    )
    yield "transform does not map the source to the claimed matrix", ReductionCertificate._of_rows(
        y, c, _from_rows(moved, r.den, CTX3), t
    )
    # the identity on (0, 1, 2) has three fixed points: not admissible
    yield "involution is not standard", ReductionCertificate._of_rows(
        y, c, r, GKType._of(t.exps, (0, 1, 2))
    )
    # (0, 1, 4) has the same standard involution, but ord R_22 = 2, not 4
    yield "matrix is not reduced for the claimed type", ReductionCertificate._of_rows(
        y, c, r, GKType._of((0, 1, 4), t.sigma)
    )


def test_each_rejection_reason_as_parent():
    """One tamper per reason, each rejected for that reason by both sides,
    with its type as tuples and as lists; the untampered certificate passes."""
    b, cert, *_ = _base()
    assert_as_parent(b, cert)
    assert verify_certificate(b, cert) == (True, "ok")
    seen = []
    for reason, bad in _tampers():
        assert_as_parent(b, bad, reason)
        t = bad.gk_type
        listed = ReductionCertificate._of_rows(
            bad.y, bad.c, bad.reduced, GKType._of(list(t.exps), list(t.sigma))
        )
        assert_as_parent(b, listed, reason)
        seen.append(reason)
    assert len(seen) == len(set(seen)) == 9


def test_an_admissible_layout_that_is_not_standard_as_parent():
    """The pair (0 2) on three equal exponents is admissible but not laid
    out as adjacent pairs: both sides reject it as not standard."""
    half = Fraction(1, 2)
    r = validate_form([[0, 0, half], [0, 1, 0], [half, 0, 0]], PrimeContext(2))
    exps, sigma = (0, 0, 0), (2, 1, 0)
    assert is_admissible(exps, sigma) and not is_standard(exps, sigma)
    cert = ReductionCertificate._of_rows(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 1, 1), r,
                                         GKType(exps, sigma))
    assert_as_parent(r, cert, "involution is not standard")


def test_cached_verdicts_equal_the_uncached_ones():
    """Every involution of n <= 7 points against every non-decreasing
    exponent sequence with entries <= 5 (<= 4 at n = 7), as tuples and as
    lists: the cached verdicts equal the parent's and ``_type_verdict``'s own
    uncached body, on a cold cache and on a warm one."""
    _type_verdict.cache_clear()
    pairs = standard = 0
    for n in range(8):
        sigmas = all_involutions(n)
        for exps in combinations_with_replacement(range(6 if n < 7 else 5), n):
            for sigma in sigmas:
                adm, std = parent.is_admissible(exps, sigma), parent.is_standard(exps, sigma)
                uncached = _type_verdict.__wrapped__(exps, sigma)
                for _ in range(2):
                    for e, s in ((exps, sigma), (list(exps), list(sigma))):
                        assert (is_admissible(e, s), is_standard(e, s)) == (adm, std), (e, s)
                        assert _type_verdict(exps, sigma) == uncached
                pairs += 1
                standard += std
    assert pairs == 119_757 and standard, standard
    info = _type_verdict.cache_info()
    assert info.maxsize == TYPE_CACHE_SIZE and 0 < info.currsize <= TYPE_CACHE_SIZE


def test_a_decreasing_sequence_raises_on_every_call():
    """A raising call leaves no verdict in the cache, so the check raises
    again, as the parent's does."""
    for _ in range(2):
        for check in (is_admissible, is_standard, parent.is_admissible, parent.is_standard):
            with pytest.raises(ValueError, match="non-decreasing"):
                check((1, 0), (1, 0))
        with pytest.raises(ValueError):
            GKType((1, 0), (1, 0))


def test_the_public_checks_stay_plain_functions():
    """The span tracer wraps plain functions only, so the cache sits on the
    private helper and not on ``is_standard`` or ``is_admissible``."""
    import types

    for fn in (involutions.is_standard, involutions.is_admissible):
        assert type(fn) is types.FunctionType
