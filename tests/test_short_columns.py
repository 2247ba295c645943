"""At odd p a form with d = ord_p det B >= 2 takes the exact split, and then
``_short_columns``: each column i of U goes to its balanced residue mod
p^(N_i), N_i = floor((a_i - a_1)/2) + 1, and R is formed again, when bit
lengths prove that this certificate prints shorter.  Where the rule fires,
the kept certificate verifies, has the exact one's exponents and involution,
U's columns are balanced residues of the exact ones mod p^(N_i), and its JSON
is shorter.  On every odd-p form of the four bench pools, seeds 1-3, the kept
certificate is never longer than the exact one, and on ``cli_batch`` it is
the exact one."""

from __future__ import annotations

import json

import pytest

from gkinv.cli import _cert_payload
from gkinv.forms import _from_rows
from gkinv.involutions import GKType
from gkinv.padic import valuation
from gkinv.reducer import (
    ReductionCertificate,
    _exact_split,
    _short_columns,
    _split_mod_p,
    reduce_form,
    verify_certificate,
)
from test_read_side import _bench, _bench_pool
from test_smith_exponents import many_block_form

POOLS = ["verify_invariants", "dyadic_scrambled", "odd_random", "cli_batch"]


def _json(cert) -> str:
    return json.dumps(_cert_payload(cert), sort_keys=True, separators=(",", ":"))


def _certificate(form, split) -> ReductionCertificate:
    m, u, exps, sigma = split
    return ReductionCertificate._of_rows(u, (1,) * form.n, _from_rows(m, form.den, form.ctx), GKType._of(exps, sigma))


def _odd_forms(name: str, seed: int):
    worker = _bench("worker")
    for payload, _ in _bench_pool(name, seed):
        form = worker.parse_form(payload)
        if form.ctx.p != 2:
            yield form


def assert_short_certificate(form, exact) -> None:
    """The kept certificate of a form where the rule fired: it verifies, with
    the exact exponents and involution, and its U is the exact U column by
    column in balanced residues mod p^(N_i), its JSON shorter."""
    cert = reduce_form(form)
    p, exps = form.ctx.p, exact.exps
    assert verify_certificate(form, cert) == (True, "ok")
    assert (cert.exps, cert.gk_type.sigma) == (exps, exact.gk_type.sigma)
    assert cert.c == (1,) * form.n
    q = [p ** ((a - exps[0]) // 2 + 1) for a in exps]
    for row, exact_row in zip(cert.y, exact.y):
        for x, e, qi in zip(row, exact_row, q):
            assert -qi < 2 * x < qi and (x - e) % qi == 0
    assert len(_json(cert)) < len(_json(exact))


def test_the_rule_fires_on_odd_random_and_keeps_a_short_certificate():
    fired = 0
    for form in _odd_forms("odd_random", 1):
        if valuation(form.det, form.ctx) < 2:
            continue
        split = _exact_split(form)
        if _short_columns(form, *split)[1] is not split[1]:
            assert_short_certificate(form, _certificate(form, split))
            fired += 1
    assert fired >= 5, fired


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", POOLS)
def test_the_kept_certificate_is_never_longer_than_the_exact_one(name, seed):
    """Every odd-p form of the pool; on ``cli_batch`` the rule never fires, so
    its certificates are the parent's byte for byte."""
    forms = exact_split = 0
    for form in _odd_forms(name, seed):
        forms += 1
        if _split_mod_p(form) is not None:
            continue
        exact_split += 1
        cert, exact = _json(reduce_form(form)), _json(_certificate(form, _exact_split(form)))
        assert len(cert) <= len(exact)
        if name == "cli_batch":
            assert cert == exact
    assert (forms > 0) == (exact_split > 0) == (name != "dyadic_scrambled")


@pytest.mark.parametrize("n", [40, 80])
def test_the_many_block_certificate_keeps_short_columns(n):
    """The many-block form of seven Jordan blocks: its exact U carries the
    leading minors of den·B, and the kept one residues below 3^4."""
    form, a = many_block_form(n)
    split = _exact_split(form)
    assert _short_columns(form, *split)[1] is not split[1]
    assert_short_certificate(form, _certificate(form, split))
    assert list(reduce_form(form).exps) == a
