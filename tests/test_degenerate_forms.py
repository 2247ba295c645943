"""A degenerate form has no block sign and no reduction, and each routine
that would need one rejects it itself with ``FormError("degenerate form")``.
``eta``, ``leading_signs`` and ``naive_datum_of_diagonal`` read no det B for
that: their one elimination finds a leading block with no non-zero entry
left.  The dyadic search does read det B before its first pass, because
without that check its collision shears chase the radical until the budget
runs out.  The forms are the degenerate families of
``test_unimodular_split`` at p = 2, 3, 5 and 7, the rank-one form
[[1, 1], [1, 1]] and a diagonal form with a zero in the middle; through the
CLI each gets one invalid_input document, with --jobs 1 and in a pool of
two behind a valid form."""

import json
import random
import time

import pytest

from gkinv import reducer
from gkinv.cli import _form_payload, main
from gkinv.egk import naive_datum_of_diagonal
from gkinv.forms import FormError, HalfIntegralForm, _from_rows
from gkinv.invariants import eta, leading_signs
from gkinv.padic import PrimeContext
from gkinv.reducer import BudgetExhausted, _dyadic_search, reduce_form
from test_unimodular_split import _degenerate

INVALID = '{"detail":"degenerate form","error":"invalid_input"}\n'
SMALL = ([[1, 1], [1, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 3]])


def _forms(primes):
    """(form, in_cli) for each degenerate form at each p in ``primes``, with
    det B = 0 checked and then rebuilt by ``_from_rows``, so no det is
    cached; in_cli marks the n = 4 family members and the two small forms."""
    rng = random.Random("degenerate forms")
    out = []
    for p in primes:
        ctx = PrimeContext(p)
        cases = [(_degenerate(rng, p, n, family), n == 4)
                 for family in range(3) for n in range(2 if family == 2 else 3, 7)]
        cases += [(_from_rows(rows, 1, ctx), True) for rows in SMALL]
        for form, in_cli in cases:
            assert form.det == 0
            out.append((_from_rows(form.rows, form.den, ctx), in_cli))
    return out


def _cli_rejects(args, forms, tmp_path, capsys):
    """``gkinv`` with ``args`` on [a valid form, form] exits 1 with the one
    invalid_input document, with --jobs 1 and --jobs 2."""
    for k, form in enumerate(forms):
        batch = [{"p": form.ctx.p, "matrix": [["1", "0"], ["0", "1"]]}, _form_payload(form)]
        path = tmp_path / f"degenerate{k}.json"
        path.write_text(json.dumps(batch))
        for jobs in ("1", "2"):
            assert main([*args, "--input", str(path), "--jobs", jobs]) == 1
            assert capsys.readouterr().out == INVALID, (args, k, jobs)


def test_the_sign_readers_reject_a_degenerate_form_from_their_elimination(tmp_path, capsys):
    """eta, leading_signs over every prefix and over the whole form, and
    naive_datum_of_diagonal each raise ``FormError("degenerate form")`` and
    leave det B unread; ``gkinv compute --what eta`` and ``--what egk``
    each exit 1 with invalid_input."""
    cases = _forms((2, 3, 5, 7))
    for form, _ in cases:
        n = form.n
        for read in (eta, lambda f: leading_signs(f, range(1, n + 1)),
                     lambda f: leading_signs(f, [n]), naive_datum_of_diagonal):
            with pytest.raises(FormError, match="^degenerate form$"):
                read(form)
        assert "det" not in vars(form)
    cli = [form for form, in_cli in cases if in_cli]
    assert len(cli) == 20
    for what in ("eta", "egk"):
        _cli_rejects(["compute", "--what", what], cli, tmp_path, capsys)


def test_the_dyadic_search_rejects_a_degenerate_form_before_its_first_pass(
    monkeypatch, tmp_path, capsys
):
    """At p = 2 ``reduce_form`` raises ``FormError("degenerate form")`` from
    the search's det B check, before any pass and within a second, and
    ``gkinv reduce`` exits 1 with invalid_input.  Without the check,
    [[1, 1], [1, 1]] runs a budget of 300 passes out."""
    cases = _forms((2,))
    with monkeypatch.context() as patch:
        def no_pass(*args):
            raise AssertionError("the search took a pass")

        patch.setattr(reducer, "_clear_matrix", no_pass)
        for form, _ in cases:
            start = time.perf_counter()
            with pytest.raises(FormError, match="^degenerate form$"):
                reduce_form(form)
            assert time.perf_counter() - start < 1.0
    _cli_rejects(["reduce"], [form for form, in_cli in cases if in_cli], tmp_path, capsys)
    monkeypatch.setattr(reducer, "SEARCH_BUDGET", 300)
    monkeypatch.setattr(HalfIntegralForm, "nondegenerate", property(lambda form: True))
    with pytest.raises(BudgetExhausted):
        _dyadic_search(_from_rows(SMALL[0], 1, PrimeContext(2)))
