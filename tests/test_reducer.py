import json
import math
import random
import re
import types
from fractions import Fraction

import pytest

from gkinv import forms, involutions, linalg, reducer
from gkinv.cli import main
from gkinv.egk import random_egk, synthesize_reduced
from gkinv.forms import (
    FormError,
    _from_rows,
    leading,
    matrix_in_lattice,
    membership,
    random_form,
    random_unimodular,
    signed_disc,
    transform,
    validate_form,
)
from gkinv.invariants import eta, gk
from gkinv.involutions import GKType, standard_involutions
from gkinv.padic import PrimeContext, quad_ext, valuation
from gkinv.reducer import (
    BudgetExhausted,
    ReductionError,
    _clear_matrix,
    _exact_split,
    binary_gk,
    complete_square,
    dyadic_pair_conditions,
    is_reduced,
    jordan_split,
    reduce_form,
    verify_certificate,
)
import parent_steps

CTX2 = PrimeContext(2)
CTX3 = PrimeContext(3)
CTX5 = PrimeContext(5)

B1_ROWS = [[1, 1, 0], [1, 0, 0], [0, 0, 4]]
B2_ROWS = [[1, 0, 0], [0, 0, 2], [0, 2, 0]]


def test_is_reduced_worked_examples():
    b1 = validate_form(B1_ROWS, CTX2)
    assert is_reduced(b1, GKType((0, 2, 2), (1, 0, 2)))
    b2 = validate_form(B2_ROWS, CTX2)
    assert is_reduced(b2, GKType((0, 2, 2), (0, 2, 1)))
    diag = validate_form([[1, 0], [0, 1]], CTX2)
    assert not is_reduced(diag, GKType((0, 1), (0, 1)))


def naive_is_reduced(form, gk_type, deltas):
    """The reduced-form conditions on Fractions: the lattice bounds, each
    fixed point's exact diagonal order, each pair's 2x2 form with GK invariant
    (a_i, a_j), and the strict bound off the pairs.  Adds (p, delta) of every
    non-degenerate pair to ``deltas``."""
    exps, sigma, b, ctx = gk_type.exps, gk_type.sigma, form.entries, form.ctx
    if not matrix_in_lattice(form.rows, form.den, exps, ctx):
        return False
    for i in range(form.n):
        j = sigma[i]
        if j == i:
            if valuation(b[i][i], ctx) != exps[i]:
                return False
        elif i < j:
            pair = validate_form([[b[i][i], b[i][j]], [b[i][j], b[j][j]]], ctx)
            if not pair.nondegenerate:
                return False
            deltas.add((ctx.p, quad_ext(signed_disc(pair), ctx).d))
            if binary_gk(pair) != (exps[i], exps[j]):
                return False
        for j2 in range(i + 1, form.n):
            if j2 != sigma[i] and 2 * valuation(2 * b[i][j2], ctx) <= exps[i] + exps[j2]:
                return False
    return True


def _is_reduced_cases(rng):
    """(R, type) cases: reduced forms of certificates at p = 2, 3, 5, 7 and
    synthesized p = 2 forms with pairs, under their standard involutions,
    with one exponent shifted by one under each standard involution of the
    shifted list, and with one symmetric entry of R perturbed."""
    reduced = []
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        for k in range(30):
            b = random_form(1 + k % 5, ctx, rng, height=rng.choice((1, 3)))
            reduced.append(reduce_form(b).reduced)
    for k in range(40):
        g = random_egk(rng, max_r=3, max_m=6, max_n=2 + k % 5)
        r = synthesize_reduced(g, CTX2)
        reduced.append(reduce_form(transform(r, random_unimodular(r.n, CTX2, rng))).reduced)
        reduced.append(r)
    for r in reduced:
        ctx, n = r.ctx, r.n
        exps = reduce_form(r).exps
        for sigma in standard_involutions(exps):
            yield r, GKType(exps, sigma)
        for k in range(n):
            for step in (1, -1):
                shifted = exps[:k] + (exps[k] + step,) + exps[k + 1 :]
                if min(shifted) < 0 or list(shifted) != sorted(shifted):
                    continue
                for sigma in standard_involutions(shifted):
                    yield r, GKType(shifted, sigma)
        i, j = rng.randrange(n), rng.randrange(n)
        rows = [list(row) for row in r.entries]
        x = rng.choice((1, -1, 3)) * ctx.p ** rng.randint(0, 2)
        if i != j and ctx.p == 2 and rng.random() < 0.5:
            x = Fraction(x, 2)
        rows[i][j] += x
        rows[j][i] = rows[i][j]
        sigma = standard_involutions(exps)[0]
        yield validate_form(rows, ctx), GKType(exps, sigma)


def test_is_reduced_matches_the_fraction_definition():
    """The one-pass integer check gives the verdict of the Fraction
    definition, on cases that reach every order of the discriminant ideal of
    a pair and both verdicts."""
    deltas, verdicts = set(), {True: 0, False: 0}
    for r, gk_type in _is_reduced_cases(random.Random("reducer/is_reduced")):
        want = naive_is_reduced(r, gk_type, deltas)
        assert is_reduced(r, gk_type) == want, (r.entries, gk_type)
        verdicts[want] += 1
    assert deltas >= {(2, 0), (2, 2), (2, 3)} | {(p, d) for p in (3, 5, 7) for d in (0, 1)}
    assert min(verdicts.values()) >= 50, verdicts


def test_dyadic_shortcut_matches_pair_condition():
    rng = random.Random(11)
    for _ in range(60):
        b = random_form(rng.randint(1, 4), CTX2, rng, height=3)
        cert = reduce_form(b)
        assert dyadic_pair_conditions(cert.reduced, cert.gk_type)


def clear_rows(form, gk_type):
    """(U, B[U]) for ``_clear_matrix`` on the integer rows [den·B | 1] of a
    form whose leading block is reduced of the given type."""
    if not is_reduced(leading(form, gk_type.n), gk_type):
        raise FormError("leading block is not reduced for the given type")
    rows = [list(row) + ei for row, ei in zip(form.rows, linalg.identity(form.n))]
    l = _clear_matrix(rows, gk_type.exps, gk_type.sigma)
    assert l is not None
    m, u = parent_steps.split(rows)
    return linalg.over(u, l), _from_rows(m, form.den * l * l, form.ctx)


def test_clear_rows_noop_cases():
    b = validate_form([[1, 1], [1, 3]], CTX2)
    u, cleared = clear_rows(b, GKType((0,), (0,)))
    assert u == linalg.mat(linalg.identity(2))
    assert cleared.entries == b.entries
    c0 = validate_form([[1, 1, 0], [1, 0, 0], [0, 0, 4]], CTX2)
    u, cleared = clear_rows(c0, GKType((0, 2), (1, 0)))
    assert cleared.entries == c0.entries  # cross column already zero


def test_clear_rows_exact_elimination():
    half = Fraction(1, 2)
    b = validate_form([[0, half, 1], [half, 0, 0], [1, 0, 2]], CTX2)
    u, cleared = clear_rows(b, GKType((0, 0), (1, 0)))
    assert [row[2] for row in u] == [Fraction(0), Fraction(-2), Fraction(1)]
    assert cleared.entries == linalg.mat([[0, half, 0], [half, 0, 0], [0, 0, 2]])
    assert cleared.entries[0][:2] == b.entries[0][:2]


def test_clear_rows_requires_reduced_block():
    b = validate_form([[1, 0], [0, 1]], CTX2)
    with pytest.raises(FormError):
        clear_rows(b, GKType((0, 1), (0, 1)))


def test_complete_square_examples():
    x = complete_square(1, 0, 1, 0, 0, CTX2)
    assert valuation(1 + x * x, CTX2) > 0
    x = complete_square(1, 0, 4, 0, 2, CTX2)
    assert valuation(x, CTX2) >= 1
    assert valuation(4 + x * x, CTX2) > 2
    x = complete_square(1, 4, 9, 0, 0, CTX2)
    assert valuation(9 + 8 * x + x * x, CTX2) > 0
    with pytest.raises(FormError):
        complete_square(1, 0, 2, 0, 1, CTX2)  # odd gap


def test_clear_rows_transform_stays_block_upper():
    """The clear is in the compatible group and has zeros below the
    equal-exponent blocks: rows of exponent 1 have nothing in exponent-0
    columns."""
    half = Fraction(1, 2)
    b = validate_form([[0, half, 1], [half, 0, 0], [1, 0, 2]], CTX2)
    u, _ = clear_rows(b, GKType((0, 0), (1, 0)))
    from gkinv.forms import in_gk_group

    exps = (0, 0, 1)
    assert in_gk_group(u, exps, CTX2)
    assert all(u[i][j] == 0 for i in range(3) for j in range(3) if exps[i] > exps[j])


def test_complete_square_random_inputs():
    rng = random.Random(29)
    for _ in range(150):
        a1 = rng.randint(0, 3)
        a2 = a1 + 2 * rng.randint(0, 2)
        b11 = rng.choice((1, 3, 5, 7)) * 2**a1
        b22 = rng.choice((1, 3, 5, 7)) * 2**a2
        # doubled cross entry strictly above the half-sum
        v = (a1 + a2) // 2 + rng.randint(1, 3)
        b12 = Fraction(rng.choice((0, 1, 3)) * 2**v, 2)
        x = complete_square(b11, b12, b22, a1, a2, CTX2)
        assert valuation(x, CTX2) >= (a2 - a1) // 2
        assert valuation(b22 + 2 * b12 * x + b11 * x * x, CTX2) > a2


def test_binary_gk_values():
    assert binary_gk(validate_form([[1, 0], [0, 1]], CTX2)) == (0, 1)
    h = validate_form([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], CTX2)
    assert binary_gk(h) == (0, 0)
    assert binary_gk(validate_form([[1, 1], [1, 0]], CTX2)) == (0, 2)


def test_jordan_examples():
    cert = reduce_form(validate_form([[1, 0, 0], [0, 3, 0], [0, 0, 9]], CTX3))
    assert cert.exps == (0, 1, 2)
    assert cert.u == linalg.mat(linalg.identity(3))
    h3 = validate_form([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], CTX3)
    cert = reduce_form(h3)
    assert cert.exps == (0, 0)
    assert verify_certificate(h3, cert)[0]
    cert = reduce_form(validate_form([[5, 0], [0, 5]], CTX5))
    assert cert.exps == (1, 1)
    with pytest.raises(FormError):
        jordan_split(validate_form([[1]], CTX2))


def test_jordan_split_exposes_a_diagonal_of_3h(monkeypatch):
    """3·H has no nonzero diagonal, so the split shears e_0 += e_1 before its
    first pivot; the fraction-free step then gives the exact certificate with
    U's second column scaled by its least denominator 2, and R's second
    diagonal entry by 2², so U is integral.  B is validated first, so the
    shear of its pivot chain is not counted."""
    shears = []
    shear = linalg.shear

    def recorded(m, i, j, c):
        shears.append((i, j, c))
        return shear(m, i, j, c)

    b = validate_form([[0, Fraction(3, 2)], [Fraction(3, 2), 0]], CTX3)
    monkeypatch.setattr(linalg, "shear", recorded)
    cert = reduce_form(b)
    assert shears == [(1, 0, 1)]
    assert cert.exps == (1, 1)
    assert cert.u == linalg.mat([[1, -1], [1, 1]])
    assert cert.reduced.entries == linalg.mat([[3, 0], [0, -3]])
    assert verify_certificate(b, cert) == (True, "ok")


def test_jordan_split_reads_one_order_per_step(monkeypatch):
    """Each step reads the least order of its tail off one gcd, so the split
    of an n-coordinate form calls valuation at most n times; a table of
    every tail entry's order took 11,560 calls on this form at n = 40."""
    calls = []
    real = reducer.valuation

    def counted(x, ctx):
        calls.append(x)
        return real(x, ctx)

    n = 40
    exps = [0, 1] + [2 + i // 2 for i in range(n - 2)]
    rows = [[3**a if i == j else 0 for j in range(n)] for i, a in enumerate(exps)]
    b = validate_form(rows, CTX3)
    monkeypatch.setattr(reducer, "valuation", counted)
    assert _exact_split(b)[2] == tuple(exps)
    assert len(calls) <= n


def test_pivots_in_place_make_no_move(monkeypatch):
    """A pivot step whose pivot is already on the diagonal leaves the working
    rows where they are: gk of the p = 3 diagonal form at n = 40, and eta of
    it and of a form whose leading minors are all non-zero, make no
    coordinate move."""
    moves = []
    move = linalg.move

    def recorded(m, t, k):
        moves.append((t, k))
        return move(m, t, k)

    n = 40
    exps = [0, 1] + [2 + i // 2 for i in range(n - 2)]
    b = validate_form([[3**a if i == j else 0 for j in range(n)] for i, a in enumerate(exps)], CTX3)
    c = validate_form([[2, 1, 0], [1, 2, 1], [0, 1, 2]], CTX5)
    monkeypatch.setattr(linalg, "move", recorded)
    assert gk(b) == tuple(exps)
    assert eta(b) in (1, -1) and eta(c) in (1, -1)
    assert moves == []


def test_jordan_split_scans_stop_at_the_lower_bound(monkeypatch):
    """Step k's tail scan stops once the running gcd shows the bound
    v_(k-1) + exps[k - 1]: on the p = 3 diagonal form of exponents
    (0, 1, 2, 2, 3, 3, ...) at n = 100, step 0 and each step whose exponent
    repeats read one row, and the others the whole tail, 2,599 rows in all
    where whole-tail scans read 5,050."""
    calls = []

    def gcd(*args):
        calls.append(args)
        return math.gcd(*args)

    n = 100
    exps = [0, 1] + [2 + i // 2 for i in range(n - 2)]
    b = validate_form([[3**a if i == j else 0 for j in range(n)] for i, a in enumerate(exps)], CTX3)
    monkeypatch.setattr(forms, "math", types.SimpleNamespace(gcd=gcd))
    assert jordan_split(b)[2] == tuple(exps)
    expect = [1 if k == 0 or exps[k] == exps[k - 1] else n - k for k in range(n)]
    # each row read takes two gcds: of its doubled off-diagonal entries, and
    # of that with the running gcd and its diagonal entry
    assert len(calls) == 2 * sum(expect) == 2 * 2599


def test_empty_clear_makes_no_solve(monkeypatch):
    """The dyadic search solves only for a cross block that has a non-zero
    entry: a clear with nothing to clear returns 1 at once."""
    solves = []
    solve = linalg.solve_int

    def recorded(a, c):
        solves.append(any(map(any, c)))
        return solve(a, c)

    monkeypatch.setattr(linalg, "solve_int", recorded)
    c0 = validate_form([[1, 1, 0], [1, 0, 0], [0, 0, 4]], CTX2)
    u, cleared = clear_rows(c0, GKType((0, 2), (1, 0)))
    assert u == linalg.mat(linalg.identity(3)) and cleared == c0 and solves == []
    rng = random.Random("empty clear")
    for _ in range(60):
        g = random_egk(rng, max_r=4, max_m=6, max_n=7)
        r = synthesize_reduced(g, CTX2)
        b = transform(r, random_unimodular(r.n, CTX2, rng, steps=10))
        assert reduce_form(b).exps == g.expand_exps()
    assert solves and all(solves)


def test_reduce_worked_example():
    b = validate_form([[1, 0], [0, 1]], CTX2)
    cert = reduce_form(b)
    assert cert.exps == (0, 1)
    assert cert.gk_type.sigma == (0, 1)
    assert cert.u == linalg.mat([[1, 1], [0, 1]])
    assert cert.reduced.entries == linalg.mat([[1, 1], [1, 2]])
    assert verify_certificate(b, cert) == (True, "ok")


def test_reduce_routes_odd_primes_to_jordan():
    b = validate_form([[1, 0, 0], [0, 5, 0], [0, 0, 125]], CTX5)
    assert reduce_form(b).exps == (0, 1, 3)


def test_reduce_hyperbolic_sum():
    half = Fraction(1, 2)
    rows = [
        [0, half, 0, 0],
        [half, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    cert = reduce_form(validate_form(rows, CTX2))
    assert cert.exps == (0, 0, 1, 1)
    assert cert.gk_type.sigma == (1, 0, 3, 2)


def test_verify_rejects_bad_certificates():
    b = validate_form([[1, 0], [0, 1]], CTX2)
    cert = reduce_form(b)
    other = validate_form([[1, 1], [1, 1 + 4]], CTX2)
    ok, reason = verify_certificate(other, cert)
    assert not ok and "map" in reason
    # a wrong claimed type must be rejected even with the right matrix
    from gkinv.reducer import ReductionCertificate

    bad = ReductionCertificate(cert.u, cert.reduced, GKType((0, 0), (1, 0)))
    ok, reason = verify_certificate(b, bad)
    assert not ok
    for u in (((1,), (0,)), ((1, 0), (0, 1, 0))):
        narrow = ReductionCertificate(u, cert.reduced, cert.gk_type)
        assert verify_certificate(b, narrow) == (False, "size mismatch")
    # denominators divisible by p (for U = 1/2 only the denominator shows
    # it: det(2·U) = 1 is a unit), and a p-integral U with p | det U
    half = Fraction(1, 2)
    for u in ([[1, half], [0, 1]], [[half, 0], [0, half]], [[1, 1], [1, 3]]):
        swapped = ReductionCertificate(linalg.mat(u), cert.reduced, cert.gk_type)
        assert verify_certificate(b, swapped) == (False, "transform is not unimodular")
    # a unimodular U that maps B to another matrix
    elsewhere = ReductionCertificate(linalg.mat([[1, 2], [0, 1]]), cert.reduced, cert.gk_type)
    assert verify_certificate(b, elsewhere) == (
        False,
        "transform does not map the source to the claimed matrix",
    )
    # U and R agree, the involution is standard, but R is not reduced
    unreduced = ReductionCertificate(linalg.identity(2), b, GKType((0, 1), (0, 1)))
    assert verify_certificate(b, unreduced) == (
        False,
        "matrix is not reduced for the claimed type",
    )


def test_verify_rejects_a_claimed_matrix_at_another_prime():
    """R's prime is part of the claim: a reduced form at p = 2 is no
    certificate for the same B at p = 3, where gk is (0, 0)."""
    from gkinv.reducer import ReductionCertificate

    cert = reduce_form(validate_form([[1, 0], [0, 1]], CTX2))
    assert cert.u == linalg.mat([[1, 1], [0, 1]]) and cert.exps == (0, 1)
    b3 = validate_form([[1, 0], [0, 1]], CTX3)
    moved = ReductionCertificate(cert.u, cert.reduced, cert.gk_type)
    assert verify_certificate(b3, moved) == (False, "prime mismatch")
    # the same R rebuilt at p = 3 is refused as before
    r3 = validate_form(linalg.mat([[1, 1], [1, 2]]), CTX3)
    at3 = ReductionCertificate(cert.u, r3, cert.gk_type)
    assert verify_certificate(b3, at3) == (False, "matrix is not reduced for the claimed type")


def test_verify_rejects_admissible_but_nonstandard_involution():
    # pair (1,3) instead of an adjacent pair: admissible, wrong layout
    half = Fraction(1, 2)
    rows = [[0, 0, half], [0, 1, 0], [half, 0, 0]]
    r = validate_form(rows, CTX2)
    exps, sigma = (0, 0, 0), (2, 1, 0)
    from gkinv.involutions import is_admissible, is_standard
    from gkinv.reducer import ReductionCertificate

    assert is_admissible(exps, sigma) and not is_standard(exps, sigma)
    assert is_reduced(r, GKType(exps, sigma))
    cert = ReductionCertificate(linalg.identity(3), r, GKType(exps, sigma))
    ok, reason = verify_certificate(r, cert)
    assert not ok and "standard" in reason


def test_budget_exhaustion_is_loud(monkeypatch):
    rng = random.Random(3)
    b = random_form(4, CTX2, rng, height=4)
    monkeypatch.setattr(reducer, "SEARCH_BUDGET", 1)
    with pytest.raises(BudgetExhausted):
        reduce_form(b)


def test_failed_collision_shear_is_a_reduction_error(monkeypatch):
    from test_kernel import dyadic_corpus

    form = dyadic_corpus()[14]  # n = 6; its search makes two collision shears
    exps = reduce_form(form).exps
    refused = []

    def refuse(*args):
        refused.append(args)
        raise FormError("square completion refused")

    monkeypatch.setattr(reducer, "complete_square", refuse)
    with pytest.raises(ReductionError) as info:
        # an equal form built apart: ``form`` keeps its certificate
        reduce_form(validate_form(form.entries, form.ctx))
    assert len(refused) == 1
    prefix = re.search(r"exps=\[([\d, ]*)\]", str(info.value)).group(1)
    prefix = tuple(int(a) for a in prefix.split(","))
    assert prefix == exps[: len(prefix)] and len(prefix) < len(exps)


def test_an_inadmissible_involution_is_an_internal_failure(monkeypatch, tmp_path, capsys):
    """A reducer that attached an inadmissible involution would be a fault of
    the program, not of the input: ``reduce_form`` refuses the certificate
    with a ``ReductionError``, and the CLI reports exit 2, internal_failure."""
    monkeypatch.setattr(reducer, "standard_involution", lambda exps: tuple(range(len(exps))))
    form = random_form(3, CTX3, random.Random(3))
    assert not involutions.is_admissible(jordan_split(form)[2], (0, 1, 2))
    with pytest.raises(ReductionError, match="certificate rejected: involution is not standard"):
        reduce_form(form)
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"p": 3, "matrix": [[str(x) for x in r] for r in form.entries]}))
    assert main(["reduce", "--input", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "internal_failure"
    assert out["detail"] == "certificate rejected: involution is not standard"


def test_reduce_form_checks_admissibility_once(monkeypatch):
    """The reducer's GK type is built unchecked: the verifier's
    ``is_standard`` is the one admissibility check of ``reduce_form``."""
    calls = []
    real = involutions.is_admissible
    monkeypatch.setattr(
        involutions, "is_admissible", lambda *a: calls.append(a) or real(*a)
    )
    for form in _fresh_forms():
        calls.clear()
        reduce_form(form)
        assert len(calls) == 1
    with pytest.raises(ValueError):
        GKType((0, 0, 0), (0, 1, 2))


def _count_searches(monkeypatch):
    """Count the searches (``_dyadic_search`` or ``jordan_split``) and the
    certificate checks that ``reduce_form`` runs."""
    calls = {"search": 0, "verify": 0}
    for name, kind in (
        ("_dyadic_search", "search"),
        ("jordan_split", "search"),
        ("verify_certificate", "verify"),
    ):

        def counted(*args, _original=getattr(reducer, name), _kind=kind):
            calls[_kind] += 1
            return _original(*args)

        monkeypatch.setattr(reducer, name, counted)
    return calls


def _fresh_forms():
    """A dyadic form whose search makes collision shears, a dyadic binary
    form, an odd form of size 6 and an odd binary form, none reduced yet."""
    from test_kernel import dyadic_corpus, odd_corpus

    dyadic = dyadic_corpus(15)
    return [dyadic[14], dyadic[0], odd_corpus(1)[0], random_form(2, CTX3, random.Random(2))]


def test_a_form_keeps_its_verified_certificate(monkeypatch):
    """reduce_form, egk_of, gk and classify_binary on one form object run one
    search and one verification between them; the form's ==, hash and repr
    do not change, and an equal form built apart runs its own search."""
    from gkinv.invariants import classify_binary, egk_of, gk

    calls = _count_searches(monkeypatch)
    for form in _fresh_forms():
        twin = _from_rows(form.rows, form.den, form.ctx)
        calls.update(search=0, verify=0)
        cert = reduce_form(form)
        egk_of(form)
        assert gk(form) == cert.exps
        if form.n == 2:
            assert classify_binary(form, check=True).predicted_gk == cert.exps
        assert reduce_form(form) is cert
        assert calls == {"search": 1, "verify": 1}
        assert form == twin and hash(form) == hash(twin) and repr(form) == repr(twin)
        assert reduce_form(twin) == cert and reduce_form(twin) is not cert
        assert calls == {"search": 2, "verify": 2}


def test_a_failed_reduction_leaves_the_form_as_it_was(monkeypatch):
    """BudgetExhausted and a rejected certificate store nothing, so the next
    call searches again and succeeds; a kept certificate is returned whatever
    the budget.  Each form's det, which the dyadic search reads before its
    first pass, is read first, so the dicts compare whole."""
    calls = _count_searches(monkeypatch)
    forms = _fresh_forms()
    for form in forms:
        form.det
    dyadic = forms[0]
    before = dict(vars(dyadic))
    budget = reducer.SEARCH_BUDGET
    monkeypatch.setattr(reducer, "SEARCH_BUDGET", 1)
    with pytest.raises(BudgetExhausted):
        reduce_form(dyadic)
    assert vars(dyadic) == before
    monkeypatch.setattr(reducer, "SEARCH_BUDGET", budget)
    verify = reducer.verify_certificate
    monkeypatch.setattr(reducer, "verify_certificate", lambda *args: (False, "refused"))
    for form in forms:
        before = dict(vars(form))
        with pytest.raises(ReductionError, match="^certificate rejected: refused$"):
            reduce_form(form)
        assert vars(form) == before
    monkeypatch.setattr(reducer, "verify_certificate", verify)
    for form in forms:
        calls.update(search=0, verify=0)
        cert = reduce_form(form)
        assert calls == {"search": 1, "verify": 1}
        assert verify_certificate(form, cert) == (True, "ok")
    monkeypatch.setattr(reducer, "SEARCH_BUDGET", 1)
    assert reduce_form(dyadic) is reduce_form(dyadic)


def test_reduce_form_computes_det_b_and_the_det_of_u_mod_p_only(monkeypatch):
    """On a form built by ``_from_rows``, as the CLI builds them, reduce_form
    takes det B at p = 2, off one pivot chain of den·B, and makes one
    ``linalg.det`` call at either prime, ``is_unimodular``'s det of U mod p.
    At odd p it leaves det B untaken, for every d = ord_p det B.  R's det is
    never computed.  ``validate_form`` records det B with one pivot chain and
    no ``linalg.det`` call, and reduce_form then adds the one det of U mod p
    and no chain at either prime."""
    calls, chains = [], []
    det, chain = linalg.det, linalg.pivot_chain
    monkeypatch.setattr(linalg, "det", lambda a: calls.append(a) or det(a))
    monkeypatch.setattr(linalg, "pivot_chain", lambda a, e: chains.append(a) or chain(a, e))
    rng = random.Random("two determinants")
    odd = {}
    while len(odd) < 6:
        form = random_form(rng.choice((4, 6)), (CTX3, CTX5)[len(odd) % 2], rng, height=3)
        odd.setdefault((form.ctx.p, min(valuation(form.det, form.ctx), 2)), form)
    from test_kernel import dyadic_corpus

    for form in dyadic_corpus(3) + list(odd.values()):
        p = form.ctx.p
        fresh = _from_rows(form.rows, form.den, form.ctx)
        calls.clear()
        chains.clear()
        cert = reduce_form(fresh)
        u_mod_p = [[x % p for x in row] for row in cert.y]
        assert calls == [u_mod_p]
        assert chains == ([fresh.rows] if p == 2 else [])
        assert ("det" in vars(fresh)) == (p == 2)
        assert fresh.det == form.det and "det" not in vars(cert.reduced)
        assert "pivots" not in vars(cert.reduced)
        calls.clear()
        chains.clear()
        checked = validate_form(form.entries, form.ctx)
        assert not calls and chains == [checked.rows]
        assert reduce_form(checked) == cert
        assert calls == [u_mod_p] and chains == [checked.rows]


def test_reduce_empty_and_unary():
    empty = validate_form((), CTX2)
    cert = reduce_form(empty)
    assert cert.exps == ()
    single = validate_form([[12]], CTX2)
    assert reduce_form(single).exps == (2,)


def test_the_empty_form_is_verified_and_kept(monkeypatch):
    """The empty form takes the one certificate path: its search returns
    empty rows, and the certificate is verified once and kept."""
    calls = _count_searches(monkeypatch)
    for ctx in (CTX2, CTX3):
        calls.update(search=0, verify=0)
        empty = validate_form((), ctx)
        cert = reduce_form(empty)
        assert (cert.y, cert.c, cert.reduced, cert.exps) == ((), (), empty, ())
        assert reduce_form(empty) is cert
        assert calls == {"search": 1, "verify": 1}


def test_optimality_group_criterion_small():
    rng = random.Random(21)
    from gkinv.forms import in_gk_group, random_unimodular

    for _ in range(40):
        b = random_form(rng.randint(2, 3), CTX2, rng, height=2)
        cert = reduce_form(b)
        r, exps = cert.reduced, cert.exps
        u = random_unimodular(b.n, CTX2, rng)
        moved = transform(r, u)
        assert membership(moved, exps) == in_gk_group(u, exps, CTX2)
        assert reduce_form(moved).exps == exps


def test_certificate_constructors_agree():
    """A certificate built from a Fraction U equals the reducer's, built
    from integer rows, in y, c, == and hash."""
    rng = random.Random(41)
    for ctx in (CTX2, CTX3, CTX5):
        for _ in range(10):
            cert = reduce_form(random_form(rng.randint(1, 5), ctx, rng, height=4))
            again = reducer.ReductionCertificate(cert.u, cert.reduced, cert.gk_type)
            assert (again.y, again.c) == (cert.y, cert.c)
            assert again == cert and hash(again) == hash(cert)
            assert again.u == cert.u


def test_verify_rejects_a_tampered_column_scale():
    """Scaling one c_j by p takes column j of U out of Z_p; scaling it by a
    unit prime to p keeps U unimodular but changes B[U]."""
    for ctx, q in ((CTX2, 3), (CTX3, 2), (CTX5, 7)):
        form = random_form(4, ctx, random.Random(ctx.p), height=4)
        cert = reduce_form(form)
        for j in range(form.n):
            for factor, reason in (
                (ctx.p, "transform is not unimodular"),
                (q, "transform does not map the source to the claimed matrix"),
            ):
                c = list(cert.c)
                c[j] *= factor
                bad = reducer.ReductionCertificate._of_rows(cert.y, c, cert.reduced, cert.gk_type)
                assert bad.c[j] == cert.c[j] * factor
                assert verify_certificate(form, bad) == (False, reason)


def test_certificate_columns_are_in_lowest_terms(monkeypatch):
    """At p = 3, n = 16 each column of y is in lowest terms against its c_j,
    and c_j is the least common denominator of column j of U.  The form has
    ord det B = 2, so it takes the exact split, which divides 13 columns of
    its U by a scale g_k > 1.  Over one common denominator the same U has
    entries of about 2,640 bits; y has 341.  The certificate that
    ``reduce_form`` keeps takes each column to its balanced residue mod
    p^(N_i) (``_short_columns``), entries of 3 bits."""
    scales, lowest = [], reducer._lowest_columns

    def counted(y, c):
        y, g = lowest(y, c)
        scales.append(g)
        return y, g

    monkeypatch.setattr(reducer, "_lowest_columns", counted)
    form = random_form(16, CTX3, random.Random(25), height=14)
    cert = reduce_form(form)
    assert sum(g != 1 for g in scales[0]) == 13
    for j, (cj, col) in enumerate(zip(cert.c, zip(*cert.y))):
        assert cj > 0 and math.gcd(cj, *col) == 1
        assert cj == math.lcm(*(row[j].denominator for row in cert.u))
    assert max(abs(x).bit_length() for row in _exact_split(form)[1] for x in row) == 341
    assert max(abs(x).bit_length() for row in cert.y for x in row) == 3


def test_reduction_stays_on_integer_rows(monkeypatch):
    """reduce_form and egk_of on a fresh form never validate a Fraction
    matrix or scale one to integers, and build no Fraction matrix."""
    import sys

    from gkinv.invariants import egk_of
    from test_kernel import dyadic_corpus, odd_corpus

    forms = [validate_form(f.entries, f.ctx) for f in dyadic_corpus(10)[5:] + odd_corpus(4)]
    calls = []
    for name, original in (("validate_form", validate_form), ("_scaled", linalg._scaled)):

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        for module in [m for k, m in sys.modules.items() if k.startswith("gkinv")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    for form in forms:
        cert = reduce_form(form)
        egk_of(form)
        assert calls == []
        assert "entries" not in vars(form) and "entries" not in vars(cert.reduced)
        assert "u" not in vars(cert)
