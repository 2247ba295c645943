import random
import re
from fractions import Fraction

import pytest

from gkinv import linalg, reducer
from gkinv.egk import random_egk, synthesize_reduced
from gkinv.forms import (
    FormError,
    matrix_in_lattice,
    membership,
    random_form,
    random_unimodular,
    signed_disc,
    transform,
    validate_form,
)
from gkinv.involutions import GKType, standard_involutions
from gkinv.padic import PrimeContext, quad_ext, valuation
from gkinv.reducer import (
    BudgetExhausted,
    ReductionError,
    binary_gk,
    clear_rows,
    complete_square,
    dyadic_pair_conditions,
    is_reduced,
    jordan_split,
    reduce_form,
    verify_certificate,
)

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
    if not matrix_in_lattice(b, exps, ctx):
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


def test_clear_rows_noop_cases():
    b = validate_form([[1, 1], [1, 3]], CTX2)
    u, cleared = clear_rows(b, GKType((0,), (0,)))
    assert u == linalg.identity(2)
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
    half = Fraction(1, 2)
    b = validate_form([[0, half, 1], [half, 0, 0], [1, 0, 2]], CTX2)
    u, _ = clear_rows(b, GKType((0, 0), (1, 0)))
    from gkinv.forms import in_gk_group

    assert in_gk_group(u, (0, 0, 1), CTX2, variant="upper")


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
    cert = jordan_split(validate_form([[1, 0, 0], [0, 3, 0], [0, 0, 9]], CTX3))
    assert cert.exps == (0, 1, 2)
    assert cert.u == linalg.identity(3)
    h3 = validate_form([[0, Fraction(1, 2)], [Fraction(1, 2), 0]], CTX3)
    cert = jordan_split(h3)
    assert cert.exps == (0, 0)
    assert verify_certificate(h3, cert)[0]
    cert = jordan_split(validate_form([[5, 0], [0, 5]], CTX5))
    assert cert.exps == (1, 1)
    with pytest.raises(FormError):
        jordan_split(validate_form([[1]], CTX2))


def test_jordan_split_exposes_a_diagonal_of_3h(monkeypatch):
    """3·H has no nonzero diagonal, so the split shears e_0 += e_1 before its
    first pivot; the fraction-free step then gives the exact certificate."""
    shears = []
    shear = linalg.shear

    def recorded(m, i, j, c, u=None):
        shears.append((i, j, c))
        return shear(m, i, j, c, u)

    monkeypatch.setattr(linalg, "shear", recorded)
    b = validate_form([[0, Fraction(3, 2)], [Fraction(3, 2), 0]], CTX3)
    cert = jordan_split(b)
    assert shears == [(1, 0, 1)]
    assert cert.exps == (1, 1)
    assert cert.u == linalg.mat([[1, Fraction(-1, 2)], [1, Fraction(1, 2)]])
    assert cert.reduced.entries == linalg.mat([[3, 0], [0, Fraction(-3, 4)]])
    assert verify_certificate(b, cert) == (True, "ok")


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
    narrow = ReductionCertificate(((1,), (0,)), cert.reduced, cert.gk_type)
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


def test_budget_exhaustion_is_loud():
    rng = random.Random(3)
    b = random_form(4, CTX2, rng, height=4)
    with pytest.raises(BudgetExhausted):
        reduce_form(b, budget=1)


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
        reduce_form(form)
    assert len(refused) == 1
    prefix = re.search(r"exps=\[([\d, ]*)\]", str(info.value)).group(1)
    prefix = tuple(int(a) for a in prefix.split(","))
    assert prefix == exps[: len(prefix)] and len(prefix) < len(exps)


def test_reduce_empty_and_unary():
    empty = validate_form((), CTX2)
    cert = reduce_form(empty)
    assert cert.exps == ()
    single = validate_form([[12]], CTX2)
    assert reduce_form(single).exps == (2,)


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
