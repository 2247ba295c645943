import random
from fractions import Fraction

import pytest

from gkinv import linalg
from gkinv.egk import EGKDatum, random_egk, synthesize_reduced
from gkinv.forms import (
    FormError,
    _from_rows,
    direct_sum,
    leading,
    random_form,
    random_unimodular,
    signed_disc,
    transform,
    validate_form,
)
from gkinv.invariants import (
    check_inverse_bounds,
    classify_binary,
    egk_of,
    eta,
    gk,
    is_optimal_binary,
    xi,
)
from gkinv.involutions import GKType, standard_involutions
from gkinv.padic import PrimeContext, hilbert_symbol
from gkinv.reducer import reduce_form

CTX2 = PrimeContext(2)
CTX3 = PrimeContext(3)
CTX5 = PrimeContext(5)
CTX7 = PrimeContext(7)

HALF = Fraction(1, 2)
H = [[0, HALF], [HALF, 0]]
Y = [[1, HALF], [HALF, 1]]


def test_gk_examples():
    assert gk(validate_form([[1, 0], [0, 1]], CTX2)) == (0, 1)
    assert gk(validate_form([[1, 1], [1, 0]], CTX2)) == (0, 2)
    assert gk(validate_form([[1, 0, 0], [0, 3, 0], [0, 0, 9]], CTX3)) == (0, 1, 2)


def test_xi_examples():
    assert xi(validate_form(H, CTX2)) == 1
    assert xi(validate_form(Y, CTX2)) == -1
    assert xi(validate_form([[1, 0], [0, 1]], CTX2)) == 0


def test_eta_examples():
    assert eta(validate_form([[1]], CTX2)) == 1
    assert eta(validate_form(H, CTX2)) == 1
    assert eta(validate_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]], CTX2)) == -1


def test_eta_diagonalization_handles_zero_diagonal():
    assert eta(validate_form(H, CTX2)) == eta(validate_form([[1, 0], [0, -1]], CTX2))


def naive_field_diagonal(b):
    """A diagonal of B over Q by dense Fraction Gaussian elimination, with
    eta's pivot rule: the first later nonzero diagonal is rotated to k, or
    else e_i += e_j at the first nonzero off-diagonal entry (i, j) of the
    tail and i is rotated to k."""
    a = [[Fraction(x) for x in row] for row in b]
    n, out = len(a), []
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is None:
                i, j = next((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j])
                for row in a:
                    row[i] += row[j]
                a[i] = [x + y for x, y in zip(a[i], a[j])]
                piv = i
            a.insert(k, a.pop(piv))
            for row in a:
                row.insert(k, row.pop(piv))
        out.append(a[k][k])
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def eta_of_diagonal(d, ctx):
    """The Clifford invariant of diag(d) as a product of Hilbert symbols."""
    n, det = len(d), Fraction(1)
    for x in d:
        det *= x
    val = hilbert_symbol(-1, -1, ctx) ** ((n + 1) // 4)
    val *= hilbert_symbol(-1, det, ctx) ** ((n - 1) // 2)
    for i in range(n):
        for j in range(i + 1, n):
            val *= hilbert_symbol(d[i], d[j], ctx)
    return val


def _zero_diagonal_forms(rng):
    """Hyperbolic planes H and 3·H at p = 2, 3, 5 and 7, alone, as H ⊕ H and
    in sums with random forms up to n = 10, and p = 2 reduced forms with
    pairs."""
    h3 = [[0, Fraction(3, 2)], [Fraction(3, 2), 0]]
    hh = direct_sum(validate_form(H, CTX3), validate_form(H, CTX3))
    forms = [validate_form(H, CTX2), validate_form(h3, CTX3), validate_form(H, CTX3), hh]
    for k in range(32):
        ctx = (CTX2, CTX3, CTX5, CTX7)[k % 4]
        forms.append(direct_sum(validate_form(H, ctx), random_form(1 + k % 8, ctx, rng)))
        forms.append(direct_sum(random_form(1 + k % 3, ctx, rng), validate_form(h3, ctx)))
    for k in range(12):
        g = random_egk(rng, max_r=3, max_m=6, max_n=2 + k % 5)
        forms.append(synthesize_reduced(g, CTX2))
    return forms


def test_eta_matches_a_naive_diagonalization(monkeypatch):
    """eta's fraction-free field diagonal with lazy row scales,
    d_k = piv_k / (den·piv_{k-1}) for the pivots its ``linalg.pivot_chain``
    gives, equals the dense Fraction one, and eta
    equals the Hilbert-symbol product over it, on forms that reach a move
    past other coordinates and the exposing shear of the diagonalization.
    Each form is rebuilt by ``_from_rows``, so that eta runs the pivot chain
    that validation would have cached, and the form keeps those pivots."""
    forms = _zero_diagonal_forms(random.Random("eta/naive"))
    assert {f.ctx.p for f in forms} == {2, 3, 5, 7}
    assert max(f.n for f in forms) == 10
    calls = {"move": 0, "shear": 0}
    for name in calls:
        step = getattr(linalg, name)

        def counted(m, i, j, *args, _step=step, _name=name):
            if _name == "shear" or i != j:  # move(m, t, k) does nothing at t == k
                calls[_name] += 1
            return _step(m, i, j, *args)

        monkeypatch.setattr(linalg, name, counted)
    pivots = []

    def recorded(rows, ends, _chain=linalg.pivot_chain):
        for piv in _chain(rows, ends):
            pivots.append(piv)
            yield piv

    monkeypatch.setattr(linalg, "pivot_chain", recorded)
    for form in forms:
        d = naive_field_diagonal(form.entries)
        fresh = _from_rows(form.rows, form.den, form.ctx)
        pivots.clear()
        assert eta(fresh) == eta_of_diagonal(d, form.ctx)
        assert fresh.pivots == tuple(pivots)
        prevs = [1] + pivots[:-1]
        assert [Fraction(pk, form.den * pj) for pk, pj in zip(pivots, prevs)] == d
    assert calls["move"] and calls["shear"], calls


def test_classify_binary_examples():
    cls = classify_binary(validate_form(H, CTX2))
    assert (cls.ext.kind, cls.conductor, cls.decomposable) == ("split", 0, False)
    assert cls.predicted_gk == (0, 0)
    cls = classify_binary(validate_form([[1, 0], [0, 1]], CTX2))
    assert cls.ext.d == 2 and cls.conductor == 0 and cls.decomposable
    assert cls.predicted_gk == (0, 1)
    cls = classify_binary(validate_form([[1, 1], [1, 0]], CTX2))
    assert (cls.ext.kind, cls.conductor) == ("split", 1)
    assert cls.predicted_gk == (0, 2)
    cls = classify_binary(validate_form([[2, 0], [0, 6]], CTX3))
    assert cls.scale == 0 and cls.predicted_gk == (0, 1)
    cls = classify_binary(validate_form([[4, 0], [0, 4]], CTX2))
    assert cls.scale == 2 and cls.predicted_gk == (2, 3)


def test_decomposable_flag_matches_invariant_gap():
    # a scaled-primitive dyadic binary splits exactly when its invariant
    # rises after the first entry
    rng = random.Random(8)
    done = 0
    while done < 40:
        b = random_form(2, CTX2, rng, height=2)
        cls = classify_binary(b)
        g = gk(b)
        assert cls.decomposable == (g[1] > g[0])
        done += 1


def test_is_optimal_binary_cases():
    assert is_optimal_binary(validate_form([[1, 1], [1, 2]], CTX2), (0, 1))
    assert not is_optimal_binary(validate_form([[1, 0], [0, 1]], CTX2), (0, 0))
    assert is_optimal_binary(validate_form([[1, 1], [1, 0]], CTX2), (0, 2))
    with pytest.raises(FormError):
        is_optimal_binary(validate_form([[1, 0], [0, 1]], CTX3), (0, 0))


def test_egk_of_empty_form_is_invalid_input():
    with pytest.raises(FormError):
        egk_of(validate_form((), CTX2))


def test_egk_of_examples():
    assert egk_of(validate_form([[1, 0], [0, 1]], CTX2)) == EGKDatum(
        (1, 1), (0, 1), (1, 0)
    )
    assert egk_of(validate_form(H, CTX2)) == EGKDatum((2,), (0,), (1,))
    assert egk_of(validate_form([[1, 0], [0, 3]], CTX3)) == EGKDatum(
        (1, 1), (0, 1), (1, 0)
    )


def test_check_inverse_bounds_examples():
    assert check_inverse_bounds(
        validate_form([[1, 0], [0, 2]], CTX2), GKType((0, 1), (0, 1))
    )
    assert check_inverse_bounds(
        validate_form([[1, 1], [1, 2]], CTX2), GKType((0, 1), (0, 1))
    )
    with pytest.raises(FormError):
        check_inverse_bounds(
            validate_form([[1, 0, 0], [0, 1, 0], [0, 0, 2]], CTX2),
            GKType((0, 0, 1), (1, 0, 2)),
        )


def test_inverse_bounds_on_synthesized_forms():
    rng = random.Random(9)
    for _ in range(20):
        g = random_egk(rng, max_r=3, max_m=4, max_n=6, parity="odd_total")
        exps = g.expand_exps()
        for sigma in standard_involutions(exps):
            form = synthesize_reduced(g, CTX2, sigma)
            assert check_inverse_bounds(form, GKType(exps, sigma))


def test_eta_chain_rule():
    rng = random.Random(4)
    for _ in range(40):
        p = rng.choice((2, 3))
        ctx = PrimeContext(p)
        b = random_form(rng.randint(2, 4), ctx, rng, height=2)
        lead = leading(b, b.n - 1)
        if not lead.nondegenerate:
            continue
        assert eta(b) == eta(lead) * hilbert_symbol(
            signed_disc(b), signed_disc(lead), ctx
        )


def test_eta_is_equivalence_invariant():
    rng = random.Random(5)
    for _ in range(30):
        p = rng.choice((2, 3, 5))
        ctx = PrimeContext(p)
        b = random_form(rng.randint(1, 4), ctx, rng, height=2)
        u = random_unimodular(b.n, ctx, rng)
        assert eta(transform(b, u)) == eta(b)
        assert xi(transform(b, u)) == xi(b)


def test_parity_equivalences_even_size():
    rng = random.Random(6)
    from gkinv.padic import quad_ext

    for _ in range(40):
        b = random_form(rng.choice((2, 4)), CTX2, rng, height=2)
        cert = reduce_form(b)
        flags = {
            sum(cert.exps) % 2 == 1,
            len(cert.gk_type.fixed) == 2,
            quad_ext(signed_disc(b), CTX2).d > 0,
            xi(b) == 0,
        }
        assert len(flags) == 1  # all four agree


def test_leading_block_invariants_stable_across_bases():
    # re-coordinatizations keep the block invariants of every leading slice
    rng = random.Random(7)
    for _ in range(25):
        b = random_form(rng.randint(2, 4), CTX2, rng, height=2)
        u1 = random_unimodular(b.n, CTX2, rng)
        u2 = random_unimodular(b.n, CTX2, rng)
        r1 = reduce_form(transform(b, u1)).reduced
        r2 = reduce_form(transform(b, u2)).reduced
        exps = gk(b)
        for k in range(1, b.n):
            if exps[k - 1] < exps[k]:
                f1, f2 = leading(r1, k), leading(r2, k)
                if k % 2 == 0:
                    assert xi(f1) == xi(f2)
                else:
                    assert eta(f1) == eta(f2)
