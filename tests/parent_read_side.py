"""The read-side routines as they were when each read its scalars through
``signed_disc`` or ``valuation``, kept verbatim as references: ``delta`` and
``xi`` on the Fraction (-4)^k det B, ``_leading_etas`` with each pivot's
integer passed to ``hilbert_symbol`` as it is, and ``is_reduced`` with the
order of every off-diagonal entry.  The library's routines read small
integers of each square class and test the lattice bounds by divisibility;
the tests compare their values and verdicts with these.  ``_leading_etas``
takes the step it took then, ``linalg.eliminate`` with row scales, kept as
``test_kernel.parent_eliminate``; its Hilbert symbols and quadratic
extensions are the parent's closed forms in ``parent_padic``."""

from gkinv.forms import FormError, HalfIntegralForm, signed_disc
from gkinv.involutions import GKType
from gkinv.padic import INF, _disc_ideal_ord, valuation, zpow
from parent_padic import hilbert_symbol, quad_ext, xi_code
from parent_steps import bounded_pivot
from test_kernel import parent_eliminate


def delta(form: HalfIntegralForm) -> int:
    """ord of the signed discriminant, corrected in even size by the
    discriminant ideal of its square class; equals |gk(B)|."""
    d = signed_disc(form)
    v = valuation(d, form.ctx)
    if form.n % 2 == 1:
        return int(v)
    ext = quad_ext(d, form.ctx)
    if ext.d == 0:
        return int(v)
    return int(v) - ext.d + 1


def xi(form: HalfIntegralForm) -> int:
    """Split/inert/ramified indicator of the signed discriminant.  Defined for
    all sizes; downstream block invariants only consume it in even size."""
    return xi_code(signed_disc(form), form.ctx)


def _leading_etas(form: HalfIntegralForm, ends, signed):
    """(eta, piv) for the leading block of each size in ``ends``, ascending and
    each non-degenerate, eta None at an end not in ``signed``, from one field
    diagonalization: lazily scaled ``linalg.eliminate`` steps on den·B, each
    after ``bounded_pivot`` put a non-zero entry of the block that ends next on
    the diagonal, so pivot k is a leading (k+1)-minor of den·B and
    piv = den^end·det.  With P_k = d_0⋯d_k = piv_k / den^(k+1), prod over
    i < j of (d_i, d_j) = prod over j >= 1 of (P_{j-1}, -P_j): one running
    product of symbols on the integers piv_k·den^((k+1) mod 2), of the same
    square classes, up to the last end in ``signed``, gives every eta."""
    size, last, den, ctx = max(ends, default=0), max(signed, default=0), form.den, form.ctx
    a = [list(row[:size]) for row in form.rows[:size]]
    base, h = [1] * size, hilbert_symbol(-1, -1, ctx) if last else 1
    prev, prod, val = 1, 1, 1
    for start, end in zip((0, *ends), ends):
        for k in range(start, end):
            # bring the rows that the pivot step reads or mixes to one scale
            for i in range(k, k + 1 if a[k][k] else end):
                if base[i] != prev:
                    a[i][k:] = [x * prev // base[i] for x in a[i][k:]]
                    base[i] = prev
            bounded_pivot(a, k, bool, end)
            parent_eliminate(a, k, prev, base=base)
            prev = a[k][k]
            q = prev * den if k % 2 == 0 else prev
            val *= hilbert_symbol(prod, -q, ctx) if 0 < k < last else 1
            prod = q
        yield (val * zpow(h, (end + 1) // 4) * zpow(hilbert_symbol(-1, prod, ctx), (end - 1) // 2)
               if end in signed else None), prev


def eta(form: HalfIntegralForm) -> int:
    """Clifford invariant: the Hilbert-symbol product of ``_leading_etas``."""
    if not form.nondegenerate:
        raise FormError("degenerate form")
    return next(_leading_etas(form, (form.n,), (form.n,)))[0]


def is_reduced(form: HalfIntegralForm, gk_type: GKType) -> bool:
    """Check the reduced-form conditions for the given GK type, in one pass
    over the integer rows den·R.

    An exact entry's order is its integer's order minus ord(den), and
    ord(2x) = ord(x) + e.  The lattice bounds ord(b_ii) >= a_i and
    2·ord(2 b_ij) >= a_i + a_j hold everywhere, strictly off the pairs of the
    involution, and a fixed point's diagonal has order exactly a_i.  A pair
    (i, j) must have GK invariant (a_i, a_j): its first entry is the norm
    order min(ord b_ii, ord b_jj, ord 2b_ij), and the two entries sum to
    ord(-4 det) - (delta - 1 if delta else 0), read off the integer
    discriminant D = (2 r_ij)^2 - 4 r_ii r_jj = den^2·(-4 det), with delta
    the order of the discriminant ideal of its square class."""
    exps, sigma = gk_type.exps, gk_type.sigma
    n = form.n
    if n != gk_type.n:
        raise FormError("size mismatch between form and GK type")
    ctx = form.ctx
    r = form.rows
    s = valuation(form.den, ctx)
    e = ctx.e

    def ord_of(x: int):
        return valuation(x, ctx) - s if x else INF

    for i in range(n):
        row, ai, si = r[i], exps[i], sigma[i]
        vi = ord_of(row[i])
        if vi < ai or (si == i and vi != ai):
            return False
        for j in range(i + 1, n):
            if not row[j]:
                continue
            w = 2 * (ord_of(row[j]) + e)
            if w < ai + exps[j] or (w == ai + exps[j] and j != si):
                return False
        if i < si:
            rii, rij, rjj = row[i], row[si], r[si][si]
            d = 4 * (rij * rij - rii * rjj)
            if not d:
                return False
            a1 = min(vi, ord_of(rjj), ord_of(rij) + e)
            v = valuation(d, ctx)
            delta = _disc_ideal_ord(v, d >> v, ctx.p)
            total = v - 2 * s - (delta - 1 if delta else 0)
            if (a1, total - a1) != (ai, exps[si]):
                return False
    return True
