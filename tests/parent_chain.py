"""The sign readers as they were when ``eta`` ran an elimination of its own,
kept verbatim as references: ``_leading_etas`` eliminates den·B itself,
lazily scaled, and reads the square class of each pivot as it goes, while
det B came from a separate ``linalg.det``.  Its step is the one it took
then, ``linalg.eliminate`` with row scales, kept as
``test_kernel.parent_eliminate``.  The library's ``eta`` and
``leading_signs`` read one pivot chain (``linalg.pivot_chain``), the form's
cached one for ``eta``; the tests compare their values with these.  The
scalars are read by the parent's readers in ``parent_padic``."""

from gkinv.forms import FormError, HalfIntegralForm
from gkinv.padic import zpow
from parent_padic import _unit_class, hilbert_symbol, xi_code
from parent_steps import bounded_pivot
from test_kernel import parent_eliminate


def _leading_etas(form: HalfIntegralForm, ends, signed):
    """(eta, piv) for the leading block of each size in ``ends``, ascending, eta None
    at an end not in ``signed``, from one field diagonalization: lazily scaled
    ``linalg.eliminate`` steps on den·B, each after ``bounded_pivot`` put a non-zero
    entry of the block that ends next on the diagonal, so pivot k is a leading
    (k+1)-minor of den·B and piv = den^end·det; a block with no such entry left is
    degenerate, and raises ``FormError("degenerate form")``.  With P_k = d_0⋯d_k =
    piv_k / den^(k+1), prod over i < j of (d_i, d_j) = prod over j >= 1 of
    (P_{j-1}, -P_j): one running product of symbols, up to the last end in
    ``signed``, gives every eta.  Each P_k below that end is read once, by
    ``parent_padic._unit_class`` on the integer piv_k·den^((k+1) mod 2) of its square
    class, into the small representative p^(v mod 2)·(u mod 8p), on which the
    symbols are taken (a symbol reads only v mod 2 and u mod 8 or mod p)."""
    size, last, den, ctx = max(ends, default=0), max(signed, default=0), form.den, form.ctx
    a = [list(row[:size]) for row in form.rows[:size]]
    base, h = [1] * size, hilbert_symbol(-1, -1, ctx) if last else 1
    p = ctx.p
    prev, prod, val = 1, 1, 1
    for start, end in zip((0, *ends), ends):
        for k in range(start, end):
            # bring the rows that the pivot step reads or mixes to one scale
            for i in range(k, k + 1 if a[k][k] else end):
                if base[i] != prev:
                    a[i][k:] = [x * prev // base[i] for x in a[i][k:]]
                    base[i] = prev
            if not bounded_pivot(a, k, bool, end):
                raise FormError("degenerate form")
            parent_eliminate(a, k, prev, base=base)
            prev = a[k][k]
            if k < last:
                v, u = _unit_class(prev * den if k % 2 == 0 else prev, p, "singular pivot")
                q = p ** (v % 2) * (u % (8 * p))
                val *= hilbert_symbol(prod, -q, ctx) if k else 1
                prod = q
        yield (val * zpow(h, (end + 1) // 4) * zpow(hilbert_symbol(-1, prod, ctx), (end - 1) // 2)
               if end in signed else None), prev


def eta(form: HalfIntegralForm) -> int:
    """Clifford invariant: the Hilbert-symbol product of ``_leading_etas``,
    whose one elimination also rejects a degenerate form."""
    return next(_leading_etas(form, (form.n,), (form.n,)))[0]


def leading_signs(form: HalfIntegralForm, ends) -> list[int]:
    """The EGK sign of each leading block in ``_leading_etas``: eta in odd size
    j, xi of (-1)^(j/2)·piv, its signed discriminant's square class, in even."""
    pairs = zip(ends, _leading_etas(form, ends, {j for j in ends if j % 2}))
    return [s if j % 2 else xi_code((-1) ** (j // 2) * piv, form.ctx) for j, (s, piv) in pairs]
