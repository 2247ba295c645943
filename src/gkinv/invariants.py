"""Headline invariants: gk, the split/inert/ramified indicator, the Clifford
invariant, binary classification, and the extended GK datum of a form."""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt

from . import linalg
from .forms import (
    FormError,
    HalfIntegralForm,
    _disc_class,
    delta,
    membership,
    norm_ideal_ord,
    signed_disc,
)
from .involutions import GKType, blocks
from .padic import (
    QuadExtKind,
    _class_bits,
    _hilbert_form,
    _int_valuation,
    quad_ext,
    valuation,
    xi_code,
)
from .reducer import ReductionError, is_reduced, reduce_form


def gk(form: HalfIntegralForm) -> tuple[int, ...]:
    """The GK invariant, through a verified reduction certificate.  The sum
    identity against ``delta`` is asserted on every call."""
    cert = reduce_form(form)
    if sum(cert.exps) != delta(form):
        raise ReductionError(
            f"certificate mass {sum(cert.exps)} contradicts delta {delta(form)}"
        )
    return cert.exps


def xi(form: HalfIntegralForm) -> int:
    """Split/inert/ramified indicator of the signed discriminant, read off
    ``forms._disc_class``, an integer of its square class.  Defined for all
    sizes; downstream block invariants only consume it in even size."""
    return xi_code(_disc_class(form), form.ctx)


def block_sign(form: HalfIntegralForm) -> int:
    """The EGK sign of a leading block: xi in even size, eta in odd size."""
    return xi(form) if form.n % 2 == 0 else eta(form)


def _leading_etas(form: HalfIntegralForm, ends, signed, pivots):
    """(eta, piv) for the leading block of each size in ``ends``, ascending, eta None
    at an end not in ``signed``, read off ``pivots``, the ``linalg.pivot_chain`` of
    den·B over those ends: pivot k is a leading (k+1)-minor of den·B after
    congruences of determinant ±1, so piv = den^end·det; a chain that stops short
    of an end is degenerate: ``FormError("degenerate form")``.  Only each
    pivot's square class is read, so at odd p ``_diagonal_classes`` may stand in
    for the chain: the running products of a diagonal, each p^(v mod 2)·(u mod p).
    With P_k = d_0⋯d_k = piv_k / den^(k+1), prod over i < j of (d_i, d_j) = prod
    over j >= 1 of (P_{j-1}, -P_j): one running product of symbols, up to the last
    end in ``signed``, gives every eta.  Each P_k below that end is read once, by
    ``padic._class_bits`` on the integer piv_k·den^((k+1) mod 2) of its square
    class, into its coordinates over F_2; every symbol, (P_{j-1}, -P_j) and the
    closing (-1, -1) and (-1, P), is then the bilinear form on two such
    coordinates, one lookup in ``padic._hilbert_form``'s table (the class of
    -P_j is that of P_j plus that of -1)."""
    last, den, p = max(signed, default=0), form.den, form.ctx.p
    table, minus = _hilbert_form(p)
    chain = iter(pivots)
    # cls: the class of P_k, from that of P_{-1} = 1; odd: the running product's exponent
    prev, cls, odd = 1, 0, 0
    for start, end in zip((0, *ends), ends):
        for k in range(start, end):
            prev = next(chain, 0)
            if not prev:
                raise FormError("degenerate form")
            if k < last:
                nxt = _class_bits(prev * den if k % 2 == 0 else prev, p)
                odd ^= table[cls][nxt ^ minus]
                cls = nxt
        if end in signed:
            # times (-1, -1)^((end+1)/4) and (-1, P_{end-1})^((end-1)/2): a symbol's
            # exponent is 0 or 1, so & takes the parity of the power
            odd_end = odd ^ table[minus][minus] & (end + 1) // 4
            odd_end ^= table[minus][cls] & (end - 1) // 2
            yield 1 - 2 * odd_end, prev
        else:
            yield None, prev


def eta(form: HalfIntegralForm) -> int:
    """Clifford invariant: the Hilbert-symbol product of ``_leading_etas`` on the
    form's cached pivot chain, the elimination that det B is read off too; it
    eliminates nothing of its own, and a chain that stops short is degenerate."""
    n = form.n
    return next(_leading_etas(form, (n,), (n,), form.pivots))[0]


def _diagonal_classes(rows, size: int, p: int) -> list[int] | None:
    """At odd p, the running products of the diagonal of the leading block of
    ``size`` of the integer rows den·R, each read into p^(v mod 2)·(u mod p)
    as it comes, when that block is diagonal up to higher orders: ord r_ii =
    v_i, v non-decreasing, and ord r_ij > (v_i + v_j)/2 for i < j, each
    tested as p^(floor((v_i + v_j)/2) + 1) | r_ij.  None when it is not.

    One elimination step on r_00 changes r_jj by r_0j²/r_00, of order above
    v_j, and r_ij by r_0i·r_0j/r_00, of order above (v_i + v_j)/2, so the
    condition holds again on the rest.  So den·R is congruent over Z_p to a
    diagonal whose entry i has order v_i and unit r_ii/p^(v_i) mod p, and a
    leading minor of den·R lies in the square class of the product of those
    entries (Serre, ch. IV; Cassels, ch. 8), where a pivot of
    ``linalg.pivot_chain`` lies too."""
    diag = [rows[i][i] for i in range(size)]
    if not all(diag):
        return None
    v = [_int_valuation(x, p) for x in diag]
    if any(map(gt, v, v[1:])):
        return None
    powers = [p**k for k in range(v[-1] + 2)] if v else []
    for i, vi in enumerate(v):
        if any(x % powers[(vi + vj) // 2 + 1] for x, vj in zip(rows[i][i + 1 : size], v[i + 1 :])):
            return None
    out, odd, unit = [], 0, 1
    for x, vi in zip(diag, v):
        odd ^= vi & 1
        unit = unit * (x // p**vi) % p
        out.append(p * unit if odd else unit)
    return out


def leading_signs(form: HalfIntegralForm, ends) -> list[int]:
    """The EGK sign of each leading block in ``_leading_etas``: eta in odd size
    j, xi of (-1)^(j/2)·piv, its signed discriminant's square class, in even.
    At odd p the pivots are ``_diagonal_classes`` of den·R when its block up
    to the last end is diagonal up to higher orders, as the odd-p reducers
    leave every R; otherwise, and at p = 2, a pivot chain of its own bounded by
    ``ends``."""
    p = form.ctx.p
    pivots = _diagonal_classes(form.rows, ends[-1] if ends else 0, p) if p != 2 else None
    if pivots is None:
        pivots = linalg.pivot_chain(form.rows, ends)
    pairs = zip(ends, _leading_etas(form, ends, {j for j in ends if j % 2}, pivots))
    return [s if j % 2 else xi_code((-1) ** (j // 2) * piv, form.ctx) for j, (s, piv) in pairs]


@dataclass(frozen=True)
class BinaryClass:
    """Arithmetic class of a binary form: scaling order, extension shape of the
    signed discriminant, conductor, and decomposability."""

    scale: int
    ext: QuadExtKind
    conductor: int
    decomposable: bool

    @property
    def predicted_gk(self) -> tuple[int, int]:
        bump = 1 if self.ext.kind == "ramified" else 0
        return (self.scale, self.scale + 2 * self.conductor + bump)


def classify_binary(form: HalfIntegralForm, check: bool = True) -> BinaryClass:
    """Classify a binary form by its signed discriminant; the predicted gk is
    cross-checked against the reducer unless ``check`` is disabled."""
    if form.n != 2 or not form.nondegenerate:
        raise FormError("classification needs a non-degenerate binary form")
    ctx = form.ctx
    m = int(norm_ideal_ord(form))
    d = signed_disc(form) / ctx.p ** (2 * m)  # the discriminant of B / p^m
    ext = quad_ext(d, ctx)
    vd = int(valuation(d, ctx))
    if (vd - ext.d) % 2:
        raise ReductionError("conductor is not an integer")
    cls = BinaryClass(m, ext, (vd - ext.d) // 2, vd >= 2 * ctx.e)
    if check and gk(form) != cls.predicted_gk:
        raise ReductionError("binary classification contradicts the reducer")
    return cls


def is_optimal_binary(form: HalfIntegralForm, exps) -> bool:
    """Dyadic case criterion for a binary form realizing its exponent pair."""
    if form.ctx.p != 2:
        raise FormError("the case criterion is specific to p = 2")
    a1, a2 = exps
    if a1 > a2 or form.n != 2 or not membership(form, (a1, a2)):
        raise FormError("form must meet the valuation bounds for (a1, a2)")
    ctx, s = form.ctx, valuation(form.den, form.ctx)
    # the orders of B's entries, each its integer's order in den·B minus s
    (v11, v12), (_, v22) = ([valuation(x, ctx) - s for x in row] for row in form.rows)
    ord2b = v12 + ctx.e  # ord(2 b_12)
    if a1 == a2:
        return ord2b == a1
    if (a2 - a1) % 2 == 0:
        return v11 == a1 and ord2b == (a1 + a2) // 2
    return v11 == a1 and v22 == a2


def egk_of(form: HalfIntegralForm) -> EGKDatum:
    """Extended GK datum: block data of the invariant plus the sign of each leading
    block of a reduced representative R, R itself included, from one elimination."""
    # deferred: egk imports this module at its top, for eta and xi
    from .egk import EGKDatum, validate_egk

    if form.n == 0:
        raise FormError("the empty form has no extended GK datum")
    cert = reduce_form(form)
    bl = blocks(cert.exps)
    ends = [start + size for start, size in zip(bl.starts, bl.sizes)]
    datum = EGKDatum(bl.sizes, bl.values, tuple(leading_signs(cert.reduced, ends)))
    ok, bad = validate_egk(datum)
    if not ok:
        raise ReductionError("computed datum fails the axioms: " + "; ".join(bad))
    return datum


def check_inverse_bounds(form: HalfIntegralForm, gk_type: GKType) -> bool:
    """Exact-inverse valuation bounds for an even-size dyadic reduced form of
    odd exponent mass, clause by clause."""
    ctx = form.ctx
    if ctx.p != 2:
        raise FormError("inverse bounds are dyadic")
    if form.n % 2 or gk_type.total % 2 == 0:
        raise FormError("needs even size and odd exponent mass")
    if not is_reduced(form, gk_type):
        raise FormError("form is not reduced for the given type")
    # B^-1 = den·Y / L, so an entry's order is ord Y_ij + shift
    y, l = linalg.inverse(form.rows)
    shift = valuation(form.den, ctx) - valuation(l, ctx)
    d = quad_ext(_disc_class(form), ctx).d
    base = 2 * ctx.e + 1 - d
    exps = gk_type.exps
    fixed = set(gk_type.fixed)
    for i in range(form.n):
        vii = valuation(y[i][i], ctx) + shift
        if i in fixed:
            if vii != base - exps[i]:
                return False
        elif vii <= base - exps[i]:
            return False
        for j in range(i + 1, form.n):
            vij = 2 * (valuation(y[i][j], ctx) + shift)
            bound = base - exps[i] - exps[j]
            if i in fixed and j in fixed:
                if vij < bound:
                    return False
            elif vij <= bound:
                return False
    return True
