"""Headline invariants: gk, the split/inert/ramified indicator, the Clifford
invariant, binary classification, and the extended GK datum of a form."""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .forms import (
    FormError,
    HalfIntegralForm,
    delta,
    leading,
    membership,
    norm_ideal_ord,
    signed_disc,
)
from .involutions import GKType, blocks
from .padic import QuadExtKind, hilbert_symbol, quad_ext, valuation, xi_code, zpow
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
    """Split/inert/ramified indicator of the signed discriminant.  Defined for
    all sizes; downstream block invariants only consume it in even size."""
    if form.n == 0:
        return 1
    return xi_code(signed_disc(form), form.ctx)


def block_sign(form: HalfIntegralForm) -> int:
    """The EGK sign of a leading block: xi in even size, eta in odd size."""
    return xi(form) if form.n % 2 == 0 else eta(form)


def _field_pivots(form: HalfIntegralForm) -> tuple[list[int], int]:
    """(pivots, den) of a diagonalization of the form over the field, by the
    fraction-free steps of ``linalg.eliminate`` on den·B, each after
    ``linalg.pivot`` has brought a non-zero entry to the diagonal: pivot k is
    the leading (k+1)-minor of den·B after those moves and shears, so the
    diagonal entries are d_k = piv_k / (den·piv_{k-1}), with piv_{-1} = 1."""
    a, den = [list(row) for row in form.rows], form.den
    pivots: list[int] = []
    prev = 1
    for k in range(len(a)):
        linalg.pivot(a, k, bool)
        linalg.eliminate(a, k, prev)
        prev = a[k][k]
        pivots.append(prev)
    return pivots, den


def eta(form: HalfIntegralForm) -> int:
    """Clifford invariant, evaluated as a Hilbert-symbol product over a
    diagonalization d_0, ..., d_{n-1} of the form over the field.

    With P_k = d_0⋯d_k, bimultiplicativity and (x, -x) = 1 give
    prod over i < j of (d_i, d_j) = prod over j >= 1 of (P_{j-1}, -P_j), so
    n - 1 symbols replace n(n-1)/2.  P_k = piv_k / den^(k+1) for the
    fraction-free pivots, and the symbols read only square classes, so they
    take the integers piv_k·den^((k+1) mod 2)."""
    if not form.nondegenerate:
        raise FormError("degenerate form")
    n = form.n
    if n == 0:
        return 1
    ctx = form.ctx
    pivots, den = _field_pivots(form)
    prods = [piv * den if k % 2 == 0 else piv for k, piv in enumerate(pivots)]
    val = zpow(hilbert_symbol(-1, -1, ctx), (n + 1) // 4)
    val *= zpow(hilbert_symbol(-1, form.det, ctx), (n - 1) // 2)
    for j in range(1, n):
        val *= hilbert_symbol(prods[j - 1], -prods[j], ctx)
    return val


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
    """Extended GK datum: block data of the invariant plus the per-block
    leading-subform indicators of a reduced representative."""
    # deferred: egk imports this module at its top, for eta and xi
    from .egk import EGKDatum, validate_egk

    if form.n == 0:
        raise FormError("the empty form has no extended GK datum")
    cert = reduce_form(form)
    r = cert.reduced
    bl = blocks(cert.exps)
    zeta = []
    for s in range(bl.r):
        zeta.append(block_sign(leading(r, bl.starts[s] + bl.sizes[s])))
    datum = EGKDatum(bl.sizes, bl.values, tuple(zeta))
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
    d = quad_ext(signed_disc(form), ctx).d
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
