"""Headline invariants: gk, the split/inert/ramified indicator, the Clifford
invariant, binary classification, and the extended GK datum of a form."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .egk import EGKDatum, validate_egk
from .forms import (
    FormError,
    HalfIntegralForm,
    delta,
    leading,
    membership,
    norm_ideal_ord,
    signed_disc,
    validate_form,
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


def _field_diagonal(entries) -> list[Fraction]:
    """A diagonal of the form over the field, by the fraction-free steps of
    ``linalg.eliminate`` on den·B: pivot k is den·prev·d_k, with prev the
    pivot of the step before (1 at the first)."""
    a, den = linalg._scaled(entries)
    n = len(a)
    out: list[Fraction] = []
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is None:
                i, j = next(
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if a[i][j] != 0
                )
                linalg.shear(a, j, i, 1)  # e_i += e_j exposes a nonzero diagonal
                piv = i
            if piv != k:
                linalg.swap(a, k, piv)
        out.append(Fraction(a[k][k], den * prev))
        linalg.eliminate(a, k, prev)
        prev = a[k][k]
    return out


def eta(form: HalfIntegralForm) -> int:
    """Clifford invariant, evaluated as a Hilbert-symbol product over any
    diagonalization of the form over the field."""
    if not form.nondegenerate:
        raise FormError("degenerate form")
    n = form.n
    if n == 0:
        return 1
    ctx = form.ctx
    d = _field_diagonal(form.entries)
    val = zpow(hilbert_symbol(-1, -1, ctx), (n + 1) // 4)
    val *= zpow(hilbert_symbol(-1, form.det, ctx), (n - 1) // 2)
    for i in range(n):
        for j in range(i + 1, n):
            val *= hilbert_symbol(d[i], d[j], ctx)
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
    scaled = validate_form(
        [[x / Fraction(ctx.p) ** m for x in row] for row in form.entries], ctx
    )
    d = signed_disc(scaled)
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
    ctx = form.ctx
    b = form.entries
    if a1 == a2:
        return valuation(2 * b[0][1], ctx) == a1
    if (a2 - a1) % 2 == 0:
        f = (a2 - a1) // 2
        return (
            valuation(b[0][0], ctx) == a1
            and valuation(2 * b[0][1], ctx) == a1 + f
        )
    return valuation(b[0][0], ctx) == a1 and valuation(b[1][1], ctx) == a2


def egk_of(form: HalfIntegralForm) -> EGKDatum:
    """Extended GK datum: block data of the invariant plus the per-block
    leading-subform indicators of a reduced representative."""
    if form.n == 0:
        raise FormError("the empty form has no extended GK datum")
    cert = reduce_form(form)
    r = cert.reduced
    bl = blocks(cert.exps)
    zeta = []
    for s in range(bl.r):
        k = bl.starts[s] + bl.sizes[s]
        sub = leading(r, k)
        zeta.append(xi(sub) if k % 2 == 0 else eta(sub))
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
    inv = linalg.inverse(form.entries)
    d = quad_ext(signed_disc(form), ctx).d
    base = 2 * ctx.e + 1 - d
    exps = gk_type.exps
    fixed = set(gk_type.fixed)
    for i in range(form.n):
        vii = valuation(inv[i][i], ctx)
        if i in fixed:
            if vii != base - exps[i]:
                return False
        elif vii <= base - exps[i]:
            return False
        for j in range(i + 1, form.n):
            vij = 2 * valuation(inv[i][j], ctx)
            bound = base - exps[i] - exps[j]
            if i in fixed and j in fixed:
                if vij < bound:
                    return False
            elif vij <= bound:
                return False
    return True
