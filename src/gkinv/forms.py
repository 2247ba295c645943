"""Half-integral symmetric matrices over Q_p and their valuation lattices.

A half-integral symmetric matrix has p-integral diagonal entries and
p-integral doubled off-diagonal entries.  Forms are immutable after
validation; every transform allocates a new value, which keeps reduction
certificates trustworthy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .linalg import Matrix
from .padic import INF, PrimeContext, quad_ext, valuation


class FormError(ValueError):
    """Raised when a matrix fails half-integrality or size checks."""


@dataclass(frozen=True)
class HalfIntegralForm:
    ctx: PrimeContext
    entries: Matrix
    det: Fraction

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def nondegenerate(self) -> bool:
        return self.det != 0


def validate_form(rows, ctx: PrimeContext) -> HalfIntegralForm:
    """Check symmetry and half-integrality; record the exact determinant."""
    m = linalg.mat(rows)
    n = len(m)
    if any(len(row) != n for row in m):
        raise FormError("matrix is not square")
    e = ctx.e  # ord(2x) = ord(x) + e
    for i in range(n):
        if valuation(m[i][i], ctx) < 0:
            raise FormError(f"diagonal entry ({i},{i}) is not p-integral")
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise FormError(f"matrix is not symmetric at ({i},{j})")
            if valuation(m[i][j], ctx) < -e:
                raise FormError(f"doubled entry ({i},{j}) is not p-integral")
    return HalfIntegralForm(ctx, m, linalg.det(m))


def transform(form: HalfIntegralForm, u: Matrix) -> HalfIntegralForm:
    """Exact congruence transform t(U) B U."""
    u = linalg.mat(u)
    if len(u) != form.n or any(len(row) != form.n for row in u):
        raise FormError("transform size mismatch")
    return validate_form(linalg.congruence(form.entries, u), form.ctx)


def leading(form: HalfIntegralForm, m: int) -> HalfIntegralForm:
    """Upper-left m x m subform."""
    if not 0 <= m <= form.n:
        raise FormError(f"leading size {m} out of range")
    idx = range(m)
    return validate_form(linalg.submatrix(form.entries, idx, idx), form.ctx)


def direct_sum(b1: HalfIntegralForm, b2: HalfIntegralForm) -> HalfIntegralForm:
    if b1.ctx != b2.ctx:
        raise FormError("direct sum across different primes")
    return validate_form(linalg.block_diag(b1.entries, b2.entries), b1.ctx)


def signed_disc(form: HalfIntegralForm) -> Fraction:
    """(-4)^floor(n/2) det B, the discriminant normalization used throughout."""
    if not form.nondegenerate:
        raise FormError("degenerate form has no discriminant")
    return Fraction(-4) ** (form.n // 2) * form.det


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


def norm_ideal_ord(form: HalfIntegralForm) -> int | float:
    """Order of the ideal of represented values; the first gk entry."""
    n = form.n
    vals = [valuation(form.entries[i][i], form.ctx) for i in range(n)]
    vals += [
        valuation(2 * form.entries[i][j], form.ctx)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return min(vals) if vals else INF


def matrix_in_lattice(
    entries: Matrix, exps, ctx: PrimeContext, strict: bool = False
) -> bool:
    """Valuation bounds ord(b_ii) >= a_i, ord(2 b_ij) >= (a_i+a_j)/2 on a raw
    symmetric matrix; exponents may be any integers.  ``strict`` makes both
    bounds strict."""
    n = len(entries)
    if len(exps) != n:
        raise FormError("exponent sequence length mismatch")
    for i in range(n):
        vi = valuation(entries[i][i], ctx)
        if (vi <= exps[i]) if strict else (vi < exps[i]):
            return False
        for j in range(i + 1, n):
            w = 2 * valuation(2 * entries[i][j], ctx)
            bound = exps[i] + exps[j]
            if (w <= bound) if strict else (w < bound):
                return False
    return True


def membership(form: HalfIntegralForm, exps, strict: bool = False) -> bool:
    """Whether the form meets the per-index valuation bounds for ``exps``."""
    return matrix_in_lattice(form.entries, tuple(exps), form.ctx, strict)


def is_unimodular(u: Matrix, ctx: PrimeContext) -> bool:
    if any(valuation(x, ctx) < 0 for row in u for x in row):
        return False
    return valuation(linalg.det(u), ctx) == 0


def in_gk_group(u: Matrix, exps, ctx: PrimeContext, variant: str = "full") -> bool:
    """Membership in the group of unimodular transforms compatible with a
    non-decreasing exponent sequence: ord(u_ij) >= (a_j - a_i)/2 wherever
    a_i < a_j.

    Variants restrict further: "upper" / "lower" force zeros below / above
    the equal-exponent blocks, and "upper_unipotent" / "lower_unipotent"
    additionally force the identity on each block.
    """
    u = linalg.mat(u)
    n = len(u)
    exps = tuple(exps)
    if len(exps) != n:
        raise FormError("exponent sequence length mismatch")
    if any(exps[i] > exps[i + 1] for i in range(n - 1)):
        raise FormError("exponent sequence must be non-decreasing")
    if not is_unimodular(u, ctx):
        return False
    for i in range(n):
        for j in range(n):
            if exps[i] < exps[j]:
                if 2 * valuation(u[i][j], ctx) < exps[j] - exps[i]:
                    return False
                if variant in ("lower", "lower_unipotent") and u[i][j] != 0:
                    return False
            elif exps[i] > exps[j]:
                if variant in ("upper", "upper_unipotent") and u[i][j] != 0:
                    return False
            else:
                if variant in ("upper_unipotent", "lower_unipotent"):
                    if u[i][j] != (1 if i == j else 0):
                        return False
    return True


def random_unimodular(
    n: int,
    ctx: PrimeContext,
    rng: random.Random,
    steps: int = 4,
    height: int = 2,
) -> Matrix:
    """Random product of swaps, unit column scalings and integral shears."""
    u = [list(row) for row in linalg.identity(n)]
    bound = ctx.p**height
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            for row in u:
                row[i], row[j] = row[j], row[i]
        elif kind == 1:
            s = rng.randint(1, bound)
            if s % ctx.p == 0:
                s += 1
            for row in u:
                row[i] *= s
        elif i != j:
            x = rng.randint(-bound, bound)
            for row in u:
                row[j] += x * row[i]
    return linalg.mat(u)


def random_form(
    n: int,
    ctx: PrimeContext,
    rng: random.Random,
    height: int = 4,
) -> HalfIntegralForm:
    """Random non-degenerate form: doubled entries uniform in [-p^h, p^h],
    diagonal kept even when p = 2, resampled until det != 0."""
    bound = ctx.p**height
    while True:
        c = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                v = rng.randint(-bound, bound)
                if i == j and ctx.p == 2 and v % 2:
                    v += rng.choice((-1, 1))
                c[i][j] = c[j][i] = v
        rows = [[Fraction(c[i][j], 2) for j in range(n)] for i in range(n)]
        form = validate_form(rows, ctx)
        if form.nondegenerate:
            return form
