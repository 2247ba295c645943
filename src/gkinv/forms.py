"""Half-integral symmetric matrices over Q_p and their valuation lattices.

A half-integral symmetric matrix has p-integral diagonal entries and
p-integral doubled off-diagonal entries.  Forms are immutable after
validation; every transform allocates a new value, which keeps reduction
certificates trustworthy.

A form keeps the integer rows den·B over the least common denominator den
(as FLINT's ``fmpq_mat_get_fmpz_mat_matwise`` does), and builds ``entries``,
B in Fractions, on first read; ``_from_rows`` is its one constructor.  It
also keeps, on first read, ``pivots``, the pivot chain of one elimination
of den·B: det B is its last pivot over den^n, and ``invariants.eta`` reads
the square classes of its pivots, so the two take one elimination.  Every
routine here reads integer rows; only the entry points ``validate_form``,
``transform`` and ``in_gk_group`` read a Fraction matrix, scaling it once.  In
the same instance dict, outside the fields and so outside ==, hash and repr,
``reducer.reduce_form`` keeps the certificate it has verified for the form,
so ``gk`` and ``egk_of`` after ``reduce_form`` on the same object do not
search again.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg
from .linalg import Matrix
from .padic import PrimeContext, quad_ext, valuation


class FormError(ValueError):
    """Raised when a matrix fails half-integrality or size checks."""


@dataclass(frozen=True)
class HalfIntegralForm:
    """B = rows / den, den > 0 the least common denominator of B's entries;
    the pivot chain of den·B, and det B off it, are computed on first read.
    Built by ``validate_form``/``_from_rows``."""

    ctx: PrimeContext
    rows: tuple[tuple[int, ...], ...]
    den: int

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def nondegenerate(self) -> bool:
        return self.det != 0

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivots of one elimination of den·B, ``linalg.pivot_chain`` over
        the whole form: pivot k is a leading (k + 1)-minor of a matrix
        congruent to den·B by determinant ±1.  Fewer than n iff B is degenerate."""
        return tuple(linalg.pivot_chain(self.rows, (self.n,)))

    @cached_property
    def det(self) -> Fraction:
        """The last pivot over den^n: 0 when the chain stops short, 1 at n = 0."""
        piv = self.pivots
        if len(piv) < self.n:
            return Fraction(0)
        return Fraction(piv[-1] if piv else 1, self.den**self.n)

    @cached_property
    def entries(self) -> Matrix:
        return linalg.over(self.rows, self.den)


def _from_rows(ri, den: int, ctx: PrimeContext) -> HalfIntegralForm:
    """The form ri / den, for integer rows ri and den > 0, checked on the
    integers.  Only a row that fails a whole-row check is scanned, so errors
    come in the order (i, i), then (i, j) for j > i, row by row."""
    n = len(ri)
    if any(len(row) != n for row in ri):
        raise FormError("matrix is not square")
    ri, den = linalg.lowest(ri, den)
    ri = tuple(map(tuple, ri))
    s = valuation(den, ctx)
    q = ctx.p**s  # x / den is p-integral iff q | x
    q2 = ctx.p ** max(s - ctx.e, 0)  # 2x / den is p-integral iff q2 | x
    for i, (row, col) in enumerate(zip(ri, zip(*ri))):
        if row[i] % q:
            raise FormError(f"diagonal entry ({i},{i}) is not p-integral")
        if row[i + 1 :] != col[i + 1 :] or (q2 != 1 and any(x % q2 for x in row[i + 1 :])):
            for j in range(i + 1, n):
                if row[j] != col[j]:
                    raise FormError(f"matrix is not symmetric at ({i},{j})")
                if row[j] % q2:
                    raise FormError(f"doubled entry ({i},{j}) is not p-integral")
    return HalfIntegralForm(ctx, ri, den)


def validate_form(rows, ctx: PrimeContext) -> HalfIntegralForm:
    """Check symmetry and half-integrality; record the pivot chain of den·B
    and the exact determinant, its last pivot over den^n."""
    form = _from_rows(*linalg._scaled(linalg.mat(rows)), ctx)
    form.det
    return form


def transform(form: HalfIntegralForm, u: Matrix) -> HalfIntegralForm:
    """Exact congruence transform t(U) B U."""
    ui, du = linalg._scaled(linalg.mat(u))
    if len(ui) != form.n or any(len(row) != form.n for row in ui):
        raise FormError("transform size mismatch")
    return _from_rows(linalg.congruence(form.rows, ui), form.den * du * du, form.ctx)


def leading(form: HalfIntegralForm, m: int) -> HalfIntegralForm:
    """Upper-left m x m subform."""
    if not 0 <= m <= form.n:
        raise FormError(f"leading size {m} out of range")
    return _from_rows([row[:m] for row in form.rows[:m]], form.den, form.ctx)


def direct_sum(b1: HalfIntegralForm, b2: HalfIntegralForm) -> HalfIntegralForm:
    if b1.ctx != b2.ctx:
        raise FormError("direct sum across different primes")
    d1, d2 = b1.den, b2.den
    rows = [[d2 * x for x in row] + [0] * b2.n for row in b1.rows]
    rows += [[0] * b1.n + [d1 * x for x in row] for row in b2.rows]
    return _from_rows(rows, d1 * d2, b1.ctx)


def signed_disc(form: HalfIntegralForm) -> Fraction:
    """(-4)^floor(n/2) det B, the discriminant normalization used throughout."""
    if not form.nondegenerate:
        raise FormError("degenerate form has no discriminant")
    return Fraction(-4) ** (form.n // 2) * form.det


def _disc_class(form: HalfIntegralForm) -> int:
    """An integer of the square class of the signed discriminant
    (-4)^k det B, k = n // 2: (-1)^k·a·b for det B = a / b in lowest terms,
    as 4^k and b² are squares.  No Fraction is built."""
    if not form.nondegenerate:
        raise FormError("degenerate form has no discriminant")
    x = form.det.numerator * form.det.denominator
    return -x if form.n // 2 % 2 else x


def delta(form: HalfIntegralForm) -> int:
    """ord of the signed discriminant, corrected in even size by the
    discriminant ideal of its square class; equals |gk(B)|.  The order is
    ord det B + 2k·e, and the class is read off ``_disc_class``."""
    x, ctx = _disc_class(form), form.ctx
    v = valuation(form.det, ctx) + 2 * (form.n // 2) * ctx.e
    if form.n % 2 == 1:
        return v
    d = quad_ext(x, ctx).d
    return v - d + 1 if d else v


def norm_ideal_ord(form: HalfIntegralForm) -> int | float:
    """Order of the ideal of represented values; the first gk entry: the least
    order of the b_ii and the 2 b_ij, read off their gcd (INF if all are 0)."""
    return valuation(_norm_gcd(form.rows), form.ctx) - valuation(form.den, form.ctx)


def _norm_gcd(rows, k: int = 0, q: int = 1) -> int:
    """gcd of the diagonal and doubled entries of the n integer rows from
    coordinate k on, or of those it has read when q = p^(b + 1), b a lower
    bound on their least order, stops dividing it: its order is that order.
    Columns past n (the Jordan split's t(U)) are not read."""
    g, n = 0, len(rows)
    for i in range(k, n):
        g = math.gcd(g, rows[i][i], 2 * math.gcd(*rows[i][i + 1 : n]))
        if g % q:
            break
    return g


def matrix_in_lattice(rows, den: int, exps, ctx: PrimeContext, strict: bool = False) -> bool:
    """Valuation bounds ord(b_ii) >= a_i, ord(2 b_ij) >= (a_i+a_j)/2 on B = rows/den,
    for integer rows and den > 0, an order being its integer's minus ord(den);
    exponents may be any integers.  ``strict`` makes both bounds strict."""
    n = len(rows)
    if len(exps) != n:
        raise FormError("exponent sequence length mismatch")
    s, e = valuation(den, ctx), ctx.e  # ord(2x) = ord(x) + e
    for i in range(n):
        vi = valuation(rows[i][i], ctx) - s
        if (vi <= exps[i]) if strict else (vi < exps[i]):
            return False
        for j in range(i + 1, n):
            w = 2 * (valuation(rows[i][j], ctx) - s + e)
            bound = exps[i] + exps[j]
            if (w <= bound) if strict else (w < bound):
                return False
    return True


def membership(form: HalfIntegralForm, exps, strict: bool = False) -> bool:
    """Whether the form meets the per-index valuation bounds for ``exps``."""
    return matrix_in_lattice(form.rows, form.den, tuple(exps), form.ctx, strict)


def is_unimodular(u, ctx: PrimeContext) -> bool:
    """U in GL_n(Z_p), for integer rows U (False unless square): det U is a
    unit, decided by ``linalg.det`` on the entries reduced mod p, exactly, as
    det(U mod p) = det U mod p."""
    p = ctx.p
    if any(len(row) != len(u) for row in u):
        return False
    return linalg.det([[x % p for x in row] for row in u]) % p != 0


def in_gk_group(u: Matrix, exps, ctx: PrimeContext) -> bool:
    """Membership in the group of unimodular transforms compatible with a
    non-decreasing exponent sequence: ord(u_ij) >= (a_j - a_i)/2 wherever
    a_i < a_j.  Read on d·U, d the least common denominator: False if p | d,
    and otherwise d is a unit, so d·U has U's orders and det class."""
    ui, d = linalg._scaled(linalg.mat(u))
    n, exps = len(ui), tuple(exps)
    if len(exps) != n:
        raise FormError("exponent sequence length mismatch")
    if any(len(row) != n for row in ui):
        raise FormError("transform size mismatch")
    if any(exps[i] > exps[i + 1] for i in range(n - 1)):
        raise FormError("exponent sequence must be non-decreasing")
    if d % ctx.p == 0 or not is_unimodular(ui, ctx):
        return False
    return all(
        2 * valuation(ui[i][j], ctx) >= exps[j] - exps[i]
        for i in range(n)
        for j in range(n)
        if exps[i] < exps[j]
    )


def random_unimodular(
    n: int,
    ctx: PrimeContext,
    rng: random.Random,
    steps: int = 4,
    height: int = 2,
) -> list[list[int]]:
    """Random product of swaps, unit column scalings and integral shears."""
    u = linalg.identity(n)
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
    return u


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
        form = _from_rows(c, 2, ctx)
        if form.nondegenerate:
            return form
