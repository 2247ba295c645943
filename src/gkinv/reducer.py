"""Certified reduction of half-integral symmetric matrices.

A reduced form realizes its GK invariant on the nose: the exponent
sequence can be read off the matrix, pair by pair.  ``reduce_form`` turns
an arbitrary non-degenerate form into an equivalent reduced one and
returns the transform as a certificate; ``verify_certificate`` re-checks
every claim independently, so the search heuristics can never produce a
silently wrong answer.

The dyadic search keeps a reduced leading block and grows it greedily: it
clears the block's paired rows against the tail, then takes the move with
the smallest new exponent (ties in the order listed) among

* pair a fixed point of the prefix with a tail coordinate whose doubled
  cross entry attains the exact half-sum valuation;
* split a scaled primitive-unramified pair off the tail (a doubled tail
  entry attains the tail's minimal valuation);
* admit a new fixed point (a tail diagonal attains it), after shearing
  away any diagonal whose exponent collides in parity with an existing
  fixed point.

This is the constructive order of the reduction argument, so there is no
backtracking: a failed clear, a prefix with no move or a failed shear
raises ``ReductionError`` naming the prefix.  ``budget`` caps the loop's
passes (one per move, shears included); ``verify_certificate`` is the net.

Both reducers work on integer rows and build the certificate's Fractions
once, at the end.  The dyadic search keeps Mi = den·E²·M and Ui = E·U, with
den the common denominator of B and E an odd integer, so the 2-adic order
of an exact entry is the order of its integer minus ord(den) and every move
is chosen as it would be on the exact rows.  Its clear takes X = A^-1 C as
Y / L in lowest terms from ``linalg.solve_int`` and applies the integer
congruence L·E_X, which multiplies E by L; an even L is exactly a clear that
leaves Z_2.  The Jordan split eliminates fraction-free on den·B.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .forms import (
    FormError,
    HalfIntegralForm,
    delta,
    is_unimodular,
    norm_ideal_ord,
    validate_form,
)
from .involutions import GKType, is_standard, standard_involutions
from .linalg import Matrix
from .padic import INF, PrimeContext, valuation


class ReductionError(RuntimeError):
    """No reduction found (internal failure; inputs were validated)."""


class BudgetExhausted(ReductionError):
    """The search budget ran out before a certificate was found."""


@dataclass(frozen=True)
class ReductionCertificate:
    """Unimodular U with R = B[U] reduced of the stated standard GK type."""

    u: Matrix
    reduced: HalfIntegralForm
    gk_type: GKType

    @property
    def exps(self) -> tuple[int, ...]:
        return self.gk_type.exps


def binary_gk(form: HalfIntegralForm) -> tuple[int, int]:
    """GK invariant of a non-degenerate binary form: the first entry is the
    norm order, the second is forced by the discriminant identity."""
    if form.n != 2 or not form.nondegenerate:
        raise FormError("binary_gk needs a non-degenerate 2x2 form")
    a1 = norm_ideal_ord(form)
    return (int(a1), delta(form) - int(a1))


def _disc_ideal_ord(d: int, v: int, p: int) -> int:
    """The order of the discriminant ideal of Q_p(sqrt(d)), for an integer
    d != 0 of order v: at odd p the parity of v; at p = 2, 3 for an odd v,
    else 0 or 2 as the unit part d / 2^v is 1 or 3 mod 4."""
    if p != 2:
        return v % 2
    if v % 2:
        return 3
    return 0 if (d >> v) % 4 == 1 else 2


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
    r, den = linalg._scaled(form.entries)
    s = valuation(den, ctx)
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
            delta = _disc_ideal_ord(d, v, ctx.p)
            total = v - 2 * s - (delta - 1 if delta else 0)
            if (a1, total - a1) != (ai, exps[si]):
                return False
    return True


def dyadic_pair_conditions(form: HalfIntegralForm, gk_type: GKType) -> bool:
    """Dyadic shortcut for the pair condition: the doubled cross entry of each
    pair attains the half-sum exactly, and lowered diagonals are exact."""
    if form.ctx.p != 2:
        raise FormError("the shortcut is specific to p = 2")
    b, exps, sigma = form.entries, gk_type.exps, gk_type.sigma
    for i in range(form.n):
        j = sigma[i]
        if j == i:
            continue
        if 2 * (valuation(b[i][j], form.ctx) + 1) != exps[i] + exps[j]:
            return False
        if exps[i] < exps[j] and valuation(b[i][i], form.ctx) != exps[i]:
            return False
    return True


def complete_square(
    b11: Fraction | int,
    b12: Fraction | int,
    b22: Fraction | int,
    a1: int,
    a2: int,
    ctx: PrimeContext,
) -> int:
    """Dyadic square completion: x with ord(x) >= (a2-a1)/2 and
    ord(b22 + 2 b12 x + b11 x^2) > a2.

    Requires ord(b11) = a1, ord(b22) = a2, ord(2 b12) > (a1+a2)/2 and an even
    non-negative gap.  Then x = 2^(gap/2) works: b11 x^2 and b22 both have
    order exactly a2 with odd unit parts, so their sum has order above a2,
    and 2 b12 x has order above a2 as well.
    """
    if ctx.p != 2:
        raise FormError("complete_square is specific to p = 2")
    b11, b12, b22 = Fraction(b11), Fraction(b12), Fraction(b22)
    gap = a2 - a1
    if gap < 0 or gap % 2:
        raise FormError("exponent gap must be even and non-negative")
    if valuation(b11, ctx) != a1 or valuation(b22, ctx) != a2:
        raise FormError("diagonal orders must be exact")
    if 2 * (valuation(b12, ctx) + 1) <= a1 + a2:
        raise FormError("doubled cross entry must exceed the half-sum")
    x = 2 ** (gap // 2)
    if valuation(b22 + 2 * b12 * x + b11 * x * x, ctx) <= a2:
        raise ReductionError("square completion failed")
    return x


def _clear_matrix(m: linalg.Rows, u: linalg.Rows, exps, sigma) -> int | None:
    """Zero the cross rows of the reduced prefix against the tail, skipping
    fixed-point rows, on integer rows.  With X = A^-1 C = Y / L in lowest
    terms (``linalg.solve_int``), apply the integer congruence L·E_X, where
    E_X takes X times the paired prefix columns off each tail column, to m
    and u in place: scale the tail coordinates by L, shear by -Y, scale the
    prefix coordinates by L.  Returns L, which is odd; returns None, with
    both untouched, when L is even, that is when X leaves Z_2 (such a prefix
    cannot extend)."""
    k = len(exps)
    paired = [i for i in range(k) if sigma[i] != i]
    tail = range(k, len(m))
    if not paired or not tail:
        return 1
    y, l = linalg.solve_int(
        linalg.submatrix(m, paired, paired), linalg.submatrix(m, paired, tail)
    )
    if l % 2 == 0:
        return None
    if l != 1:
        linalg.scale(m, tail, l, u)
    # in (prefix, tail) blocks diag(1, L)·[[1, -Y], [0, 1]]·diag(L, 1) = L·E_X;
    # the shears run from prefix to tail coordinates, so they commute
    for i, row in zip(paired, y):
        for j, v in zip(tail, row):
            if v:
                linalg.shear(m, i, j, -v, u)
    if l != 1:
        linalg.scale(m, range(k), l, u)
    return l


def _fractions(m, d: int) -> Matrix:
    """The matrix m / d, for integer rows m."""
    if d == 1:
        return linalg.mat(m)
    return linalg.mat([Fraction(x, d) if x else 0 for x in row] for row in m)


def clear_rows(
    form: HalfIntegralForm, gk_type: GKType
) -> tuple[Matrix, HalfIntegralForm]:
    """Public row clearing against a reduced leading block."""
    m = gk_type.n
    lead = validate_form(
        linalg.submatrix(form.entries, range(m), range(m)), form.ctx
    )
    if not lead.nondegenerate:
        raise FormError("leading block is degenerate")
    if not is_reduced(lead, gk_type):
        raise FormError("leading block is not reduced for the given type")
    cleared, den = linalg._scaled(form.entries)
    u = [[int(i == j) for j in range(form.n)] for i in range(form.n)]
    l = _clear_matrix(cleared, u, gk_type.exps, gk_type.sigma)
    if l is None:
        raise ReductionError("clearing transform is not integral")
    reduced = validate_form(_fractions(cleared, den * l * l), form.ctx)
    return _fractions(u, l), reduced


def _ordb(m, ctx: PrimeContext, s: int, i: int, j: int):
    """The 2-adic order of the exact entry (i, j), doubled off the diagonal,
    for integer rows m that are the exact ones times 2^s·(odd)."""
    x = m[i][j]
    if not x:
        return INF
    v = valuation(x, ctx) - s
    return v if i == j else v + 1


def _candidates(m, s, exps, sigma, det_cap, ctx: PrimeContext):
    """Every admissible move (c, kind, x, y) from the reduced prefix of the
    form m / (2^s·odd): kind 0 pairs fixed point x with tail coordinate y, 1
    splits the tail pair (x, y), 2 admits the fixed point x, 3 shears tail
    diagonal y against the fixed point x whose exponent it collides with in
    parity."""
    k, n = len(exps), len(m)
    amin = exps[-1] if exps else 0
    cap = (det_cap - sum(exps)) // (n - k)
    fixed = [i for i in range(k) if sigma[i] == i]
    tail = range(k, n)
    moves = []
    for h in fixed:
        for j in tail:
            v = _ordb(m, ctx, s, h, j)
            if v is INF:
                continue
            c = 2 * v - exps[h]
            if c < amin or c > cap:
                continue
            if _ordb(m, ctx, s, j, j) < c:
                continue
            moves.append((c, 0, h, j))
    tail_ords = {(i, j): _ordb(m, ctx, s, i, j) for i in tail for j in tail if i <= j}
    finite = [v for v in tail_ords.values() if v is not INF]
    if finite:
        c_tail = min(finite)
        if amin <= c_tail <= cap:
            collision = next((h for h in fixed if (exps[h] - c_tail) % 2 == 0), None)
            for (i, j), v in tail_ords.items():
                if v != c_tail:
                    continue
                if i < j:
                    moves.append((c_tail, 1, i, j))
                elif collision is None:
                    moves.append((c_tail, 2, i, i))
                else:
                    moves.append((c_tail, 3, collision, i))
    return moves


def _dyadic_search(form: HalfIntegralForm, budget: int):
    """(M, U, exps, sigma, d, e) with B[U / e] = M / d reduced, for integer
    working rows M and U: clear the prefix, then take the smallest move,
    until the prefix is everything.  Each pass spends one step of the budget.

    The rows start as den·B and 1, with den the common denominator of B,
    and every step is an integer congruence, so M = den·e²·B[U / e] with e
    the product of the clearing scales L, all odd.  The order of an exact
    entry is then its integer's order minus s = ord(den), and each move is
    chosen as it would be on the exact rows."""
    ctx, n = form.ctx, form.n
    # ord det(2B), from the determinant validation already computed
    det_cap = int(valuation(Fraction(2) ** n * form.det, ctx))
    m, den = linalg._scaled(form.entries)
    s = valuation(den, ctx)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    e = 1
    exps, sigma = (), ()
    while len(exps) < n:
        if budget <= 0:
            raise BudgetExhausted("reduction budget exhausted")
        budget -= 1
        at = f"at prefix exps={list(exps)} sigma={list(sigma)}"
        l = _clear_matrix(m, u, exps, sigma)
        if l is None:
            raise ReductionError(f"clearing transform is not integral {at}")
        e *= l
        moves = _candidates(m, s, exps, sigma, det_cap, ctx)
        if not moves:
            raise ReductionError(f"no admissible move {at}")
        c, kind, x, y = min(moves)
        k = len(exps)
        if kind == 3:  # parity collision: shear the tail diagonal away
            d = den * e * e
            b11, b12, b22 = (Fraction(m[i][j], d) for i, j in ((x, x), (x, y), (y, y)))
            try:
                sh = complete_square(b11, b12, b22, exps[x], c, ctx)
            except (FormError, ReductionError) as ex:
                what = f"collision shear of {y} against {x} to exponent {c}"
                raise ReductionError(f"{what} failed {at}: {ex}") from ex
            linalg.shear(m, x, y, sh, u)
            continue
        if kind == 0:  # pair the prefix fixed point x with tail coordinate y
            chosen = (y,)
            sigma = tuple(k if i == x else sigma[i] for i in range(k)) + (x,)
            exps += (c,)
        elif kind == 1:  # split a scaled primitive-unramified pair (x, y)
            chosen = (x, y)
            sigma += (k + 1, k)
            exps += (c, c)
        else:  # kind == 2, admit a new fixed point at x
            chosen = (x,)
            sigma += (k,)
            exps += (c,)
        rest = tuple(i for i in range(k, n) if i not in chosen)
        linalg.permute(m, tuple(range(k)) + chosen + rest, u)
    return m, u, exps, sigma, den * e * e, e


def _standardize(m, u, exps, sigma):
    """Permute the working rows m, u within equal-exponent blocks so the
    involution is standard; returns the new involution."""
    from .involutions import blocks

    bl = blocks(exps)
    target: list[int] = []
    for s in range(bl.r):
        idx = list(bl.indices(s))
        plus = [i for i in idx if sigma[i] != i and exps[sigma[i]] < exps[i]]
        dang = [i for i in idx if sigma[i] == i or exps[sigma[i]] > exps[i]]
        pairs = []
        for i in idx:
            j = sigma[i]
            if j != i and exps[j] == exps[i] and i < j:
                pairs.extend((i, j))
        target.extend(plus + pairs + dang)
    perm = tuple(target)
    inv = [0] * len(perm)
    for newpos, old in enumerate(perm):
        inv[old] = newpos
    linalg.permute(m, perm, u)
    return tuple(inv[sigma[perm[i]]] for i in range(len(perm)))


def jordan_split(form: HalfIntegralForm) -> ReductionCertificate:
    """Non-dyadic reduction: diagonalize with unimodular congruences, taking
    a pivot of least order each time, and attach a standard involution.

    The steps run fraction-free on the integer rows den·B (``linalg.eliminate``),
    so the tail at step k is the exact tail times den·prev_k, with prev_k the
    pivot of step k - 1 (1 at k = 0), and column k of U is the exact column
    times prev_k.  Both den and the pivots' scale are the same for every tail
    entry, and den is prime to p, so the pivot orders compare as they would
    on the exact rows; the Fractions are built once, at the end."""
    if form.ctx.p == 2:
        raise FormError("Jordan splitting requires p odd")
    if not form.nondegenerate:
        raise FormError("degenerate form")
    ctx = form.ctx
    n = form.n
    m, den = linalg._scaled(form.entries)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    prev, prevs = 1, []
    for k in range(n):
        idx = range(k, n)
        # ord(2x) = ord(x) at odd p, so _ordb is the plain valuation here
        ords = {(i, j): valuation(m[i][j], ctx) for i in idx for j in range(i, n)}
        v, i, j = min((v, i, j) for (i, j), v in ords.items())
        if i != j and all(ords[t, t] > v for t in idx):
            # expose a minimal-order diagonal entry: the sum vector works
            linalg.shear(m, j, i, 1, u)
            ords[i, i] = valuation(m[i][i], ctx)
        piv = min(idx, key=lambda t: ords[t, t])
        perm = tuple(range(k)) + (piv,) + tuple(t for t in idx if t != piv)
        linalg.permute(m, perm, u)
        prevs.append(prev)
        linalg.eliminate(m, k, prev, u)
        prev = m[k][k]
    # each pivot has the least order in its tail and elimination keeps the
    # tail at or above it, so the diagonal orders are already non-decreasing
    diag = [Fraction(m[k][k], den * pk) for k, pk in enumerate(prevs)]
    exps = tuple(int(valuation(d, ctx)) for d in diag)
    sigma = standard_involutions(exps)[0]
    reduced = [[d if i == j else 0 for j in range(n)] for i, d in enumerate(diag)]
    cert = ReductionCertificate(
        linalg.mat([[Fraction(x, pk) for x, pk in zip(row, prevs)] for row in u]),
        validate_form(reduced, ctx),
        GKType(exps, sigma),
    )
    ok, reason = verify_certificate(form, cert)
    if not ok:
        raise ReductionError(f"Jordan certificate rejected: {reason}")
    return cert


def reduce_form(form: HalfIntegralForm, budget: int = 100_000) -> ReductionCertificate:
    """Produce a verified reduction certificate for a non-degenerate form."""
    if not form.nondegenerate:
        raise FormError("degenerate form")
    if form.n == 0:
        return ReductionCertificate(
            (), validate_form((), form.ctx), GKType((), ())
        )
    if form.ctx.p != 2:
        return jordan_split(form)
    m, u, exps, sigma, d, e = _dyadic_search(form, budget)
    sigma = _standardize(m, u, exps, sigma)
    cert = ReductionCertificate(
        _fractions(u, e), validate_form(_fractions(m, d), form.ctx), GKType(exps, sigma)
    )
    ok, reason = verify_certificate(form, cert)
    if not ok:
        raise ReductionError(f"certificate rejected: {reason}")
    return cert


def verify_certificate(
    form: HalfIntegralForm, cert: ReductionCertificate
) -> tuple[bool, str]:
    """Independent check of a reduction certificate.  Never raises on bad
    certificates; returns (False, reason)."""
    exps = cert.gk_type.exps
    sizes = {len(exps), cert.reduced.n, len(cert.u), *map(len, cert.u)}
    if sizes != {form.n}:
        return False, "size mismatch"
    if any(exps[i] > exps[i + 1] for i in range(len(exps) - 1)):
        return False, "exponents not non-decreasing"
    if any(a < 0 for a in exps):
        return False, "negative exponent"
    if not is_unimodular(cert.u, form.ctx):
        return False, "transform is not unimodular"
    # t(U) B U = R, cross-multiplied on the integer rows db·B, du·U and dr·R
    bi, db = linalg._scaled(form.entries)
    ui, du = linalg._scaled(cert.u)
    ri, dr = linalg._scaled(cert.reduced.entries)
    t = linalg.matmul(linalg.transpose(ui), linalg.matmul(bi, ui))
    k = db * du * du
    if any(
        [x * dr for x in row] != [y * k for y in rrow] for row, rrow in zip(t, ri)
    ):
        return False, "transform does not map the source to the claimed matrix"
    if not is_standard(exps, cert.gk_type.sigma):
        return False, "involution is not standard"
    if not is_reduced(cert.reduced, cert.gk_type):
        return False, "matrix is not reduced for the claimed type"
    return True, "ok"
