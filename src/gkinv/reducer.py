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
raises ``ReductionError`` naming the prefix.  ``SEARCH_BUDGET`` caps the
passes (one per move, shears included); ``verify_certificate`` is the net.

Both reducers work on the form's integer rows and return integral U and
R = B[U] over B's denominator; ``reduce_form`` alone builds the certificate
and verifies it.  ``_split_mod_p`` diagonalizes den·B mod p and, when its
pivots show d = ord_p det B <= 1, takes U mod p, so R is not diagonal;
``jordan_split`` runs ``_exact_split`` on the other forms, and then
``_short_columns``, which takes each column of U to the precision
reducedness needs when that certificate prints shorter.  In the exact
split and the dyadic search each column of U is the exact one times
a p-unit (no order or square class that the reduced conditions read
changes).  All three run on the rows [den·B | 1] and read U off their right
half.  The dyadic search keeps the rows [Mi | t(Ui)], Mi = den·E²·M and
Ui = E·U, with den the common denominator of B and E odd, so the 2-adic order
of an exact entry is its integer's minus ord(den) and every move is chosen as
on the exact rows.  Its clear takes X = A^-1 C = Y / L in lowest terms from
``linalg.solve_int``, on the paired rows linked to the cross block C only,
and applies the integer congruence L·E_X, which multiplies E by L; an even L
is exactly a clear that leaves Z_2.  The exact Jordan split eliminates
fraction-free.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, zip_longest
from operator import mul

from . import linalg
from .forms import (
    FormError,
    HalfIntegralForm,
    _from_rows,
    _norm_gcd,
    delta,
    is_unimodular,
    norm_ideal_ord,
)
from .involutions import GKType, is_standard, standard_involution
from .linalg import Matrix
from .padic import INF, PrimeContext, Rational, _disc_ideal_ord, valuation


# the most passes of one dyadic search, one per move or collision shear
SEARCH_BUDGET = 100_000


class ReductionError(RuntimeError):
    """No reduction found (internal failure; inputs were validated)."""


class BudgetExhausted(ReductionError):
    """The search budget ran out before a certificate was found."""


@dataclass(frozen=True, init=False)
class ReductionCertificate:
    """Unimodular U with R = B[U] reduced of the stated standard GK type.

    U = y·diag(c)^-1 is kept as integer rows y over column scales c, each
    column in lowest terms: c_j > 0 is the least common denominator of column
    j.  ``u``, U as a matrix of Fractions, is built on first read.  The
    constructor takes U of any shape (the verifier rejects a wrong one),
    reading each entry once, as ``Fraction()`` reads it: an int, a Fraction
    or a string, say; U may carry p-unit denominators;
    ``reduce_form`` builds certificates of integral U with ``_of_rows``."""

    y: tuple[tuple[int, ...], ...]
    c: tuple[int, ...]
    reduced: HalfIntegralForm
    gk_type: GKType

    def __init__(self, u, reduced: HalfIntegralForm, gk_type: GKType):
        y, d = linalg._scaled(u)
        self._set(y, (d,) * max(map(len, y), default=0), reduced, gk_type)

    @classmethod
    def _of_rows(cls, y, c, reduced, gk_type) -> ReductionCertificate:
        """U = y·diag(c)^-1 for integer rows y and non-zero column scales c."""
        cert = cls.__new__(cls)
        cert._set(y, c, reduced, gk_type)
        return cert

    def _set(self, y, c, reduced, gk_type) -> None:
        """Store U = y·diag(c)^-1 with each column brought to lowest terms."""
        y, g = _lowest_columns(y, c)
        values = (tuple(map(tuple, y)), tuple(cj // gj for cj, gj in zip(c, g)), reduced, gk_type)
        for name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, name, value)

    @cached_property
    def u(self) -> Matrix:
        c, zero = self.c, linalg._ZERO
        return tuple(tuple(Fraction(x, d) if x else zero for x, d in zip(row, c)) for row in self.y)

    @property
    def exps(self) -> tuple[int, ...]:
        return self.gk_type.exps


def _lowest_columns(y, c):
    """(y / g, g) with g_j = gcd(c_j, column j of the integer rows y), of c_j's
    sign: c_j / g_j > 0 is the least denominator of column j of y·diag(c)^-1."""
    if c.count(1) == len(c):
        return y, c
    # zip_longest, not zip: a ragged U keeps its shape for the verifier
    cols = zip_longest(*y, fillvalue=0)
    g = [math.gcd(cj, *col) * (1 if cj > 0 else -1) for cj, col in zip(c, cols)]
    return (y if g.count(1) == len(g) else [[x // gj for x, gj in zip(row, g)] for row in y]), g


def binary_gk(form: HalfIntegralForm) -> tuple[int, int]:
    """GK invariant of a non-degenerate binary form: the first entry is the
    norm order, the second is forced by the discriminant identity."""
    if form.n != 2 or not form.nondegenerate:
        raise FormError("binary_gk needs a non-degenerate 2x2 form")
    a1 = norm_ideal_ord(form)
    return (int(a1), delta(form) - int(a1))


def is_reduced(form: HalfIntegralForm, gk_type: GKType) -> bool:
    """Check the reduced-form conditions for the given GK type, in one pass
    over the integer rows den·R.

    An exact entry's order is its integer's order minus s = ord(den), and
    ord(2x) = ord(x) + e.  The lattice bounds ord(b_ii) >= a_i and
    2·ord(2 b_ij) >= t = a_i + a_j hold everywhere, strictly off the pairs of
    the involution, and a fixed point's diagonal has order exactly a_i.  Each
    off-diagonal bound is one divisibility test, p^(need + s) | r_ij, with
    need = ceil(t/2) - e on a pair and floor(t/2) + 1 - e off it, which holds
    outright when need + s <= 0; orders are read only on the diagonal and
    in the pairs' invariants.  A pair
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
    e, p = ctx.e, ctx.p

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
            k = (ai + exps[j] + (1 if j == si else 2)) // 2 - e + s
            if k > 0 and row[j] % p**k:
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


def dyadic_pair_conditions(form: HalfIntegralForm, gk_type: GKType) -> bool:
    """Dyadic shortcut for the pair condition: the doubled cross entry of each
    pair attains the half-sum exactly, and lowered diagonals are exact."""
    ctx, r, exps = form.ctx, form.rows, gk_type.exps
    if ctx.p != 2:
        raise FormError("the shortcut is specific to p = 2")
    s = valuation(form.den, ctx)  # an exact order is its integer's minus s
    for i, j in enumerate(gk_type.sigma):
        if j == i:
            continue
        if 2 * (valuation(r[i][j], ctx) - s + 1) != exps[i] + exps[j]:
            return False
        if exps[i] < exps[j] and valuation(r[i][i], ctx) - s != exps[i]:
            return False
    return True


def complete_square(
    b11: Rational,
    b12: Rational,
    b22: Rational,
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


def _clear_matrix(m: linalg.Rows, exps, sigma) -> int | None:
    """Zero the cross rows of the reduced prefix against the tail, skipping
    fixed-point rows, on the integer rows [M | t(U)].  With X = A^-1 C = Y / L
    in lowest terms (``linalg.solve_int``, on the rows of A that a non-zero
    entry of C reaches through A's non-zero entries), apply the integer
    congruence L·E_X, where E_X takes X times the paired prefix columns off
    each tail column, to m in place: scale the tail coordinates by L, shear by
    -Y, scale the prefix coordinates by L.  Returns L, which is odd; returns
    None, with m untouched, when L is even, that is when X leaves Z_2 (such a
    prefix cannot extend)."""
    k, n = len(exps), len(m)
    paired = [i for i in range(k) if sigma[i] != i]
    tail = range(k, n)
    linked = [i for i in paired if any(m[i][k:n])]
    if not linked:  # nothing to clear
        return 1
    # close the rows with a non-zero cross entry over A's non-zero entries:
    # A is block diagonal between them and the other paired rows, where C is
    # zero, so X is zero there too and the solve needs only the closure
    closed = set(linked)
    while linked:
        row = m[linked.pop()]
        for j in paired:
            if row[j] and j not in closed:
                closed.add(j)
                linked.append(j)
    rows = [i for i in paired if i in closed]
    y, l = linalg.solve_int(linalg.submatrix(m, rows, rows), linalg.submatrix(m, rows, tail))
    if l % 2 == 0:
        return None
    if l != 1:
        linalg.scale(m, tail, l)
    # in (prefix, tail) blocks diag(1, L)·[[1, -Y], [0, 1]]·diag(L, 1) = L·E_X;
    # the shears run from prefix to tail coordinates, so they commute
    for i, row in zip(rows, y):
        for j, v in zip(tail, row):
            if v:
                linalg.shear(m, i, j, -v)
    if l != 1:
        linalg.scale(m, range(k), l)
    return l


def _candidates(m, s, exps, sigma, ctx: PrimeContext):
    """Every admissible move (c, kind, x, y) from the reduced prefix of the
    form m / (2^s·odd): kind 0 pairs fixed point x with tail coordinate y, 1
    splits the tail pair (x, y), 2 admits the fixed point x, 3 shears tail
    diagonal y against the fixed point x whose exponent it collides with in
    parity.  Orders are read on the integers, doubled off the diagonal: the
    tail's least order c_tail is that of the gcd of its diagonal and doubled
    entries minus s (INF for a zero tail), and an entry attains it iff
    2^(c_tail + s + 1) does not divide it."""
    k, n = len(exps), len(m)
    amin = exps[-1] if exps else 0
    fixed = [i for i in range(k) if sigma[i] == i]
    tail = range(k, n)
    moves = []
    for h in fixed:
        for j in tail:
            x = m[h][j]
            if not x:
                continue
            c = 2 * (valuation(x, ctx) - s + 1) - exps[h]
            # the tail diagonal must not undercut c: ord(b_jj) >= c
            if amin <= c and m[j][j] % 2 ** (c + s) == 0:
                moves.append((c, 0, h, j))
    c_tail = valuation(_norm_gcd(m, k), ctx) - s
    if amin <= c_tail < INF:
        q = 2 ** (c_tail + s + 1)
        collision = next((h for h in fixed if (exps[h] - c_tail) % 2 == 0), None)
        for i in tail:
            if m[i][i] % q:
                if collision is None:
                    moves.append((c_tail, 2, i, i))
                else:
                    moves.append((c_tail, 3, collision, i))
            for j in range(i + 1, n):
                if 2 * m[i][j] % q:
                    moves.append((c_tail, 1, i, j))
    return moves


def _dyadic_search(form: HalfIntegralForm):
    """(M, U, exps, sigma) with B[U] = M / den reduced, den the denominator of
    B, for integer rows M and U: clear the prefix, then take the smallest
    move, until the prefix is everything, in at most ``SEARCH_BUDGET`` passes.

    The rows start as [den·B | 1] and every step is an integer congruence, so
    they stay [M | t(U)], M = den·e²·B[U / e] with e the product of the
    clearing scales L, all odd.  The order of an exact entry is then its
    integer's order minus s = ord(den), and each move is chosen as it would
    be on the exact rows.  At the end column k of U is divided by
    gcd(e, column k), and M to match.

    The involution comes out standard.  Each move is the least (c, kind, x, y),
    so at each exponent c the search appends the raised kind-0 coordinate
    first, then kind-1 equal pairs side by side, then the kind-2 fixed point.
    After that fixed point no move at c is left: a kind-0 or kind-1 move at c
    would have been taken first, and a later diagonal of its parity is sheared
    past c.  The verifier's ``is_standard`` rejects any other layout.  det B is
    read first: on a degenerate form, such as [[1, 1], [1, 1]], the collision shears
    chase the radical, every entry growing each pass, until ``SEARCH_BUDGET`` runs out."""
    if not form.nondegenerate:
        raise FormError("degenerate form")
    ctx, n = form.ctx, form.n
    m = [list(row) + ei for row, ei in zip(form.rows, linalg.identity(n))]
    s = valuation(form.den, ctx)
    e, budget = 1, SEARCH_BUDGET
    exps, sigma = (), ()

    def at():  # where the search stopped, built only for a failure
        return f"at prefix exps={list(exps)} sigma={list(sigma)}"

    while len(exps) < n:
        if budget <= 0:
            raise BudgetExhausted("reduction budget exhausted")
        budget -= 1
        l = _clear_matrix(m, exps, sigma)
        if l is None:
            raise ReductionError(f"clearing transform is not integral {at()}")
        e *= l
        moves = _candidates(m, s, exps, sigma, ctx)
        if not moves:
            raise ReductionError(f"no admissible move {at()}")
        c, kind, x, y = min(moves)
        k = len(exps)
        if kind == 3:  # parity collision: shear the tail diagonal away
            # on the integers each order is the exact one plus s: raise both
            try:
                sh = complete_square(m[x][x], m[x][y], m[y][y], exps[x] + s, c + s, ctx)
            except (FormError, ReductionError) as ex:
                what = f"collision shear of {y} against {x} to exponent {c}"
                raise ReductionError(f"{what} failed {at()}: {ex}") from ex
            linalg.shear(m, x, y, sh)
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
        # a split pair has x < y, so moving x to k leaves y where it was
        for t, i in enumerate(chosen):
            linalg.move(m, i, k + t)
    u = [list(col) for col in zip(*(row[n:] for row in m))]
    m = [row[:n] for row in m]
    if e != 1:
        u, g = _lowest_columns(u, (e,) * n)
        m = [[x // (gi * gj) for x, gj in zip(row, g)] for row, gi in zip(m, g)]
    return m, u, exps, sigma


def jordan_split(form: HalfIntegralForm):
    """Non-dyadic reduction, reading no det B: ``_split_mod_p`` if it takes
    the form, else ``_exact_split`` and then ``_short_columns``, which keeps
    U at the precision reducedness needs when that prints shorter.  Returns
    (R, U, exps, sigma), B[U] = R / den."""
    if form.ctx.p == 2:
        raise FormError("Jordan splitting requires p odd")
    return _split_mod_p(form) or _short_columns(form, *_exact_split(form))


def _exact_split(form: HalfIntegralForm):
    """Diagonalize with unimodular congruences, taking a pivot of least order
    each time, and attach a standard involution.

    The steps run fraction-free (``linalg.eliminate``) on the integer rows
    [den·B | 1], whose right half is t(U), so the tail at step k is the exact
    tail times den·prev_k, with prev_k the pivot of step k - 1 (1 at k = 0),
    and row k of the right half, read off as column k of U, is the exact
    column times prev_k.  Both den and the pivots' scale are the same for
    every tail entry, and den is prime to p, so the pivot orders compare as
    they would on the exact rows.  Step k reads the tail's least order v_k off
    ``forms._norm_gcd`` (down to its bound v_(k-1) + exps[k - 1]; the doubled
    entries have the same order at odd p), and ``linalg.pivot`` brings an
    entry that p^(v_k + 1) does not divide to the diagonal at k: the first
    such tail diagonal entry, else the one a shear exposes (a zero tail means
    det B = 0).  The pivot becomes prev_(k+1), so exps[k] = v_k - v_(k-1).  Column k of U, prev_k
    times the exact one, is divided by g_k = gcd(prev_k, column k), and
    D_kk = m[k][k]·(prev_k / g_k) / g_k is an integer, as D = t(U)·(den·B)·U.
    Returns (D, U, exps, sigma) with B[U] = D / den, as ``_dyadic_search`` does."""
    ctx, n = form.ctx, form.n
    m = [list(row) + e for row, e in zip(form.rows, linalg.identity(n))]
    prev, prevs, exps, last = 1, [], (), 0
    for k in range(n):
        g = _norm_gcd(m, k, ctx.p ** (last + exps[-1] + 1) if k else ctx.p)
        if not g:
            raise FormError("degenerate form")
        v = valuation(g, ctx)
        q = ctx.p ** (v + 1)
        linalg.pivot(m, k, lambda x: x % q)
        prevs.append(prev)
        exps += (v - last,)
        linalg.eliminate(m, k, prev)
        prev, last = m[k][k], v
    # each pivot has the least order in its tail and elimination keeps the
    # tail at or above it, so the exponents are already non-decreasing
    u, g = _lowest_columns([list(col) for col in zip(*(row[n:] for row in m))], prevs)
    d = [m[k][k] * (pk // gk) // gk for k, (pk, gk) in enumerate(zip(prevs, g))]
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return diag, u, exps, standard_involution(exps)


def _digits_at_least(bits: int) -> int:
    """A lower bound on the decimal digits of an int of ``bits`` bits (0 has
    one): floor((bits - 1)·log10 2) + 1, with log10 2 > 0.30102."""
    return max(bits - 1, 0) * 30102 // 100_000 + 1


def _digits_at_most(bits: int) -> int:
    """An upper bound on the same: floor(bits·log10 2) + 1, with log10 2 < 0.30103."""
    return bits * 30103 // 100_000 + 1


def _short_columns(form: HalfIntegralForm, d, u, exps, sigma):
    """The exact split (D, U, exps, sigma) with column i of U taken to its
    balanced residue mod p^(N_i), N_i = floor((a_i - a_1)/2) + 1, and
    R = t(U)·(den·B)·U formed again, when bit lengths prove that this
    certificate prints shorter; else the exact split as it is.

    With den·B = t(V)·D·V, V = U*^-1 over Z_p for the exact U*, and
    U = U* + E, p^(N_j) dividing column j of E, R - D is D·V·E + t(V·E)·D +
    t(V·E)·D·V·E, whose (i, j) entry has order at least min(a_i + N_j,
    N_i + a_j, N_i + N_j + a_1) > (a_i + a_j)/2.  So r_ii = d_ii mod
    p^(a_i + 1), and ord r_ij > (a_i + a_j)/2 off the diagonal: R is reduced
    of the same type, each pair with its discriminant's order and unit class
    mod p, and U = U* mod p is unimodular.

    The two certificates share their layout, so their numbers' lengths decide:
    the new one is kept when an upper bound on its numbers' digits falls below
    a lower bound on the exact one's, each read off bit lengths.  An exact
    number x prints at least floor((bits(x) - 1)·log10 2) + 1 digits and its
    sign (a diagonal entry over den with at least bits(x) - bits(den) bits in
    lowest terms), and the n² - n zeros of D one digit each.  A new entry of
    column i of U prints at most a sign and the digits of (q_i - 1)/2,
    q_i = p^(N_i); a new r_ij, of absolute value at most
    |u_i|_1·max|den·B|·|u_j|_1 with |u_i|_1 <= n·(q_i - 1)/2, prints at most a
    sign, the digits of that bound's bit length and "/den".  Only a
    certificate that keeps its new R forms one."""
    p, n, den = form.ctx.p, form.n, form.den
    db = den.bit_length() if den > 1 else 0  # bits of den, as printed after a "/"
    r_den = 1 + _digits_at_most(db) if db else 0
    bm = max(map(abs, chain.from_iterable(form.rows))).bit_length()
    diag = [d[i][i] for i in range(n)]
    # first, on the total bits alone: the exact numbers at most 0.30102·bits
    # digits, a sign and one more each, against at least one character per
    # entry of the new U and the least bound on each new r_ij (q_i >= 3)
    bits = sum(map(int.bit_length, chain(diag, chain.from_iterable(u))))
    if 30102 * bits // 100_000 + n * (2 * n + 1) <= n * n * (1 + _digits_at_most(bm + 2 * n.bit_length()) + r_den):
        return d, u, exps, sigma
    q = [p ** ((a - exps[0]) // 2 + 1) for a in exps]
    new = n * sum(1 + _digits_at_most((qi // 2).bit_length()) for qi in q)
    norms = Counter((n * (qi // 2)).bit_length() for qi in q).items()
    new += sum((1 + _digits_at_most(bm + bi + bj) + r_den) * ci * cj for bi, ci in norms for bj, cj in norms)
    exact = n * n - n + sum((x < 0) + _digits_at_least(max(x.bit_length() - db, 0)) for x in diag)
    cells = list(chain.from_iterable(u))
    exact += sum(map((0).__gt__, cells)) + sum(map(_digits_at_least, map(int.bit_length, cells)))
    if new >= exact:
        return d, u, exps, sigma
    short = [[(x + qi // 2) % qi - qi // 2 for x, qi in zip(row, q)] for row in u]
    return linalg.congruence(form.rows, short), short, exps, sigma


def _split_mod_p(form: HalfIntegralForm):
    """The split over F_p of a form with d = ord_p det B <= 1, whose exponents
    are (0, ..., 0) and then d ones; None for any other form.  On the rows
    [den·B | 1] mod p, while the tail holds a unit, step r pivots one by
    ``linalg.pivot`` and clears the tail mod p from column r + 1 on.  U, in
    balanced residues, makes den·R = t(U)·(den·B)·U unit on the first r
    diagonal entries, 0 mod p on the rest and off the diagonal; r = n means
    d = 0.  At r = n - 1 every term of det(den·R) but the diagonal product
    has two off-diagonal factors, so d = 1 exactly when p² does not divide
    the last entry t, read by one product on U's last column before R is
    formed.  R is reduced, with sigma standard."""
    p, n = form.ctx.p, form.n
    m = [[x % p for x in row] + e for row, e in zip(form.rows, linalg.identity(n))]
    r = 0
    while r < n and linalg.pivot(m, r, lambda x: x % p):
        rk, w = m[r][r + 1 :], pow(m[r][r], -1, p)
        for ri in m[r + 1 :]:
            if c := ri[r] * w % p:
                ri[r + 1 :] = [(x - c * y) % p for x, y in zip(ri[r + 1 :], rk)]
        r += 1
    if r < n - 1:
        return None
    u = [[(x + p // 2) % p - p // 2 for x in col] for col in zip(*(row[n:] for row in m))]
    if r < n:
        last = [row[-1] for row in u]
        if sum(map(mul, last, (sum(map(mul, row, last)) for row in form.rows))) % (p * p) == 0:
            return None
    exps = (0,) * r + (1,) * (n - r)
    return linalg.congruence(form.rows, u), u, exps, standard_involution(exps)


# the instance-dict key under which a form keeps its verified certificate,
# as ``cached_property`` keeps ``entries``: not a field, so it is not part of
# ==, hash or repr, and no constructor or public name can set it
_CERT = "_reduction"


def reduce_form(form: HalfIntegralForm) -> ReductionCertificate:
    """Produce a verified reduction certificate for a non-degenerate form,
    from the rows of a reducer: the one place where one is built and checked.

    The form keeps the certificate once ``verify_certificate`` has accepted
    it, and a later call on the same object returns it.  So ``gk``,
    ``egk_of`` and ``classify_binary`` after ``reduce_form`` pay for one
    search and one verification.  A call that raises keeps no certificate,
    and an equal form built apart runs its own search.  Each reducer rejects
    a degenerate form itself.

    At odd p the certificate's U is in balanced residues mod p when
    d = ord_p det B <= 1 (``_split_mod_p``).  When d >= 2 it is the exact
    split's, columns in lowest terms, or those columns mod p^(N_i), N_i =
    floor((a_i - a_1)/2) + 1, whichever bit lengths prove prints shorter
    (``_short_columns``); then R is dense, and diagonal up to higher orders."""
    cert = vars(form).get(_CERT)
    if cert is not None:
        return cert
    m, u, exps, sigma = jordan_split(form) if form.ctx.p != 2 else _dyadic_search(form)
    r = _from_rows(m, form.den, form.ctx)
    cert = ReductionCertificate._of_rows(u, (1,) * form.n, r, GKType._of(exps, sigma))
    ok, reason = verify_certificate(form, cert)
    if not ok:
        raise ReductionError(f"certificate rejected: {reason}")
    vars(form)[_CERT] = cert
    return cert


def verify_certificate(
    form: HalfIntegralForm, cert: ReductionCertificate
) -> tuple[bool, str]:
    """Independent check of a reduction certificate, on the integer rows y
    and column scales c of U and the integer rows of B and R; it runs no
    search code.  Never raises on bad certificates; returns (False, reason)."""
    exps, y, c = cert.gk_type.exps, cert.y, cert.c
    sizes = {len(exps), cert.reduced.n, len(y), len(c), *map(len, y)}
    if sizes != {form.n}:
        return False, "size mismatch"
    if cert.reduced.ctx != form.ctx:
        return False, "prime mismatch"
    if any(exps[i] > exps[i + 1] for i in range(len(exps) - 1)):
        return False, "exponents not non-decreasing"
    if any(a < 0 for a in exps):
        return False, "negative exponent"
    # each column of U = y·diag(c)^-1 is in lowest terms, so U is p-integral
    # iff p divides no c_j, and then det y = det U·prod(c) is a unit iff det U is
    if any(cj % form.ctx.p == 0 for cj in c) or not is_unimodular(y, form.ctx):
        return False, "transform is not unimodular"
    # t(U) B U = R as t(y)·(den·B)·y = den·diag(c)·R·diag(c), on integer rows;
    # both sides are symmetric once B and R are, so entries i <= j suffice:
    # row i of t(y)·(den·B) dotted with column j of y
    ri, dr = cert.reduced.rows, cert.reduced.den
    if any(tuple(map(tuple, m)) != tuple(zip(*m)) for m in (form.rows, ri)):
        return False, "matrix is not symmetric"
    yt = linalg.transpose(y)
    n, den = form.n, form.den
    for i, (ybi, rrow, ci) in enumerate(zip(linalg.matmul(yt, form.rows), ri, c)):
        k = den * ci
        for j in range(i, n):
            if sum(map(mul, ybi, yt[j])) * dr != k * rrow[j] * c[j]:
                return False, "transform does not map the source to the claimed matrix"
    if not is_standard(exps, cert.gk_type.sigma):
        return False, "involution is not standard"
    if not is_reduced(cert.reduced, cert.gk_type):
        return False, "matrix is not reduced for the claimed type"
    return True, "ok"
