"""Exact linear algebra on integer rows for small matrices.

A form keeps its matrix as integer rows over one least common denominator, and
a certificate its U over a least scale per column; every routine below the
public API reads those integer rows.  ``_scaled`` reads a matrix at its four
entry points, each entry once, straight into integer rows over the least
common denominator: an entry may be an int, a Fraction or anything that
``Fraction()`` reads, a string included, with the same value and errors, and
no Fraction matrix is built.  ``mat`` reads the same entries into a matrix of
Fractions for the benchmark and the tests, ``over`` builds one for
``form.entries``, and ``lowest`` brings integer rows over a denominator to
lowest terms.

There is one dense routine per job, and each takes and returns integer rows:
``congruence`` is t(U) B U, ``det`` is fraction-free (Bareiss) elimination,
which the verifier runs on U mod p, and ``inverse`` is the one solve,
``solve_int``, against the identity.
``solve_int`` is fraction-free Gauss-Jordan elimination and returns A^-1 B
as Y / L in lowest terms.  ``congruence``, ``det`` and ``matmul`` share no
code with the kernel's steps or each other, which is what lets the verifier
check the reducers, and R from ``congruence``, with ``matmul``.

The in-place elimination kernel at the end is what both reducers run on:
each step applies a congruence M <- t(E) M E to mutable rows without building
E, and no step takes a U.  The reducers run them on the rows [den·B | 1]: a
step's column update reads only the first n columns, and its row update takes
the right half t(U) to t(E)·t(U) = t(U E).  ``move`` (the one coordinate move),
``shear`` and ``scale`` work on rows of any exact numbers; ``pivot`` is the
pivot step of the exact and F_p Jordan splits, which differ only in the
entries it accepts; ``eliminate`` is fraction-free.
``pivot_chain`` is the field diagonalization, by ``pivot``'s rule: it gives
the pivots that a form's det B and its eta are read off, and the signs of a
reduced form's blocks at p = 2 (at odd p ``invariants.leading_signs`` reads
them off R's diagonal when R allows).
Every entry stays an integer, with a known scale: through ``pivot`` and
``eliminate`` in the exact split, through ``pivot_chain``'s lazily scaled
steps in the field diagonalization, and through ``solve_int``, integer
shears and scalings, and ``move`` in the dyadic search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul, ne

Matrix = tuple[tuple[Fraction, ...], ...]
Rows = list[list]

# Every zero entry of a built matrix is this one instance: certificates are
# mostly zeros, and a caller may keep many of them.
_ZERO = Fraction(0)


def _read(x):
    """One entry as ``Fraction(x)`` reads it, with the same errors, kept an
    int or a Fraction: a string is read by ``int()`` first and falls back to
    ``Fraction(x)``.  A string with an underscore always falls back, as
    ``Fraction()`` accepts one only from Python 3.11 on."""
    if type(x) is int or type(x) is Fraction:
        return x
    if type(x) is str and "_" not in x:
        try:
            return int(x)
        except ValueError:
            pass
    return Fraction(x)


def mat(rows) -> Matrix:
    """The rows as a matrix of Fractions, each entry read by ``_read``."""
    return tuple(
        tuple((x if type(x) is Fraction else Fraction(x)) if x else _ZERO for x in map(_read, row))
        for row in rows
    )


def identity(n: int) -> list[list[int]]:
    """The n x n identity as integer rows, new each call."""
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _scaled(m) -> tuple[list[list[int]], int]:
    """(d·M as integer rows, d) for the least common denominator d of M's
    entries, each read once by ``_read``: no Fraction matrix is built."""
    m = [[_read(x).as_integer_ratio() for x in row] for row in m]
    d = math.lcm(*{b for row in m for _, b in row})
    if d == 1:
        return [[a for a, _ in row] for row in m], 1
    return [[a * (d // b) for a, b in row] for row in m], d


def congruence(b, u):
    """t(U) B U for integer rows U and symmetric B, entry (i, j) = t(u_i)·B u_j
    for columns u_i, u_j of U, formed for i <= j only and written to (i, j)
    and (j, i) at once."""
    if any(map(ne, map(tuple, b), zip(*b))):
        raise ValueError("congruence needs a symmetric B")
    ut = tuple(zip(*u))
    w = [[sum(map(mul, row, col)) for row in b] for col in ut]
    n = len(ut)
    r = [[0] * n for _ in range(n)]
    for i, ui in enumerate(ut):
        ri = r[i]
        for j in range(i, n):
            ri[j] = r[j][i] = sum(map(mul, ui, w[j]))
    return tuple(map(tuple, r))


def over(m, d: int) -> Matrix:
    """The matrix m / d, for integer rows m and d > 0."""
    return tuple(tuple(Fraction(x, d) if x else _ZERO for x in row) for row in m)


def lowest(m, d: int) -> tuple[list[list[int]], int]:
    """(m / g, d / g) for integer rows m and d > 0, with g the gcd of d and
    every entry of m, so that d becomes the least common denominator of m / d."""
    g = d
    for row in m:
        if g == 1:
            break
        g = math.gcd(g, *row)
    return (m, d) if g == 1 else ([[x // g for x in row] for row in m], d // g)


def det(a) -> int:
    """det A for a square integer matrix A, by fraction-free (Bareiss)
    elimination on a copy of its rows.

    Step k maps a lower row r to (p·r - c·y) / prev, with p and y the pivot
    and the pivot row, c = r[k] and prev the previous pivot.  Every entry it
    gives is a minor of A, so the division is exact.  A row with c = 0 would
    only be scaled by p / prev, so it is left as it is and base[i] keeps the
    pivot of the step that last changed it: its Bareiss value is
    r·prev / base[i], and its next real step divides by base[i].  The pivot
    row is brought to scale prev only if a row below needs it, so triangular
    and diagonal matrices cost no elimination at all."""
    a = [list(row) for row in a]
    n = len(a)
    base = [1] * n
    sign, prev = 1, 1
    for k in range(n):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            base[k], base[piv] = base[piv], base[k]
            sign = -sign
        rk, bk = a[k], base[k]
        p, tail = rk[k] * prev // bk, None
        for i in range(k + 1, n):
            ri = a[i]
            c = ri[k]
            if c:
                if tail is None:
                    tail = rk[k + 1 :] if bk == prev else [x * prev // bk for x in rk[k + 1 :]]
                ri[k + 1 :] = [(x * p - c * y) // base[i] for x, y in zip(ri[k + 1 :], tail)]
                base[i] = p
        prev = p
    return sign * prev


def solve_int(a, b) -> tuple[list[list[int]], int]:
    """(Y, L) with A^-1 B = Y / L in lowest terms and L > 0, for integer
    matrices A (invertible) and B: fraction-free Gauss-Jordan elimination
    (Nakos, Turner and Williams) on [A | B].

    Step k maps every row r other than the pivot row s to (p·r - c·s) / prev,
    with p = s[k], c = r[k] and prev the previous pivot.  After step k each
    entry is a minor of [A | B] with its rows permuted by the swaps (Bareiss
    below the pivot rows, Cramer's rule for the leading block on and above
    them), so every division is exact, and at the end [A | B] has become
    [d·1 | d·A^-1 B] with d = ±det A.  One gcd brings Y / L to lowest terms,
    so L is the least common denominator of A^-1 B's entries."""
    n = len(a)
    w = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    prev = 1
    for k in range(n):
        if not w[k][k]:
            piv = next((i for i in range(k + 1, n) if w[i][k]), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            w[k], w[piv] = w[piv], w[k]
        rk = w[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                c = w[i][k]
                w[i] = [(p * x - c * y) // prev for x, y in zip(w[i], rk)]
        prev = p
    y = [row[n:] for row in w]
    g = math.gcd(prev, *(x for row in y for x in row))
    if prev < 0:
        g = -g
    return [[x // g for x in row] for row in y], prev // g


def inverse(a) -> tuple[list[list[int]], int]:
    """(Y, L) with A^-1 = Y / L in lowest terms and L > 0, for an invertible
    integer matrix A: ``solve_int`` against the identity."""
    return solve_int(a, identity(len(a)))


def submatrix(m: Rows, rows, cols) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(m[i][j] for j in cols) for i in rows)


def move(m: Rows, t: int, k: int) -> None:
    """E moves coordinate t to position k; the coordinates between them shift
    by one, and columns past n stay.  In place; nothing happens when t == k."""
    if t == k:
        return
    m.insert(k, m.pop(t))
    for row in m:
        row.insert(k, row.pop(t))


def shear(m: Rows, i: int, j: int, c) -> None:
    """E = 1 + c e_i t(e_j): column j += c * column i, then row j += c * row i,
    the whole row, so on [M | t(U)] U's column j gains c times its column i."""
    for row in m:
        row[j] += c * row[i]
    m[j] = [x + c * y for x, y in zip(m[j], m[i])]


def scale(m: Rows, idx, c) -> None:
    """E = diagonal, c at each coordinate in idx and 1 elsewhere (whole rows)."""
    for i in idx:
        m[i] = [c * x for x in m[i]]
    for row in m:
        for i in idx:
            row[i] *= c


def pivot(m: Rows, k: int, ok) -> bool:
    """Bring an entry that ``ok`` accepts to the diagonal at k, by congruences
    on the coordinates from k on: m[k][k] stays if ``ok`` accepts it, else the
    first later diagonal entry it accepts moves to k, else the shear
    e_i += e_j by the first (i, j), k <= i < j, row-major, with
    ``ok(m[i][j])``, exposes m[i][i] + 2 m[i][j] + m[j][j], i moves to k; on
    [M | t(U)] the move and the shear carry t(U) along.  Returns False, with
    m untouched, when ``ok`` accepts no entry."""
    if ok(m[k][k]):
        return True
    n = len(m)
    t = next((t for t in range(k + 1, n) if ok(m[t][t])), None)
    if t is None:
        pairs = ((i, j) for i in range(k, n) for j in range(i + 1, n) if ok(m[i][j]))
        t, j = next(pairs, (None, None))
        if t is None:
            return False
        shear(m, j, t, 1)
    move(m, t, k)
    return True


def eliminate(m: Rows, k: int, prev: int) -> None:
    """One fraction-free symmetric pivot step (Bareiss) on integer rows: with
    p = m[k][k] != 0, each entry (i > k, j > k) of a later row becomes
    (p·m[i][j] - m[i][k]·m[k][j]) // prev.

    This is the exact step E = 1 - sum over j > k of (m[k][j] / p) e_k t(e_j)
    on scaled rows: if the tail of m is prev·T, afterwards it is p·T' for the
    exact result T'.  Started on an integer matrix S with prev = 1, and with
    prev the pivot of the step before, each tail entry is a bordered minor of
    S (Sylvester's identity), so every division is exact.  Moves and shears
    among tail coordinates between steps are integer congruences that commute
    with the earlier steps, so the entries stay minors of S transformed by
    them.  Row and column k are left as they are (the exact step clears them
    off the diagonal); callers read only the pivots and the tail.  Rows may
    run on past column n: on [S | 1] the right half is t(U), as the row
    update is U's column update U E (m[i][k] = m[k][i]), each entry a minor
    of [S | 1], prev times the exact one before the step and p times after."""
    p, tail = m[k][k], m[k][k + 1 :]
    for ri in m[k + 1 :]:
        c = ri[k]
        ri[k + 1 :] = [(p * x - c * y) // prev for x, y in zip(ri[k + 1 :], tail)]


def pivot_chain(rows, ends) -> list[int]:
    """The pivots of the symmetric fraction-free elimination of the leading
    blocks of integer rows S that end at ``ends`` (ascending).  Step k brings
    a non-zero entry of the block that ends next to the diagonal by
    ``pivot``'s rule, then takes ``det``'s lazily scaled Bareiss step: row i
    holds base[i] times its Bareiss value, base[i] the pivot of the step that
    last changed it, so a row with m[i][k] = 0 is left as it is, and the
    pivot row's tail is scaled only if a later row needs it.  A move carries
    each row with its scale; an exposing shear adds one row to another, so
    those two are brought to scale prev first.  The moves and shears are
    congruences of determinant ±1 inside a block, so pivot k is a leading
    (k + 1)-minor of a matrix congruent to S, and a block's last pivot is the
    det of the leading block of S that it ends.  The list stops at the first
    block with no non-zero entry left, a degenerate leading block.  S is not
    changed."""
    size = ends[-1] if ends else 0
    a = [list(row[:size]) for row in rows[:size]] if size < len(rows) else [list(r) for r in rows]
    base, prev, out = [1] * size, 1, []
    for start, end in zip((0, *ends), ends):
        for k in range(start, end):
            if not a[k][k]:
                t = next((t for t in range(k + 1, end) if a[t][t]), None)
                if t is None:
                    pairs = ((i, j) for i in range(k, end) for j in range(i + 1, end) if a[i][j])
                    t, j = next(pairs, (None, None))
                    if t is None:
                        return out
                    for i in (t, j):
                        if base[i] != prev:
                            a[i][k:] = [x * prev // base[i] for x in a[i][k:]]
                            base[i] = prev
                    shear(a, j, t, 1)
                move(a, t, k)
                base.insert(k, base.pop(t))
            rk, bk, tail = a[k], base[k], None
            p = rk[k] * prev // bk
            for i in range(k + 1, size):
                ri = a[i]
                c = ri[k]
                if c:
                    if tail is None:
                        tail = rk[k + 1 :] if bk == prev else [x * prev // bk for x in rk[k + 1 :]]
                    ri[k + 1 :] = [(p * x - c * y) // base[i] for x, y in zip(ri[k + 1 :], tail)]
                    base[i] = p
            prev = p
            out.append(p)
    return out
