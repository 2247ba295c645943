"""Exact linear algebra over the rationals for small matrices.

The dense routines build new immutable matrices.  ``congruence`` and ``det``
scale their matrices to integers over least common denominators (of each
matrix for ``congruence``, of each row for ``det``), compute in ``int`` and
divide once at the end, so they never build an intermediate Fraction.  They
share no code with the in-place kernel's steps, which is what lets the
verifier check the reducers with them; the only helper in common is
``_scaled``, which turns a matrix into integers over its common denominator.

The in-place elimination kernel at the end is what both reducers run on:
each of its steps applies a congruence M <- t(E) M E, and U <- U E when a
working U is given, to mutable lists of rows without building E.  ``swap``,
``permute`` and ``shear`` work on rows of any exact numbers (Fraction rows
in the dyadic search) and give the same values as ``congruence(M, E)`` and
``matmul(U, E)``.  ``eliminate`` is a fraction-free step on integer rows:
the Jordan split and the field diagonalization scale B once to integers
and keep every entry an integer, with a known scale per entry, until they
build their Fractions at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

Matrix = tuple[tuple[Fraction, ...], ...]

# Every zero entry of a built matrix is this one instance: certificates are
# mostly zeros, and a caller may keep many of them.
_ZERO = Fraction(0)


def mat(rows) -> Matrix:
    return tuple(
        tuple((x if type(x) is Fraction else Fraction(x)) or _ZERO for x in row)
        for row in rows
    )


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def _scaled(m) -> tuple[list[list[int]], int]:
    """(d·M as integer rows, d) for the least common denominator d of M's
    entries, which may be Fractions or ints."""
    d = math.lcm(*{x.denominator for row in m for x in row})
    if d == 1:
        return [[x.numerator for x in row] for row in m], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def congruence(b: Matrix, u: Matrix) -> Matrix:
    """t(U) B U: both products on the integer matrices db·B and du·U, then
    one division of each entry by db·du²."""
    bi, db = _scaled(b)
    ui, du = _scaled(u)
    t = matmul(transpose(ui), matmul(bi, ui))
    d = db * du * du
    if d == 1:
        return mat(t)
    return mat([Fraction(x, d) if x else _ZERO for x in row] for row in t)


def det(m: Matrix) -> Fraction:
    """Fraction-free (Bareiss) elimination on the integer rows d_i·M_i, with
    d_i the least common denominator of row i, then one division by the
    product of the d_i.

    Step k maps a lower row r to (p·r - c·y) / prev, with p and y the pivot
    and the pivot row, c = r[k] and prev the previous pivot.  Every entry it
    gives is a minor of the scaled matrix, so the division is exact.  A row
    with c = 0 would only be scaled by p / prev, so it is left as it is and
    base[i] keeps the pivot of the step that last changed it: its Bareiss
    value is r·prev / base[i], and its next real step divides by base[i].
    Triangular and diagonal matrices then cost no elimination at all."""
    n = len(m)
    a, d = [], 1
    for row in m:
        (r,), dr = _scaled((row,))
        a.append(r)
        d *= dr
    base = [1] * n
    sign, prev = 1, 1
    for k in range(n):
        if not a[k][k]:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return _ZERO
            a[k], a[piv] = a[piv], a[k]
            base[k], base[piv] = base[piv], base[k]
            sign = -sign
        rk = a[k]
        if base[k] != prev:
            rk = [x * prev // base[k] for x in rk]
        p, tail = rk[k], rk[k + 1 :]
        for i in range(k + 1, n):
            ri = a[i]
            c = ri[k]
            if c:
                ri[k + 1 :] = [(x * p - c * y) // base[i] for x, y in zip(ri[k + 1 :], tail)]
                base[i] = p
        prev = p
    return Fraction(sign * prev, d)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """A^-1 B for invertible A, by Gauss-Jordan elimination on [A | B]."""
    n = len(a)
    w = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for k in range(n):
        piv = next((i for i in range(k, n) if w[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        w[k], w[piv] = w[piv], w[k]
        inv = 1 / w[k][k]
        w[k] = [x * inv for x in w[k]]
        for i in range(n):
            if i != k and w[i][k] != 0:
                f = w[i][k]
                w[i] = [x - f * y for x, y in zip(w[i], w[k])]
    return tuple(tuple(row[n:]) for row in w)


def inverse(m: Matrix) -> Matrix:
    return solve(m, identity(len(m)))


def perm_matrix(new_to_old: tuple[int, ...]) -> Matrix:
    """Column permutation: congruence(B, P)[k][l] == B[pi(k)][pi(l)]."""
    n = len(new_to_old)
    return tuple(
        tuple(Fraction(1 if i == new_to_old[k] else 0) for k in range(n))
        for i in range(n)
    )


def submatrix(m: Matrix, rows, cols) -> Matrix:
    return tuple(tuple(m[i][j] for j in cols) for i in rows)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    zero = Fraction(0)
    top = tuple(row + (zero,) * nb for row in a)
    bot = tuple((zero,) * na + row for row in b)
    return top + bot


Rows = list[list]


def rows(m) -> Rows:
    """A mutable copy of a matrix, for the in-place steps below."""
    return [list(row) for row in m]


def swap(m: Rows, i: int, j: int, u: Rows | None = None) -> None:
    """E exchanges coordinates i and j."""
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]
    if u is not None:
        for row in u:
            row[i], row[j] = row[j], row[i]


def permute(m: Rows, new_to_old, u: Rows | None = None) -> None:
    """E = perm_matrix(new_to_old): coordinate k of the result is coordinate
    new_to_old[k] of the input."""
    m[:] = [[m[s][t] for t in new_to_old] for s in new_to_old]
    if u is not None:
        u[:] = [[row[t] for t in new_to_old] for row in u]


def shear(m: Rows, i: int, j: int, c, u: Rows | None = None) -> None:
    """E = 1 + c e_i t(e_j): column j += c * column i, then row j += c * row i."""
    for row in m:
        row[j] += c * row[i]
    m[j] = [x + c * y for x, y in zip(m[j], m[i])]
    if u is not None:
        for row in u:
            row[j] += c * row[i]


def eliminate(m: Rows, k: int, prev: int, u: Rows | None = None) -> None:
    """One fraction-free symmetric pivot step (Bareiss) on integer rows: with
    p = m[k][k] != 0, each tail entry (i, j > k) becomes
    (p·m[i][j] - m[i][k]·m[k][j]) // prev, and each tail column j of U
    becomes (p·u[:, j] - m[k][j]·u[:, k]) // prev.

    This is the exact step E = 1 - sum over j > k of (m[k][j] / p) e_k t(e_j)
    on scaled rows: if the tail of m is prev·T and the tail columns of U are
    prev·V, afterwards they are p·T' and p·V' for the exact results T', V'.
    Every division is exact.  Started on an integer matrix S with prev = 1
    and U = 1, and with prev the pivot of the step before, each tail entry
    of m is a bordered minor of S (Sylvester's identity) and each tail entry
    of U, by Cramer's rule for the leading block of S, a minor of S, so
    both are integers.  Swaps, permutations and shears among tail coordinates between
    steps are integer congruences that commute with the earlier steps, so
    the entries stay minors of S transformed by them.  Row and column k are
    left as they are (the exact step clears them off the diagonal); callers
    read only the pivots and the tail."""
    p, tail = m[k][k], m[k][k + 1 :]
    for ri in m[k + 1 :]:
        c = ri[k]
        ri[k + 1 :] = [(p * x - c * y) // prev for x, y in zip(ri[k + 1 :], tail)]
    if u is not None:
        for row in u:
            c = row[k]
            row[k + 1 :] = [(p * x - y * c) // prev for x, y in zip(row[k + 1 :], tail)]
