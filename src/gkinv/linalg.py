"""Exact linear algebra over the rationals for small matrices.

The dense routines build new immutable matrices.  ``congruence`` and ``det``
scale their matrices to integers over least common denominators (of each
matrix for ``congruence``, of each row for ``det``), compute in ``int`` and
divide once at the end, so they never build an intermediate Fraction.  They
and ``matmul`` share no code with the in-place kernel's steps, which is what
lets the verifier check the reducers with ``det`` and ``matmul``; the only
helper in common is ``_scaled``, which turns a matrix into integers over its
common denominator.
There is one solve: ``solve_int`` is fraction-free Gauss-Jordan elimination
on integer matrices and returns A^-1 B as Y / L in lowest terms; ``solve``
scales [A | B] row by row as ``det`` does and calls it, and ``inverse`` is
``solve`` against the identity.

The in-place elimination kernel at the end is what both reducers run on:
each of its steps applies a congruence M <- t(E) M E, and U <- U E when a
working U is given, to mutable lists of rows without building E.  ``swap``,
``permute``, ``shear`` and ``scale`` work on rows of any exact numbers and
give the same values as ``congruence(M, E)`` and ``matmul(U, E)``;
``eliminate`` is a fraction-free step.  The reducers and the field
diagonalization scale B once to integers and keep every entry an integer,
with a known scale, until they build their Fractions at the end: the Jordan
split and the field diagonalization through ``eliminate``, the dyadic search
through ``solve_int`` and integer shears and scalings.
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


def solve(a: Matrix, b: Matrix) -> Matrix:
    """A^-1 B for invertible A: each row of [A | B] is scaled to integers by
    its own least common denominator, as in ``det`` (A^-1 B is unchanged),
    ``solve_int`` eliminates, and each entry is divided once by L."""
    n = len(a)
    ab = [_scaled((tuple(ra) + tuple(rb),))[0][0] for ra, rb in zip(a, b)]
    y, l = solve_int([r[:n] for r in ab], [r[n:] for r in ab])
    return mat([Fraction(x, l) for x in row] for row in y)


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


def scale(m: Rows, idx, c, u: Rows | None = None) -> None:
    """E = diagonal, c at each coordinate in idx and 1 elsewhere."""
    for i in idx:
        m[i] = [c * x for x in m[i]]
    for row in m if u is None else m + u:
        for i in idx:
            row[i] *= c


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
