"""Exact linear algebra over the rationals for small matrices.

The dense routines build new immutable matrices.  The in-place elimination
kernel at the end is what both reducers run on: each of its steps applies a
congruence M <- t(E) M E, and U <- U E when a working U is given, to mutable
lists of Fraction rows without building E.  The arithmetic is exact, so a
step gives the same values as ``congruence(M, E)`` and ``matmul(U, E)``.
"""

from __future__ import annotations

from fractions import Fraction

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
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def congruence(b: Matrix, u: Matrix) -> Matrix:
    """t(U) B U."""
    return matmul(transpose(u), matmul(b, u))


def det(m: Matrix) -> Fraction:
    n = len(m)
    if n == 0:
        return Fraction(1)
    a = [list(row) for row in m]
    d = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            d = -d
        d *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return d


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


Rows = list[list[Fraction]]


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


def eliminate(m: Rows, k: int, u: Rows | None = None) -> None:
    """Symmetric pivot elimination of row k against the tail: E = 1 - sum over
    j > k of (m[k][j] / m[k][k]) e_k t(e_j), which needs m[k][k] != 0.  These
    shears share their source k, so they commute and apply as all the column
    steps, then all the row steps."""
    d = m[k][k]
    fs = [(j, -m[k][j] / d) for j in range(k + 1, len(m)) if m[k][j]]
    if not fs:
        return
    for w in (m,) if u is None else (m, u):
        for row in w:
            x = row[k]
            if x:
                for j, f in fs:
                    row[j] += f * x
    rk = m[k]
    for j, f in fs:
        m[j] = [x + f * y for x, y in zip(m[j], rk)]
