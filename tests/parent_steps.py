"""The kernel steps as they were when each took an optional working U, kept
verbatim as references, with the dyadic clear that carried U beside its rows.

The library's steps take no U: the reducers run them on the rows [M | t(U)],
where the row update covers t(U).  ``move``, ``shear``, ``scale`` and
``pivot`` here update a separate U by U <- U E, so the tests can compare the
library's right half, transposed, with the U that these steps carry.
``clear_matrix`` is the dyadic clear that passed that U to them.
``bounded_pivot`` is the library's ``pivot`` as it was when it took an
``end``, the rule that the sign readers of ``parent_chain`` and
``parent_read_side`` ran, so that those references do not read the kernel
that they check."""

from gkinv import linalg

Rows = linalg.Rows


def move(m: Rows, t: int, k: int, u: Rows | None = None) -> None:
    """E moves coordinate t to position k; the coordinates between them shift
    by one.  In place, and nothing happens when t == k."""
    if t == k:
        return
    m.insert(k, m.pop(t))
    for row in m if u is None else m + u:
        row.insert(k, row.pop(t))


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


def pivot(m: Rows, k: int, ok, u: Rows | None = None, end: int | None = None) -> None:
    """Bring an entry that ``ok`` accepts to the diagonal at k, by congruences
    on the coordinates from k to ``end`` (n by default): m[k][k] stays if
    ``ok`` accepts it, else the first later diagonal entry it accepts moves to
    k, else the shear e_i += e_j by the first (i, j), k <= i < j, row-major,
    with ``ok(m[i][j])``, exposes m[i][i] + 2 m[i][j] + m[j][j], i moves to k."""
    if ok(m[k][k]):
        return
    n = end or len(m)
    t = next((t for t in range(k + 1, n) if ok(m[t][t])), None)
    if t is None:
        t, j = next((i, j) for i in range(k, n) for j in range(i + 1, n) if ok(m[i][j]))
        shear(m, j, t, 1, u)
    move(m, t, k, u)


def bounded_pivot(m: Rows, k: int, ok, end: int) -> bool:
    """``pivot`` on the coordinates from k to ``end``, carrying no U; returns
    False, with m untouched, when ``ok`` accepts no entry there."""
    if not any(ok(m[i][j]) for i in range(k, end) for j in range(i, end)):
        return False
    pivot(m, k, ok, end=end)
    return True


def clear_matrix(m: Rows, u: Rows, exps, sigma) -> int | None:
    """Zero the cross rows of the reduced prefix against the tail, skipping
    fixed-point rows, on integer rows.  With X = A^-1 C = Y / L in lowest
    terms (``linalg.solve_int``, on the rows of A that a non-zero entry of C
    reaches through A's non-zero entries), apply the integer congruence
    L·E_X, where E_X takes X times the paired prefix columns off each tail
    column, to m and u in place: scale the tail coordinates by L, shear by
    -Y, scale the prefix coordinates by L.  Returns L, which is odd; returns
    None, with both untouched, when L is even, that is when X leaves Z_2
    (such a prefix cannot extend)."""
    k = len(exps)
    paired = [i for i in range(k) if sigma[i] != i]
    tail = range(k, len(m))
    linked = [i for i in paired if any(m[i][k:])]
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
        scale(m, tail, l, u)
    # in (prefix, tail) blocks diag(1, L)·[[1, -Y], [0, 1]]·diag(L, 1) = L·E_X;
    # the shears run from prefix to tail coordinates, so they commute
    for i, row in zip(rows, y):
        for j, v in zip(tail, row):
            if v:
                shear(m, i, j, -v, u)
    if l != 1:
        scale(m, range(k), l, u)
    return l


def augmented(m: Rows, u: Rows) -> Rows:
    """The rows [M | t(U)] that the library's steps run on."""
    return [list(row) + list(col) for row, col in zip(m, zip(*u))]


def split(rows: Rows) -> tuple[Rows, Rows]:
    """(M, U) from the rows [M | t(U)]."""
    n = len(rows)
    return [row[:n] for row in rows], [list(col) for col in zip(*(row[n:] for row in rows))]
