"""The matrix readers of ``gkinv.linalg`` and ``gkinv.forms`` as they were
before each entry point read every entry once, kept verbatim as references:
``mat`` builds a matrix of Fractions, each entry through ``Fraction(x)``;
``_scaled`` reads that matrix a second time into integer rows over the least
common denominator; ``lowest`` takes one gcd over every row; and
``_from_rows`` scans every row.  The one edit is that ``_from_rows`` calls
``lowest`` below rather than ``linalg.lowest``.  The entry points then read
``_scaled(mat(x))``.  The helpers they call, which did not change, come from
``gkinv``; the tests compare the library's readers with these."""

import math
from fractions import Fraction

from gkinv.forms import FormError, HalfIntegralForm
from gkinv.linalg import _ZERO, Matrix
from gkinv.padic import PrimeContext, valuation


def mat(rows) -> Matrix:
    return tuple(
        tuple((x if type(x) is Fraction else Fraction(x)) or _ZERO for x in row)
        for row in rows
    )


def _scaled(m) -> tuple[list[list[int]], int]:
    """(d·M as integer rows, d) for the least common denominator d of M's
    entries, which may be Fractions or ints."""
    d = math.lcm(*{x.denominator for row in m for x in row})
    if d == 1:
        return [[x.numerator for x in row] for row in m], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def lowest(m, d: int) -> tuple[list[list[int]], int]:
    """(m / g, d / g) for integer rows m and d > 0, with g the gcd of d and
    every entry of m, so that d becomes the least common denominator of m / d."""
    g = math.gcd(d, *(math.gcd(*row) for row in m))
    return (m, d) if g == 1 else ([[x // g for x in row] for row in m], d // g)


def _from_rows(ri, den: int, ctx: PrimeContext) -> HalfIntegralForm:
    """The form ri / den, for integer rows ri and den > 0, checked on the
    integers.  Only a row that fails a whole-row check is scanned, so errors
    come in the order (i, i), then (i, j) for j > i, row by row."""
    n = len(ri)
    if any(len(row) != n for row in ri):
        raise FormError("matrix is not square")
    ri, den = lowest(ri, den)
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
