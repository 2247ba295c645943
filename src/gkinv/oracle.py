"""Independent brute-force references for the analytic code paths.

Nothing here shares logic with the closed-form Hilbert symbol, the reducer
or the binary classification: solvability is decided by residue
enumeration with a lifting margin, and GK values by direct search over
transforms.  These are deliberately slower second routes used to
cross-check the fast ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .forms import FormError, HalfIntegralForm, delta
from .padic import INF, PrimeContext, frac_mod, unit_part, valuation


@dataclass(frozen=True)
class SearchBudget:
    max_transforms: int = 10_000
    seed: int = 0


_brute_cache: dict[tuple[int, int, int, int, int], int] = {}


def _square_class_key(x, ctx: PrimeContext) -> tuple[int, int]:
    """(order parity, unit class) determining the square class of x.

    Units congruent mod 8 (dyadic) or mod p (odd) differ by a square."""
    v = int(valuation(Fraction(x), ctx)) % 2
    mod = 8 if ctx.p == 2 else ctx.p
    return v, frac_mod(unit_part(Fraction(x), ctx), mod, ctx)


def hilbert_brute(a, b, ctx: PrimeContext) -> int:
    """Hilbert symbol by primitive residue enumeration mod p^n.

    A primitive solution of z^2 = a x^2 + b y^2 mod p^n lifts to Q_p once n
    clears the Hensel margin for coefficients of order at most 1, so after
    reducing both arguments to square-class representatives the search is
    exact.  n is that margin, 2e + 3, plus one digit in the dyadic case.
    Results are cached per square-class pair.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    n = 2 * ctx.e + 3 + ctx.e
    ka = _square_class_key(a, ctx)
    kb = _square_class_key(b, ctx)
    key = (ctx.p,) + ka + kb
    if key in _brute_cache:
        return _brute_cache[key]
    p, q = ctx.p, ctx.p**n
    aa = (ka[1] * pow(p, ka[0])) % q
    bb = (kb[1] * pow(p, kb[0])) % q
    sq_all = {(z * z) % q for z in range(q)}
    sq_unit = {(z * z) % q for z in range(q) if z % p}
    found = False
    for x in range(q):
        axx = (aa * x * x) % q
        x_unit = x % p != 0
        for y in range(q):
            w = (axx + bb * y * y) % q
            if x_unit or y % p:
                if w in sq_all:
                    found = True
                    break
            elif w in sq_unit:
                found = True
                break
        if found:
            break
    res = 1 if found else -1
    _brute_cache[key] = res
    return res


def _int_matrix(form: HalfIntegralForm) -> tuple[list[list[int]], int]:
    """Doubled entries scaled integral by a prime-to-p denominator; entry
    orders match ord(2 b_ij), diagonal orders are off by e."""
    lcm = math.lcm(*(x.denominator for row in form.entries for x in row))
    while lcm % form.ctx.p == 0:  # denominators never carry p beyond the 2
        lcm //= form.ctx.p
    scale = 2 * lcm
    c = []
    for row in form.entries:
        out = []
        for x in row:
            v = x * scale
            if v.denominator != 1:
                raise FormError("doubled entries must clear denominators")
            out.append(v.numerator)
        c.append(out)
    return c, scale


def _iord(x: int, p: int):
    if x == 0:
        return INF
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _greatest_in_s(c: list[list[int]], p: int, e: int, cap: int) -> tuple[int, ...]:
    """Lexicographically greatest admissible exponent sequence for one basis:
    descending depth-first assignment with pairwise pruning."""
    n = len(c)
    ords = [[_iord(c[i][j], p) for j in range(n)] for i in range(n)]
    best: list[tuple[int, ...]] = []

    def rec(prefix: list[int]) -> bool:
        i = len(prefix)
        if i == n:
            best.append(tuple(prefix))
            return True
        hi = min(cap, ords[i][i] - e if ords[i][i] is not INF else cap)
        for j in range(i + 1, n):
            if ords[i][j] is not INF:
                hi = min(hi, ords[i][j])  # a_i <= a_j forces a_i <= ord(2b_ij)
        for k in range(i):
            if ords[k][i] is not INF:
                hi = min(hi, 2 * ords[k][i] - prefix[k])
        lo = prefix[-1] if prefix else 0
        for a in range(int(hi), lo - 1, -1):
            if rec(prefix + [a]):
                return True
        return False

    rec([])
    return best[0] if best else tuple([0] * n)


def greatest_in_s(form: HalfIntegralForm) -> tuple[int, ...]:
    """Greatest admissible exponent sequence for the given basis."""
    c, _ = _int_matrix(form)
    cap = int(_iord(_int_det(c), form.ctx.p))
    return _greatest_in_s(c, form.ctx.p, form.ctx.e, cap)


def _int_det(c: list[list[int]]) -> int:
    n = len(c)
    m = [[Fraction(x) for x in row] for row in c]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    v = det
    return int(v)


def gk_lower_search(form: HalfIntegralForm, budget: SearchBudget) -> tuple[int, ...]:
    """Best admissible sequence found over randomly sampled unimodular
    transforms; a certified lower bound for gk, never an upper one."""
    if not form.nondegenerate:
        raise FormError("degenerate form")
    ctx = form.ctx
    p, e = ctx.p, ctx.e
    rng = random.Random(budget.seed)
    c0, _ = _int_matrix(form)
    n = len(c0)
    cap = int(_iord(_int_det(c0), p))
    coef_mod = p ** (delta(form) + 2 * e + 4)
    best = _greatest_in_s(c0, p, e, cap)
    for _ in range(budget.max_transforms):
        c = [row[:] for row in c0]
        for _ in range(rng.randint(1, 8)):
            kind = rng.randrange(3)
            i = rng.randrange(n)
            j = rng.randrange(n)
            if kind == 0 and i != j:  # swap
                _swap(c, i, j)
            elif kind == 1:  # unit scaling
                u = rng.randrange(1, coef_mod)
                if u % p == 0:
                    u += 1
                _scale(c, i, u)
            elif i != j:  # shear: column j += x * column i
                _shear(c, i, j, rng.randrange(coef_mod))
        # quick filter: the first entry cannot exceed the current best start
        a1 = min(
            min(
                (_iord(c[i][i], p) - e)
                if c[i][i]
                else cap
                for i in range(n)
            ),
            min(
                (_iord(c[i][j], p) if c[i][j] else cap)
                for i in range(n)
                for j in range(i + 1, n)
            )
            if n > 1
            else cap,
        )
        if a1 < best[0]:
            continue
        cand = _greatest_in_s(c, p, e, cap)
        if cand > best:
            best = cand
    return best


def _swap(c, i, j):
    for row in c:
        row[i], row[j] = row[j], row[i]
    c[i], c[j] = c[j], c[i]


def _scale(c, i, u):
    for row in c:
        row[i] *= u
    for t in range(len(c)):
        c[i][t] *= u


def _shear(c, i, j, x):
    if x == 0:
        return
    for row in c:
        row[j] += x * row[i]
    for t in range(len(c)):
        c[j][t] += x * c[i][t]


def exhaustive_gk_binary(form: HalfIntegralForm) -> tuple[int, int]:
    """Exact binary GK by enumerating transform representatives mod p^k.

    Unit diagonal factors do not move entry orders, so representatives
    L(x) R(y) and swap * L(x) R(y) with x, y mod p^k cover every order
    pattern once k = ord det(2B) + e + 1 clears the determinant bound.
    """
    if form.n != 2 or not form.nondegenerate:
        raise FormError("needs a non-degenerate binary form")
    ctx = form.ctx
    p, e = ctx.p, ctx.e
    c, _ = _int_matrix(form)
    d0 = int(_iord(_int_det(c), p))
    q = p ** (d0 + e + 1)
    c11, c12, c22 = c[0][0], c[0][1], c[1][1]
    best = (-1, -1)
    for swapped in (False, True):
        a, b, d = (c11, c12, c22) if not swapped else (c22, c12, c11)
        for x in range(q):
            # column u1 = (1, x): leading entry of the transformed matrix
            e11 = a + 2 * b * x + d * x * x
            v11 = _iord(e11, p)
            a1cap = min(v11 - e if v11 is not INF else d0, d0)
            if a1cap < best[0]:
                continue
            for y in range(q):
                # column u2 = (y, 1 + xy)
                t = 1 + x * y
                e12 = a * y + b * (t + x * y) + d * x * t
                e22 = a * y * y + 2 * b * y * t + d * t * t
                v12 = _iord(e12, p)
                v22 = _iord(e22, p)
                o11 = v11 - e if v11 is not INF else INF
                o22 = v22 - e if v22 is not INF else INF
                a1 = min(o11, o22, v12)
                if a1 is INF or a1 > d0:
                    a1 = d0
                a1 = int(a1)
                a2 = min(
                    o22 if o22 is not INF else d0,
                    2 * v12 - a1 if v12 is not INF else 2 * d0,
                    d0 - a1,
                )
                a2 = int(max(a2, a1))
                if (a1, a2) > best:
                    best = (a1, a2)
    return best
