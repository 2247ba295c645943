"""Extended GK data: sequence-level and block-level combinatorial invariants.

A naive datum carries one exponent and one sign per coordinate; the
block-level datum collapses equal-exponent runs.  Both satisfy parity
axioms that mirror how the split/inert/ramified indicator and the
Clifford invariant of leading subforms interact; ``collapse`` maps naive
data onto block data, ``lift`` inverts it, and the two ``synthesize_*``
functions produce explicit matrices realizing a datum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .forms import HalfIntegralForm, _from_rows
from .invariants import block_sign, leading_signs, xi
from .involutions import GKType, blocks, is_standard, standard_involution
from .padic import PrimeContext, nonsquare_unit, valuation, zpow
from .reducer import binary_gk, is_reduced

SIGNS3 = (0, 1, -1)


class EGKError(ValueError):
    """Raised on malformed or inconsistent EGK data."""


@dataclass(frozen=True)
class NaiveEGK:
    a: tuple[int, ...]
    eps: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class EGKDatum:
    sizes: tuple[int, ...]
    exps: tuple[int, ...]
    zeta: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def expand_exps(self) -> tuple[int, ...]:
        out: list[int] = []
        for size, m in zip(self.sizes, self.exps):
            out.extend([m] * size)
        return tuple(out)


def _sign_rules(sizes, exps, zeta):
    """The parity axioms, block by block: for each block s, the values its
    sign may take given the signs zeta[:s] of the blocks before it, a fixed
    value where the axioms force one, otherwise {+1,-1} or {0}."""
    nstar = msum = 0  # the length and exponent mass of the prefix before s
    odd_before, val = False, 1
    for s, (k, m) in enumerate(zip(sizes, exps)):
        # the product formula runs from the last earlier block t that ends an
        # odd prefix, zeta[t] times zpow(zeta[u], exps[u] + exps[u + 1]) for
        # t < u < s, and from 1 over every u < s when there is no such block
        if s and nstar % 2:
            odd_before, val = True, zeta[s - 1]
        elif s:
            val *= zpow(zeta[s - 1], exps[s - 1] + m)
        nstar, msum = nstar + k, msum + m * k
        if nstar % 2 == 0:
            yield (1, -1) if msum % 2 == 0 else (0,)
        else:  # odd prefix length: the sign is nonzero, and often forced
            yield (1, -1) if odd_before and (msum - m) % 2 else (val,)


def _allowed_zeta(sizes, exps, zeta_prefix) -> tuple[int, ...]:
    """Values the next sign may take given the earlier blocks."""
    *_, allowed = _sign_rules(sizes[: len(zeta_prefix) + 1], exps, zeta_prefix)
    return allowed


def validate_egk(g: EGKDatum) -> tuple[bool, list[str]]:
    """Check the block-level axioms; returns (ok, violations)."""
    bad: list[str] = []
    if not (len(g.sizes) == len(g.exps) == len(g.zeta)) or g.r == 0:
        return False, ["component lengths differ or datum is empty"]
    if any(k < 1 for k in g.sizes):
        bad.append("block sizes must be positive")
    if any(m < 0 for m in g.exps):
        bad.append("exponents must be non-negative")
    if any(g.exps[i] >= g.exps[i + 1] for i in range(g.r - 1)):
        bad.append("exponents must be strictly increasing")
    if any(z not in SIGNS3 for z in g.zeta):
        bad.append("signs must lie in {0, 1, -1}")
    if bad:
        return False, bad
    for s, allowed in enumerate(_sign_rules(g.sizes, g.exps, g.zeta)):
        if g.zeta[s] not in allowed:
            bad.append(f"sign {s} is {g.zeta[s]}, allowed {allowed}")
    return not bad, bad


def validate_naive(h: NaiveEGK) -> tuple[bool, list[str]]:
    """Check the coordinate-level axioms, which are the block-level ones with
    every block of size 1; returns (ok, violations)."""
    bad: list[str] = []
    n = h.n
    if len(h.eps) != n or n == 0:
        return False, ["component lengths differ or datum is empty"]
    if any(e not in SIGNS3 for e in h.eps):
        bad.append("signs must lie in {0, 1, -1}")
    if any(a < 0 for a in h.a):
        bad.append("exponents must be non-negative")
    if any(h.a[i] > h.a[i + 1] for i in range(n - 1)):
        bad.append("exponents must be non-decreasing")
    if bad:
        return False, bad
    for i, allowed in enumerate(_sign_rules((1,) * n, h.a, h.eps)):
        if h.eps[i] not in allowed:
            bad.append(f"sign {i} is {h.eps[i]}, allowed {allowed}")
    return not bad, bad


def collapse(h: NaiveEGK) -> EGKDatum:
    """Block-collapse of a naive datum: keep the sign at each block end."""
    ok, bad = validate_naive(h)
    if not ok:
        raise EGKError("; ".join(bad))
    bl = blocks(h.a)
    ends = [bl.starts[s] + bl.sizes[s] - 1 for s in range(bl.r)]
    g = EGKDatum(bl.sizes, bl.values, tuple(h.eps[i] for i in ends))
    ok, bad = validate_egk(g)
    if not ok:
        raise EGKError("collapse produced an invalid datum: " + "; ".join(bad))
    return g


def lift(g: EGKDatum) -> NaiveEGK:
    """A naive datum mapping onto ``g`` under ``collapse``: each block ends
    with its own sign, and a coordinate inside block s takes the sign of the
    block cut there, forced where the axioms force it and +1 where they leave
    it free.  ``synthesize_reduced`` reads its block signs from here."""
    ok, bad = validate_egk(g)
    if not ok:
        raise EGKError("; ".join(bad))
    a: list[int] = []
    eps: list[int] = []
    for s, (size, m) in enumerate(zip(g.sizes, g.exps)):
        for k in range(1, size):
            allowed = _allowed_zeta(g.sizes[:s] + (k,), g.exps, g.zeta[:s])
            eps.append(1 if 1 in allowed else allowed[0])
        eps.append(g.zeta[s])
        a.extend([m] * size)
    return NaiveEGK(tuple(a), tuple(eps))


def enumerate_egk(max_r: int, max_m: int, max_n: int) -> list[EGKDatum]:
    """All valid data with at most ``max_r`` blocks, exponents <= ``max_m``
    and total length <= ``max_n``."""
    out: list[EGKDatum] = []

    def rec(sizes, exps, zeta):
        if sizes:
            out.append(EGKDatum(tuple(sizes), tuple(exps), tuple(zeta)))
        if len(sizes) == max_r:
            return
        room = max_n - sum(sizes)
        m_lo = exps[-1] + 1 if exps else 0
        for k in range(1, room + 1):
            for m in range(m_lo, max_m + 1):
                for z in _allowed_zeta(tuple(sizes) + (k,), tuple(exps) + (m,), tuple(zeta)):
                    rec(sizes + [k], exps + [m], zeta + [z])

    rec([], [], [])
    return out


def random_egk(
    rng: random.Random, max_r: int = 3, max_m: int = 4, max_n: int = 6,
    parity: str | None = None,
) -> EGKDatum:
    """Random valid datum; ``parity`` = "odd_total" forces an even length with
    odd exponent mass (the shape the inverse-valuation bounds apply to)."""
    while True:
        r = rng.randint(1, max_r)
        sizes, exps, zeta = [], [], []
        m_lo = 0
        ok = True
        for s in range(r):
            room = max_n - sum(sizes) - (r - 1 - s)
            m_hi = max_m - (r - 1 - s)
            if room < 1 or m_lo > m_hi:
                ok = False
                break
            sizes.append(rng.randint(1, room))
            exps.append(rng.randint(m_lo, m_hi))
            m_lo = exps[-1] + 1
            zeta.append(rng.choice(_allowed_zeta(tuple(sizes), tuple(exps), tuple(zeta))))
        if not ok:
            continue
        g = EGKDatum(tuple(sizes), tuple(exps), tuple(zeta))
        if parity == "odd_total":
            if g.n % 2 or sum(m * k for m, k in zip(g.exps, g.sizes)) % 2 == 0:
                continue
        return g


def synthesize_nondyadic(h: NaiveEGK, ctx: PrimeContext) -> HalfIntegralForm:
    """Diagonal form over Q_p, p odd, whose per-prefix invariants realize the
    naive datum; the unit class of each new entry is picked by direct check."""
    if ctx.p == 2:
        raise EGKError("diagonal synthesis needs p odd")
    ok, bad = validate_naive(h)
    if not ok:
        raise EGKError("; ".join(bad))
    u = nonsquare_unit(ctx)
    diag: list[int] = []
    for i, (a, eps) in enumerate(zip(h.a, h.eps), 1):
        for unit in (1, u):
            cand = diag + [unit * ctx.p**a]
            form = _from_rows(
                [[cand[r] if r == c else 0 for c in range(i)] for r in range(i)], 1, ctx
            )
            if block_sign(form) == eps:
                diag = cand
                break
        else:
            raise EGKError(f"no unit class realizes sign {eps} at position {i}")
    n = h.n
    return _from_rows([[diag[r] if r == c else 0 for c in range(n)] for r in range(n)], 1, ctx)


def naive_datum_of_diagonal(form: HalfIntegralForm) -> NaiveEGK:
    """Per-prefix invariants of a non-dyadic diagonal form with sorted orders;
    ``FormError`` if a prefix is degenerate, and so has no sign."""
    eps = tuple(leading_signs(form, range(1, form.n + 1)))
    v = valuation(form.den, form.ctx)
    a = tuple(valuation(form.rows[i][i], form.ctx) - v for i in range(form.n))
    return NaiveEGK(a, eps)


# the synthesized forms are built as their integer rows 2B over den 2
_HYPERBOLIC = ((0, 1), (1, 0))
_INERT_PAIR = ((2, 1), (1, 2))


def _unramified_pair(target_xi: int, scale: int) -> tuple[tuple[int, ...], ...]:
    """2B for 2^scale times the split or the inert unimodular binary form."""
    base = _HYPERBOLIC if target_xi >= 0 else _INERT_PAIR
    return tuple(tuple(x << scale for x in row) for row in base)


def synthesize_reduced(
    g: EGKDatum, ctx: PrimeContext, sigma=None
) -> HalfIntegralForm:
    """Clean reduced dyadic form of the datum's GK type realizing ``g``.

    Clean means every entry off the diagonal and off the involution pairs is
    zero.  When ``sigma`` is omitted the first standard involution is used.
    """
    if ctx.p != 2:
        raise EGKError("reduced synthesis is the dyadic path")
    h = lift(g)  # raises EGKError on a datum that breaks the axioms
    exps = h.a
    if sigma is None:
        sigma = standard_involution(exps)
    sigma = tuple(sigma)
    if not is_standard(exps, sigma):
        raise EGKError("involution is not standard for the datum's exponents")
    n = len(exps)
    rows = [[0] * n for _ in range(n)]  # 2B
    start = 0
    for s, (size, m) in enumerate(zip(g.sizes, g.exps)):
        end = start + size - 1
        # the block's inner coordinates see its own sign, or the sign of the
        # block cut one short when it ends in a fixed or lowered coordinate
        z = g.zeta[s]
        if size > 1 and (sigma[end] == end or exps[sigma[end]] > m):
            z = h.eps[end - 1]
        for j in range(start, end + 1):
            i = sigma[j]
            if i == j or exps[i] > m:  # fixed, or lowered: fixed until i arrives
                rows[j][j] = 2 << m
            elif exps[i] < m:  # raised: complete the pair with its partner i
                keep = [k for k in range(j) if k != i]
                minor = _from_rows(linalg.submatrix(rows, keep, keep), 2, ctx)
                target = z * block_sign(minor)
                rows[i][j], rows[j][j] = _complete_pair(rows[i][i], exps[i], m, target, ctx)
                rows[j][i] = rows[i][j]
            elif i < j:  # equal pair (i, j), adjacent in a standard involution
                target = 1
                if i == start:  # the pair opens its block
                    prev = g.zeta[s - 1] if s else 1
                    if j % 2:
                        target = z * prev if z else 1
                    elif sum(exps[:j]) % 2:
                        target = z * prev
                (rows[i][i], rows[i][j]), (rows[j][i], rows[j][j]) = _unramified_pair(target, m)
        start = end + 1
    form = _from_rows(rows, 2, ctx)
    if not is_reduced(form, GKType(exps, sigma)):
        raise EGKError("synthesis produced a non-reduced matrix")
    return form


def _complete_pair(r00: int, a0: int, a1: int, target_xi: int, ctx: PrimeContext):
    """Cross entry and corner completing a diagonal value to a binary block
    with invariant pair (a0, a1) and the requested square-class indicator,
    all three doubled, as entries of 2B."""
    g = (a0 + a1) // 2
    corners = [0] + [v << (a1 + 1) for v in (1, 3, 5, 7)]
    for w in (1, 3, 5, 7):
        r01 = w << g
        for r11 in corners:
            pair = _from_rows([[r00, r01], [r01, r11]], 2, ctx)
            if binary_gk(pair) == (a0, a1) and xi(pair) == target_xi:
                return r01, r11
    raise EGKError("no pair completion found")
