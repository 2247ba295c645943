"""Executable property suites behind the structural claims of the library.

Each check runs a randomized or exhaustive verification of one algebraic
property; the CLI ``selftest`` subcommand and the pytest property tests both
drive these.  All randomness is seed-deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg
from .egk import (
    _unramified_pair,
    collapse,
    enumerate_egk,
    lift,
    naive_datum_of_diagonal,
    random_egk,
    synthesize_nondyadic,
    synthesize_reduced,
    validate_egk,
    validate_naive,
)
from .forms import (
    HalfIntegralForm,
    _from_rows,
    delta,
    direct_sum,
    in_gk_group,
    leading,
    matrix_in_lattice,
    membership,
    norm_ideal_ord,
    random_form,
    random_unimodular,
    signed_disc,
    transform,
)
from .invariants import block_sign, check_inverse_bounds, classify_binary, egk_of, eta, gk, xi
from .involutions import (
    GKType,
    all_involutions,
    choice_block_count,
    is_admissible,
    is_standard,
    plus_signature,
    restrict,
    standard_involution,
    standard_involutions,
)
from .oracle import (
    SearchBudget,
    exhaustive_gk_binary,
    gk_lower_search,
    greatest_in_s,
    hilbert_brute,
)
from .padic import (
    PrimeContext,
    hilbert_symbol,
    is_square,
    nonsquare_unit,
    quad_ext,
    square_class_reps,
    valuation,
    xi_code,
    zpow,
)
from .reducer import (
    dyadic_pair_conditions,
    is_reduced,
    reduce_form,
    verify_certificate,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name: str, failures: list[str]) -> CheckResult:
    return CheckResult(name, not failures, "; ".join(failures[:3]))


def _random_nonzero(rng: random.Random, ctx: PrimeContext) -> Fraction:
    while True:
        num = rng.randint(-(ctx.p**3), ctx.p**3)
        den = rng.randint(1, ctx.p**2)
        if num:
            return Fraction(num, den)


_CTXS = tuple(PrimeContext(p) for p in (2, 3, 5))


def random_forms(rng: random.Random, count: int, sizes: tuple[int, int], height: int):
    """``count`` random forms, each drawn as a prime from (2, 3, 5), then a
    size in the closed range ``sizes``, then ``random_form`` at ``height``.
    The forms come one at a time, so a caller may draw from ``rng`` between
    them and still see the same sequence."""
    for _ in range(count):
        ctx = rng.choice(_CTXS)
        yield random_form(rng.randint(*sizes), ctx, rng, height=height)


def _det_cap(form: HalfIntegralForm) -> int:
    """ord det(2B), from the determinant the form already carries."""
    return int(valuation(Fraction(2) ** form.n * form.det, form.ctx))


# ---------------------------------------------------------------- padic

def padic_suite(trials: int = 300, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []

    fails = []
    for ctx in _CTXS:
        for _ in range(trials):
            a, b, c = (_random_nonzero(rng, ctx) for _ in range(3))
            if hilbert_symbol(a, b, ctx) != hilbert_symbol(b, a, ctx):
                fails.append(f"symmetry p={ctx.p} {a},{b}")
            lhs = hilbert_symbol(a, b * c, ctx)
            rhs = hilbert_symbol(a, b, ctx) * hilbert_symbol(a, c, ctx)
            if lhs != rhs:
                fails.append(f"bimultiplicativity p={ctx.p} {a},{b},{c}")
            if hilbert_symbol(a, -a, ctx) != 1:
                fails.append(f"<a,-a> p={ctx.p} {a}")
            s = _random_nonzero(rng, ctx)
            if hilbert_symbol(a * s * s, b, ctx) != hilbert_symbol(a, b, ctx):
                fails.append(f"square-class p={ctx.p} {a},{b},{s}")
    out.append(_result("hilbert symbol algebra", fails))

    fails = []
    for ctx in _CTXS:
        for _ in range(max(trials // 3, 1)):
            x = _random_nonzero(rng, ctx)
            ext = quad_ext(x, ctx)
            code = xi_code(x, ctx)
            if (code == 0) != (ext.d >= 1):
                fails.append(f"xi vs discriminant p={ctx.p} {x}")
            if (code * code == 1) != (ext.d == 0):
                fails.append(f"xi^2 vs discriminant p={ctx.p} {x}")
            reps = square_class_reps(ctx)
            all_plus = all(hilbert_symbol(x, r, ctx) == 1 for r in reps)
            if is_square(x, ctx) != all_plus:
                fails.append(f"square iff trivial pairing p={ctx.p} {x}")
    out.append(_result("square classes and quadratic extensions", fails))

    fails = []
    for ctx in _CTXS:
        reps = square_class_reps(ctx)
        for a in reps:
            for b in reps:
                if hilbert_symbol(a, b, ctx) != hilbert_brute(a, b, ctx):
                    fails.append(f"symbol vs brute p={ctx.p} {a},{b}")
    out.append(_result("hilbert symbol equals brute table", fails))
    return out


# ---------------------------------------------------------------- qform

def _random_gk_group_element(exps, ctx, rng):
    """Random member of the exponent-compatible transform group: shears obey
    the half-difference bound, block entries are free units."""
    n = len(exps)
    u = linalg.identity(n)
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        need = max(0, -(-(exps[j] - exps[i]) // 2))  # ceil of half-difference
        x = rng.randint(-ctx.p, ctx.p) * ctx.p**need
        for row in u:
            row[j] += x * row[i]
    return u


def qform_suite(trials: int = 120, seed: int = 1) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []

    fails = []
    for b in random_forms(rng, trials, (1, 4), height=3):
        ctx, n = b.ctx, b.n
        u1 = random_unimodular(n, ctx, rng)
        u2 = random_unimodular(n, ctx, rng)
        lhs = transform(transform(b, u1), u2)
        rhs = transform(b, linalg.matmul(u1, u2))
        if lhs != rhs:
            fails.append(f"composition p={ctx.p}")
        if delta(transform(b, u1)) != delta(b):
            fails.append(f"delta invariance p={ctx.p}")
        if norm_ideal_ord(transform(b, u1)) != norm_ideal_ord(b):
            fails.append(f"norm invariance p={ctx.p}")
    out.append(_result("transform composition and invariances", fails))

    fails = []
    for b in random_forms(rng, trials, (1, 4), height=2):
        ctx = b.ctx
        exps = tuple(sorted(rng.randint(0, 2) for _ in range(b.n)))
        if membership(b, exps, strict=True) and not membership(b, exps):
            fails.append("strict does not imply lax")
        for strict in (False, True):
            if membership(b, exps, strict):
                u = _random_gk_group_element(exps, ctx, rng)
                if not in_gk_group(u, exps, ctx):
                    fails.append(f"group sampler left the group p={ctx.p}")
                elif not membership(transform(b, u), exps, strict):
                    fails.append(f"bounds not preserved p={ctx.p} {exps} strict={strict}")
    out.append(_result("membership preserved by the compatible group", fails))

    fails = []
    for b in random_forms(rng, trials // 2, (1, 3), height=2):
        cap = _det_cap(b)
        if sum(greatest_in_s(b)) > cap:
            fails.append(f"mass bound p={b.ctx.p}")
        members = _enumerate_s(b, cap)
        if any(sum(m) > cap for m in members):
            fails.append(f"enumerated member beats the mass bound p={b.ctx.p}")
    out.append(_result("admissible sequences respect the determinant bound", fails))
    return out


def _enumerate_s(form: HalfIntegralForm, cap: int):
    """Every non-decreasing sequence with entries at most ``cap`` that the
    form meets the valuation bounds of."""
    return [
        m
        for m in combinations_with_replacement(range(cap + 1), form.n)
        if membership(form, m)
    ]


# ---------------------------------------------------------------- involutions

def involution_suite() -> list[CheckResult]:
    out: list[CheckResult] = []
    fails = []
    census_fails = []
    for n in range(1, 7):
        invs = all_involutions(n)
        for exps in combinations_with_replacement(range(4), n):
            stds = standard_involutions(exps)
            if len(stds) != 2 ** choice_block_count(exps):
                fails.append(f"count {exps}")
            if any(not is_admissible(exps, s) for s in stds):
                fails.append(f"standard not admissible {exps}")
            if any(not is_standard(exps, s) for s in stds):
                fails.append(f"standard fails own predicate {exps}")
            admissible_sigs = {
                plus_signature(exps, s) for s in invs if is_admissible(exps, s)
            }
            std_sigs = {plus_signature(exps, s) for s in stds}
            if admissible_sigs != std_sigs:
                census_fails.append(f"{exps}")
            total = sum(exps)
            for s in stds:
                fixed = [i for i in range(n) if s[i] == i]
                if n % 2 == 1 and len(fixed) != 1:
                    fails.append(f"odd-size fixed count {exps}")
                if n % 2 == 0 and len(fixed) != (0 if total % 2 == 0 else 2):
                    fails.append(f"even-size fixed count {exps}")
    out.append(_result("standard involution count and fixed points", fails))
    out.append(_result("admissible census matches standard list", census_fails))

    fails = []
    for n in range(2, 7):
        for exps in combinations_with_replacement(range(3), n):
            for s in standard_involutions(exps):
                for k in range(1, n):
                    res = restrict(GKType(exps, s), k)
                    if res is not None and not res.standard:
                        fails.append(f"restriction not standard {exps} k={k}")
    out.append(_result("accepted restrictions stay standard", fails))
    return out


# ---------------------------------------------------------------- reducer

def reducer_suite(trials: int = 60, seed: int = 3) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []
    ctx2 = PrimeContext(2)

    fails = []
    for b in random_forms(rng, trials, (1, 4), height=3):
        ctx = b.ctx
        cert = reduce_form(b)
        ok, reason = verify_certificate(b, cert)
        if not ok:
            fails.append(f"verify p={ctx.p}: {reason}")
        if sum(cert.exps) != delta(cert.reduced):
            fails.append(f"reduced mass p={ctx.p}")
        if ctx.p == 2 and not dyadic_pair_conditions(cert.reduced, cert.gk_type):
            fails.append(f"dyadic pair shortcut p={ctx.p}")
    out.append(_result("certificates verify and carry the full mass", fails))

    fails = []
    for _ in range(trials):
        n = rng.randint(1, 4)
        b = random_form(n, ctx2, rng, height=3)
        u1 = random_unimodular(n, ctx2, rng)
        u2 = random_unimodular(n, ctx2, rng)
        c1 = reduce_form(transform(b, u1))
        c2 = reduce_form(transform(b, u2))
        if c1.exps != c2.exps or c1.gk_type.sigma != c2.gk_type.sigma:
            fails.append(f"type differs across coordinates n={n}")
    out.append(_result("standard type independent of the basis", fails))

    fails = []
    for b in random_forms(rng, trials, (2, 4), height=2):
        ctx, n = b.ctx, b.n
        cert = reduce_form(b)
        r, exps = cert.reduced, cert.exps
        u = _random_lower_unipotent(exps, ctx, rng)
        if not is_reduced(transform(r, u), cert.gk_type):
            fails.append(f"lower-unipotent stability p={ctx.p}")
        u2 = random_unimodular(n, ctx, rng)
        moved = transform(r, u2)
        if membership(moved, exps) != in_gk_group(u2, exps, ctx):
            fails.append(f"optimality group criterion p={ctx.p}")
        if reduce_form(moved).exps != exps:
            fails.append(f"gk changed under transform p={ctx.p}")
    out.append(_result("stability and optimality transforms", fails))

    fails = []
    for b in random_forms(rng, trials, (2, 4), height=2):
        ctx, n = b.ctx, b.n
        cert = reduce_form(b)
        exps = cert.exps
        for k in range(1, n):
            if exps[k - 1] < exps[k]:
                lead = leading(cert.reduced, k)
                if gk(lead) != exps[:k]:
                    fails.append(f"leading block gk p={ctx.p} k={k}")
        m = rng.randint(1, n)
        lead = leading(b, m)
        if lead.nondegenerate and gk(lead) < exps[:m]:
            fails.append(f"represented block comparison p={ctx.p}")
    out.append(_result("leading blocks bound the invariant", fails))

    fails = []
    for _ in range(trials):
        g = random_egk(rng, 2, 3, 4)
        exps = g.expand_exps()
        for sigma in standard_involutions(exps):
            if any(sigma[i] == i for i in range(len(exps))):
                continue
            r = synthesize_reduced(g, ctx2, sigma)
            y, l = linalg.inverse(r.rows)  # (4R)^-1 = den·Y / 4L
            inv = [[r.den * x for x in row] for row in y]
            if not matrix_in_lattice(inv, 4 * l, tuple(-a for a in exps), ctx2):
                fails.append(f"scaled inverse bounds {g}")
    out.append(_result("pair-only reduced forms have controlled inverses", fails))

    fails = []
    for _ in range(trials):
        g = random_egk(rng, 3, 3, 5)
        b = synthesize_reduced(g, ctx2)
        cert = reduce_form(b)  # source already optimal
        # U = y·diag(c)^-1 with every c_j odd has the orders and det class of y
        if any(cj % 2 == 0 for cj in cert.c) or not in_gk_group(cert.y, cert.exps, ctx2):
            fails.append(f"certificate transform left the group {g}")
    out.append(_result("optimal sources get in-group transforms", fails))
    return out


def _random_lower_unipotent(exps, ctx, rng):
    u = linalg.identity(len(exps))
    for i, ai in enumerate(exps):
        for j, aj in enumerate(exps):
            if ai > aj:
                u[i][j] = rng.randint(-ctx.p**2, ctx.p**2)
    return u


# ---------------------------------------------------------------- invariants

def invariant_suite(trials: int = 80, seed: int = 4) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []
    ctx2 = PrimeContext(2)

    fails = []
    for b in random_forms(rng, trials, (1, 4), height=3):
        if sum(gk(b)) != delta(b):
            fails.append(f"mass identity p={b.ctx.p}")
    out.append(_result("invariant mass equals the discriminant formula", fails))

    fails = []
    for b in random_forms(rng, trials, (2, 4), height=2):
        ctx, n = b.ctx, b.n
        u = random_unimodular(n, ctx, rng)
        if eta(transform(b, u)) != eta(b):
            fails.append(f"clifford invariance p={ctx.p}")
        lead = leading(b, n - 1)
        if lead.nondegenerate:
            chain = eta(lead) * hilbert_symbol(
                signed_disc(b), signed_disc(lead), ctx
            )
            if eta(b) != chain:
                fails.append(f"clifford chain rule p={ctx.p}")
    out.append(_result("clifford invariant transformation laws", fails))

    fails = []
    for b in random_forms(rng, trials, (1, 3), height=2):
        ctx = b.ctx
        a = rng.randint(0, 3)
        target = rng.choice((1, -1))
        k = _unramified_binary(target, a, ctx)
        summed = direct_sum(b, k)
        expect = eta(b) * zpow(target, a + int(valuation(signed_disc(b), ctx)))
        if eta(summed) != expect:
            fails.append(f"unramified pair extension p={ctx.p}")
    out.append(_result("clifford invariant under scaled unramified pairs", fails))

    fails = []
    for _ in range(trials):
        ctx = rng.choice(_CTXS)
        scale = rng.randint(0, 2)
        m = rng.randint(1, 2)
        pieces = [
            _unramified_binary(rng.choice((1, -1)), scale, ctx) for _ in range(m)
        ]
        b = pieces[0]
        for piece in pieces[1:]:
            b = direct_sum(b, piece)
        u = random_unimodular(b.n, ctx, rng)
        b = transform(b, u)
        g = gk(b)
        if len(set(g)) != 1:
            fails.append(f"constant invariant expected p={ctx.p}")
        want = 1 if b.n % 2 else zpow(xi(b), g[0])
        if eta(b) != want:
            fails.append(f"constant-type clifford value p={ctx.p}")
    out.append(_result("constant-type forms", fails))

    fails = []
    for _ in range(trials):
        n = rng.choice((2, 4))
        b = random_form(n, ctx2, rng, height=3)
        cert = reduce_form(b)
        total_odd = sum(cert.exps) % 2 == 1
        fixed2 = len(cert.gk_type.fixed) == 2
        ram = quad_ext(signed_disc(b), ctx2).d > 0
        zero = xi(b) == 0
        if not (total_odd == fixed2 == ram == zero):
            fails.append(f"parity equivalences n={n}")
    out.append(_result("even-size parity equivalences", fails))

    fails = []
    for _ in range(trials // 2):
        n = rng.randint(2, 4)
        b = random_form(n, ctx2, rng, height=2)
        u1 = random_unimodular(n, ctx2, rng)
        u2 = random_unimodular(n, ctx2, rng)
        r1 = reduce_form(transform(b, u1)).reduced
        r2 = reduce_form(transform(b, u2)).reduced
        exps = gk(b)
        for k in range(1, n):
            if exps[k - 1] < exps[k]:
                f1, f2 = leading(r1, k), leading(r2, k)
                if block_sign(f1) != block_sign(f2):
                    fails.append(f"leading block sign differs at k={k}")
    out.append(_result("leading-block signs stable across bases", fails))

    fails = []
    for _ in range(trials // 2):
        g = random_egk(rng, 3, 4, 6, parity="odd_total")
        exps = g.expand_exps()
        for sigma in standard_involutions(exps):
            b = synthesize_reduced(g, ctx2, sigma)
            if not check_inverse_bounds(b, GKType(exps, sigma)):
                fails.append(f"inverse bounds {g}")
    out.append(_result("exact-inverse valuation bounds", fails))

    fails = []
    for _ in range(trials // 2):
        g = random_egk(rng, 3, 3, 5)
        exps = g.expand_exps()
        sigma = rng.choice(standard_involutions(exps))
        gk_type = GKType(exps, sigma)
        r = synthesize_reduced(g, ctx2, sigma)
        t = _perturb_strictly(r, exps, rng)
        if not is_reduced(t, gk_type):
            fails.append(f"perturbation left the reduced set {g}")
            continue
        n = r.n
        if n % 2 == 0 and xi(t) != xi(r):
            fails.append(f"even-size sign moved {g}")
        if n % 2 == 1 and eta(t) != eta(r):
            fails.append(f"odd-size sign moved {g}")
        if n % 2 == 0 and xi(r) != 0 and eta(t) != eta(r):
            fails.append(f"clifford moved despite nonzero sign {g}")
    out.append(_result("signs stable under strict lattice perturbations", fails))
    return out


def _perturb_strictly(form: HalfIntegralForm, exps, rng) -> HalfIntegralForm:
    """Add a random symmetric matrix lying strictly inside the valuation
    lattice of ``exps`` >= 0 (each bound exceeded by at least one digit)."""
    n, den = form.n, form.den
    rows = [list(row) for row in form.rows]
    for i in range(n):
        rows[i][i] += rng.randint(0, 2) * den * 2 ** (exps[i] + 1)
        for j in range(i + 1, n):
            need = (exps[i] + exps[j]) // 2 + 1  # strict, so one digit above
            bump = rng.randint(0, 2) * den * 2 ** (need - 1)  # 2·bump has order need
            rows[i][j] += bump
            rows[j][i] += bump
    return _from_rows(rows, den, form.ctx)


def _unramified_binary(target_xi: int, scale: int, ctx: PrimeContext):
    """p^scale times a unimodular binary form whose discriminant indicator is
    ``target_xi`` (split or inert)."""
    if ctx.p == 2:
        return _from_rows(_unramified_pair(target_xi, scale), 2, ctx)
    u = 1 if target_xi == 1 else nonsquare_unit(ctx)
    return _from_rows([[ctx.p**scale, 0], [0, -u * ctx.p**scale]], 1, ctx)


# ---------------------------------------------------------------- egk

def egk_suite(trials: int = 80, seed: int = 5) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []
    ctx2 = PrimeContext(2)
    ctx3 = PrimeContext(3)

    fails = []
    for g in enumerate_egk(3, 4, 6):
        h = lift(g)
        if not validate_naive(h)[0] or collapse(h) != g:
            fails.append(f"{g}")
    out.append(_result("collapse inverts lift exhaustively", fails))

    fails = []
    for b in random_forms(rng, trials, (1, 4), height=3):
        if not validate_egk(egk_of(b))[0]:
            fails.append(f"axioms p={b.ctx.p}")
    out.append(_result("computed data satisfy the axioms", fails))

    fails = []
    for _ in range(trials):
        g = random_egk(rng, 3, 4, 6)
        h = lift(g)
        t = synthesize_nondyadic(h, ctx3)
        if naive_datum_of_diagonal(t) != h:
            fails.append(f"nondyadic synthesis {h}")
    out.append(_result("nondyadic synthesis realizes naive data", fails))

    fails = []
    for _ in range(trials):
        g = random_egk(rng, 3, 4, 6)
        if egk_of(synthesize_reduced(g, ctx2)) != g:
            fails.append(f"dyadic round trip {g}")
    out.append(_result("dyadic synthesis round trip", fails))

    fails = []
    for _ in range(trials):
        g = random_egk(rng, 2, 3, 5)
        exps = g.expand_exps()
        sigma = standard_involution(exps)
        b = synthesize_reduced(g, ctx2, sigma)
        n = b.n
        if n < 2:
            continue
        res = restrict(GKType(exps, sigma), n - 1)
        lead = leading(b, n - 1)
        if res is None or not lead.nondegenerate or not is_reduced(lead, res):
            continue  # the recursions presume a reduced leading block
        if n % 2 == 1 and sum(exps[: n - 1]) % 2 == 0:
            if eta(b) != eta(lead) * zpow(xi(lead), exps[-1]):
                fails.append(f"odd-size extension recursion {g}")
        if n % 2 == 0 and sum(exps) % 2 == 0:
            if eta(b) != eta(lead) * zpow(xi(b), exps[-1]):
                fails.append(f"even-size extension recursion {g}")
    out.append(_result("clifford recursions on synthesized families", fails))
    return out


# ---------------------------------------------------------------- oracle

def oracle_suite(trials: int = 40, seed: int = 6) -> list[CheckResult]:
    rng = random.Random(seed)
    out: list[CheckResult] = []

    fails = []
    for ctx in _CTXS:
        for _ in range(trials):
            a = _random_nonzero(rng, ctx)
            b = _random_nonzero(rng, ctx)
            if hilbert_symbol(a, b, ctx) != hilbert_brute(a, b, ctx):
                fails.append(f"p={ctx.p} {a},{b}")
    out.append(_result("hilbert brute agrees on random pairs", fails))

    fails = []
    for _ in range(trials):
        p = rng.choice((2, 3))
        ctx = PrimeContext(p)
        b = random_form(2, ctx, rng, height=2)
        if norm_ideal_ord(b) != 0:
            continue
        cls = classify_binary(b, check=False)
        if not (gk(b) == exhaustive_gk_binary(b) == cls.predicted_gk):
            fails.append(f"binary routes disagree p={p}")
    out.append(_result("binary ground truth triple agreement", fails))

    fails = []
    for b in random_forms(rng, trials, (1, 4), height=3):
        lo = gk_lower_search(b, SearchBudget(200, seed=rng.randrange(1 << 30)))
        if tuple(lo) > tuple(gk(b)):
            fails.append(f"lower bound exceeded p={b.ctx.p}")
    out.append(_result("sampled search never exceeds the invariant", fails))

    fails = []
    for b in random_forms(rng, trials, (1, 3), height=2):
        if greatest_in_s(b) != max(_enumerate_s(b, _det_cap(b))):
            fails.append(f"descending search misses the maximum p={b.ctx.p}")
    out.append(_result("greatest admissible sequence matches enumeration", fails))
    return out


SUITES = {
    "padic": lambda trials, seed: padic_suite(trials, seed) + qform_suite(max(trials // 3, 30), seed + 1),
    "reducer": lambda trials, seed: involution_suite()
    + reducer_suite(max(trials // 2, 30), seed + 2)
    + invariant_suite(max(trials // 2, 30), seed + 3)
    + oracle_suite(max(trials // 4, 20), seed + 4),
    "egk": lambda trials, seed: egk_suite(max(trials // 2, 40), seed + 5),
}


def run_suites(which: str = "all", trials: int = 120, seed: int = 0) -> list[CheckResult]:
    names = list(SUITES) if which == "all" else [which]
    results: list[CheckResult] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        results.extend(SUITES[name](trials, seed))
    return results
