"""Seeded input generators for the four workloads.

Each generator is a pure function of its seed and size: the same arguments
give the same items in the same order.  An item is ``(payload, expected)``:
the payload is what the program receives, in the CLI's JSON form with exact
rational strings, and ``expected`` is the answer fixed by construction or by
a reference computation that shares no code with the reducer.

Shapes (prime, size) repeat in a fixed cycle, so every seed gives the same
mix of sizes and only the random entries change with the seed; the cycle
length is returned so that traced and untraced halves of a run can take
whole cycles each.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from measure import ensure_src

ensure_src()

from gkinv.egk import lift, random_egk, synthesize_nondyadic, synthesize_reduced  # noqa: E402
from gkinv.forms import random_form, random_unimodular  # noqa: E402
from gkinv.involutions import standard_involutions  # noqa: E402
from gkinv.padic import PrimeContext  # noqa: E402

# Size mixes put the median and the 90th percentile of per-form latency
# inside one size class that holds many of the forms, never on the boundary
# between two, where a small change in the random forms would move them a
# long way.
DYADIC_SHAPES = tuple((2, n) for n in (5, 6, 6, 6, 6))
ODD_SHAPES = ((3, 6), (5, 6), (3, 8), (5, 6), (3, 6), (5, 8))
VERIFY_SHAPES = tuple((p, n) for n in range(2, 9) for p in (2, 3))
CLI_SHAPES = tuple((p, n) for n in (3, 4, 4, 4, 4) for p in (2, 3, 5, 7))
TAMPER_RATE = 0.25
SCRAMBLE_STEPS = 12
VERIFY_FORMS_PER_BASE = 8


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_matrix(m) -> list[list[str]]:
    return [[fmt(x) for x in row] for row in m]


def congruence(b, u):
    """t(U) B U for rational B and integral U, in integers over B's common
    denominator; the benchmark's own, so that inputs and expected answers
    never pass through the program's linalg."""
    n = len(u)
    den = math.lcm(*(Fraction(x).denominator for row in b for x in row))
    bi = [[int(Fraction(x) * den) for x in row] for row in b]
    ui = [[int(x) for x in row] for row in u]
    bu = [[sum(bi[i][k] * ui[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [
        [Fraction(sum(ui[k][i] * bu[k][j] for k in range(n)), den) for j in range(n)]
        for i in range(n)
    ]


def _datum(rng: random.Random, n: int, max_r: int = 4, max_m: int = 8):
    """random_egk conditioned on total size n."""
    while True:
        g = random_egk(rng, max_r=max_r, max_m=max_m, max_n=max(n, 1))
        if g.n == n:
            return g


def _realize(g, ctx: PrimeContext):
    """A form realizing datum g, reduced for its first standard involution."""
    if ctx.p == 2:
        return synthesize_reduced(g, ctx)
    return synthesize_nondyadic(lift(g), ctx)


def _expected_datum(g) -> dict:
    exps = list(g.expand_exps())
    return {
        "exps": exps,
        "delta": sum(exps),
        "egk": [list(g.sizes), list(g.exps), list(g.zeta)],
    }


def _scrambled(rng: random.Random, shapes, count: int) -> list:
    items = []
    for k in range(count):
        p, n = shapes[k % len(shapes)]
        ctx = PrimeContext(p)
        g = _datum(rng, n)
        r = _realize(g, ctx)
        u = random_unimodular(n, ctx, rng, steps=SCRAMBLE_STEPS)
        b = congruence(r.entries, u)
        items.append(({"p": p, "matrix": fmt_matrix(b)}, _expected_datum(g)))
    return items


def dyadic_scrambled(seed: int, count: int) -> list:
    """random_egk (<=4 blocks, exponents <=8) -> synthesize_reduced ->
    random_unimodular(steps=12), with n = 5, 6, 6, 6, 6 in turn."""
    return _scrambled(random.Random(f"dyadic_scrambled/{seed}"), DYADIC_SHAPES, count)


def cli_batch(seed: int, count: int) -> list:
    """Small scrambled forms, n = 3, 4, 4, 4, 4 in turn, each for p = 2, 3, 5,
    7."""
    return _scrambled(random.Random(f"cli_batch/{seed}"), CLI_SHAPES, count)


def _ord(x: Fraction, p: int) -> int:
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def elementary_exponents(rows, p: int) -> list[int]:
    """Sorted p-adic orders of the elementary divisors over Z_(p).

    For odd p these are the Jordan exponents, hence the GK invariant.  The
    computation is a plain Smith reduction with minimal-order pivots, kept
    apart from the reducer so that it can serve as the expected answer.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = []
    for k in range(n):
        v, i, j = min(
            (_ord(a[i][j], p), i, j)
            for i in range(k, n)
            for j in range(k, n)
            if a[i][j] != 0
        )
        a[k], a[i] = a[i], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        piv = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / piv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        out.append(v)
    return sorted(out)


def odd_random(seed: int, count: int) -> list:
    """random_form at height 6, p in {3, 5}, two thirds of them n = 6 and
    the rest n = 8."""
    rng = random.Random(f"odd_random/{seed}")
    items = []
    for k in range(count):
        p, n = ODD_SHAPES[k % len(ODD_SHAPES)]
        form = random_form(n, PrimeContext(p), rng, height=6)
        exps = elementary_exponents(form.entries, p)
        payload = {"p": p, "matrix": fmt_matrix(form.entries)}
        items.append((payload, {"exps": exps, "delta": sum(exps)}))
    return items


def unimodular_pair(n: int, p: int, rng: random.Random, steps: int, height: int = 2):
    """Integer V with det +-1 and its inverse W, from swaps, sign changes and
    shears (the moves of random_unimodular, with unit scalings restricted to
    -1 so that W stays integral)."""
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    w = [[int(i == j) for j in range(n)] for i in range(n)]
    bound = p**height
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0 and i != j:  # V <- V P, W <- P W
            for row in v:
                row[i], row[j] = row[j], row[i]
            w[i], w[j] = w[j], w[i]
        elif kind == 1:  # V <- V D, W <- D W with D = diag(.., -1, ..)
            for row in v:
                row[i] = -row[i]
            w[i] = [-x for x in w[i]]
        elif i != j:  # col_j(V) += x col_i(V), row_i(W) -= x row_j(W)
            x = rng.randint(-bound, bound)
            for row in v:
                row[j] += x * row[i]
            w[i] = [a - x * b for a, b in zip(w[i], w[j])]
    return v, w


def _tamper(rng: random.Random, b, r, u, p: int):
    """Change one entry of R (a diagonal entry) or of U so that the claim
    B[U] = R fails; returns the new (R, U)."""
    n = len(r)
    if rng.random() < 0.5:
        i = rng.randrange(n)
        r2 = [row[:] for row in r]
        r2[i][i] += p ** rng.randrange(3)
        return r2, u
    while True:
        i, j = rng.randrange(n), rng.randrange(n)
        u2 = [row[:] for row in u]
        u2[i][j] += rng.choice((-1, 1)) * p ** rng.randrange(2)
        if congruence(b, u2) != r:
            return r, u2


def verify_invariants(seed: int, count: int) -> list:
    """Scrambled forms B = R[V^-1] with the certificate (V, R, first standard
    involution) known by construction; about a quarter of the certificates
    get one entry of R or U changed.  One synthesized R serves several
    scramblings, each a distinct form."""
    rng = random.Random(f"verify_invariants/{seed}")
    items = []
    for k in range(count):
        p, n = VERIFY_SHAPES[(k // VERIFY_FORMS_PER_BASE) % len(VERIFY_SHAPES)]
        if k % VERIFY_FORMS_PER_BASE == 0:
            g = _datum(rng, n)
            r = [list(row) for row in _realize(g, PrimeContext(p)).entries]
            exps = list(g.expand_exps())
            sigma = [s + 1 for s in standard_involutions(exps)[0]]
        v, w = unimodular_pair(n, p, rng, SCRAMBLE_STEPS)
        b = congruence(r, w)
        genuine = rng.random() >= TAMPER_RATE
        r_cert, u_cert = (r, v) if genuine else _tamper(rng, b, r, v, p)
        cert = {"U": fmt_matrix(u_cert), "R": fmt_matrix(r_cert), "ua": exps, "sigma": sigma}
        payload = {"p": p, "matrix": fmt_matrix(b), "cert": cert}
        expected = {
            "genuine": genuine,
            "exps": exps,
            "delta": sum(exps),
            # the whole form is the last block's leading subform
            "zeta_last": g.zeta[-1],
        }
        items.append((payload, expected))
    return items


GENERATORS = {
    "dyadic_scrambled": (dyadic_scrambled, len(DYADIC_SHAPES)),
    "odd_random": (odd_random, len(ODD_SHAPES)),
    "verify_invariants": (verify_invariants, len(VERIFY_SHAPES) * VERIFY_FORMS_PER_BASE),
    "cli_batch": (cli_batch, len(CLI_SHAPES)),
}


def pool_size(workload: str, seconds: float, min_samples: int) -> int:
    """Forms generated for one run: the run measures for ``seconds`` and
    stops early only if a much faster program exhausts the pool."""
    rate = {
        "dyadic_scrambled": 50,
        "odd_random": 40,
        "verify_invariants": 650,
        "cli_batch": 300,
    }[workload]
    return max(2 * min_samples, math.ceil(rate * seconds))
