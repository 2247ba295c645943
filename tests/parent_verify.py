"""The verifier as it was when ``is_admissible`` and ``is_standard`` built
their partition lists on every call, kept verbatim as references:
``verify_certificate`` with the type checks of that time, uncached.  The
library's ``is_standard`` reads one cached verdict per distinct (exps,
sigma); the tests compare its verdicts, and ``verify_certificate``'s
(ok, reason), with these."""

from operator import mul

from gkinv import linalg
from gkinv.forms import HalfIntegralForm, is_unimodular
from gkinv.involutions import Involution, _partition, is_involution
from gkinv.reducer import ReductionCertificate, is_reduced


def is_admissible(exps, sigma: Involution) -> bool:
    """The three pairing constraints on an involution for ``exps``."""
    exps = tuple(exps)
    n = len(exps)
    if len(sigma) != n or not is_involution(sigma):
        return False
    if any(exps[i] > exps[i + 1] for i in range(n - 1)):
        raise ValueError("exponent sequence must be non-decreasing")
    fixed, plus, minus = _partition(exps, sigma)

    # (i) at most two fixed points, of distinct exponent parity, each maximal
    # among fixed-or-raised exponents of its parity
    if len(fixed) > 2:
        return False
    if len(fixed) == 2 and (exps[fixed[0]] - exps[fixed[1]]) % 2 == 0:
        return False
    for i in fixed:
        pool = [exps[j] for j in fixed + plus if (exps[j] - exps[i]) % 2 == 0]
        if exps[i] != max(pool):
            return False

    # (ii) per block: at most one raised index, at most one lowered-or-fixed;
    # a block is a run of equal exponents, so no two may share an exponent
    for side in (plus, minus + fixed):
        if len({exps[i] for i in side}) < len(side):
            return False

    # (iii) cross-block pairs join nearest exponents of equal parity
    for i in minus:
        cands = [exps[j] for j in plus
                 if exps[j] > exps[i] and (exps[j] - exps[i]) % 2 == 0]
        if not cands or exps[sigma[i]] != min(cands):
            return False
    for i in plus:
        cands = [exps[j] for j in minus
                 if exps[j] < exps[i] and (exps[j] - exps[i]) % 2 == 0]
        if not cands or exps[sigma[i]] != max(cands):
            return False
    return True


def is_standard(exps, sigma: Involution) -> bool:
    """Admissible, with the normalized within-block layout: lowered or fixed
    indices last in their block, raised ones first, equal pairs adjacent (the
    matching of indices then follows from admissibility's, by exponent)."""
    if not is_admissible(exps, sigma):
        return False
    n = len(exps)
    for i, j in enumerate(sigma):
        a, b = exps[i], exps[j]
        if (i == j or a < b) and i + 1 < n and exps[i + 1] == a:
            return False
        if a > b and i and exps[i - 1] == a:
            return False
        if a == b and abs(i - j) > 1:
            return False
    return True


def verify_certificate(
    form: HalfIntegralForm, cert: ReductionCertificate
) -> tuple[bool, str]:
    """Independent check of a reduction certificate, on the integer rows y
    and column scales c of U and the integer rows of B and R; it runs no
    search code.  Never raises on bad certificates; returns (False, reason)."""
    exps, y, c = cert.gk_type.exps, cert.y, cert.c
    sizes = {len(exps), cert.reduced.n, len(y), len(c), *map(len, y)}
    if sizes != {form.n}:
        return False, "size mismatch"
    if cert.reduced.ctx != form.ctx:
        return False, "prime mismatch"
    if any(exps[i] > exps[i + 1] for i in range(len(exps) - 1)):
        return False, "exponents not non-decreasing"
    if any(a < 0 for a in exps):
        return False, "negative exponent"
    # each column of U = y·diag(c)^-1 is in lowest terms, so U is p-integral
    # iff p divides no c_j, and then det y = det U·prod(c) is a unit iff det U is
    if any(cj % form.ctx.p == 0 for cj in c) or not is_unimodular(y, form.ctx):
        return False, "transform is not unimodular"
    # t(U) B U = R as t(y)·(den·B)·y = den·diag(c)·R·diag(c), on integer rows;
    # both sides are symmetric once B and R are, so entries i <= j suffice:
    # row i of t(y)·(den·B) dotted with column j of y
    ri, dr = cert.reduced.rows, cert.reduced.den
    if any(tuple(map(tuple, m)) != tuple(zip(*m)) for m in (form.rows, ri)):
        return False, "matrix is not symmetric"
    yt = linalg.transpose(y)
    n, den = form.n, form.den
    for i, (ybi, rrow, ci) in enumerate(zip(linalg.matmul(yt, form.rows), ri, c)):
        k = den * ci
        for j in range(i, n):
            if sum(map(mul, ybi, yt[j])) * dr != k * rrow[j] * c[j]:
                return False, "transform does not map the source to the claimed matrix"
    if not is_standard(exps, cert.gk_type.sigma):
        return False, "involution is not standard"
    if not is_reduced(cert.reduced, cert.gk_type):
        return False, "matrix is not reduced for the claimed type"
    return True, "ok"
