"""Block structure of exponent sequences, admissible involutions, GK types.

An involution pairs coordinates of a non-decreasing exponent sequence.
Admissibility is the paper's three conditions: (i) at most two fixed points,
of opposite parity, each maximal among fixed-or-raised exponents of its
parity; (ii) per block, at most one raised and one lowered-or-fixed index;
(iii) a lowered index pairs with the least raised exponent of its parity
above it, a raised one with the greatest lowered one below it.  Within each
equivalence class under block-preserving relabelling there is a unique
standard representative.  Both verdicts, admissible and standard, depend on
(exps, sigma) alone and are computed once per distinct pair
(``_type_verdict``, which skips the parts of (i) and (iii) that the rest
implies), since a batch of certificates repeats its GK types.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

Involution = tuple[int, ...]  # sigma[i] = partner of i, 0-based, sigma o sigma = id


@dataclass(frozen=True)
class BlockStructure:
    """Maximal runs of equal exponents: sizes, prefix sums, values, index sets."""

    sizes: tuple[int, ...]
    starts: tuple[int, ...]  # 0-based start of each block
    values: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.sizes)

    def indices(self, s: int) -> range:
        return range(self.starts[s], self.starts[s] + self.sizes[s])


def blocks(exps) -> BlockStructure:
    exps = tuple(exps)
    if any(exps[i] > exps[i + 1] for i in range(len(exps) - 1)):
        raise ValueError("exponent sequence must be non-decreasing")
    sizes, starts, values = [], [], []
    i = 0
    while i < len(exps):
        j = i
        while j < len(exps) and exps[j] == exps[i]:
            j += 1
        sizes.append(j - i)
        starts.append(i)
        values.append(exps[i])
        i = j
    return BlockStructure(tuple(sizes), tuple(starts), tuple(values))


def _partition(exps, sigma: Involution):
    """Index sets: fixed points, raised side and lowered side of the pairing."""
    fixed = [i for i in range(len(exps)) if sigma[i] == i]
    plus = [i for i in range(len(exps)) if exps[i] > exps[sigma[i]]]
    minus = [i for i in range(len(exps)) if exps[i] < exps[sigma[i]]]
    return fixed, plus, minus


def is_involution(sigma: Involution) -> bool:
    n = len(sigma)
    return sorted(sigma) == list(range(n)) and all(sigma[sigma[i]] == i for i in range(n))


# the most (exps, sigma) pairs whose verdict ``_type_verdict`` keeps: a batch
# of certificates repeats its GK types, a few hundred distinct ones among
# thousands of certificates
TYPE_CACHE_SIZE = 4096

_NOT_ADMISSIBLE, _ADMISSIBLE, _STANDARD = 0, 1, 2


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _type_verdict(exps: tuple[int, ...], sigma: Involution) -> int:
    """_NOT_ADMISSIBLE, _ADMISSIBLE or _STANDARD: the pairing constraints and the
    standard layout of an involution for ``exps``, computed once per distinct
    pair.  A decreasing ``exps`` raises ValueError each time, as a raising
    call leaves nothing in the cache."""
    n = len(exps)
    if len(sigma) != n or not is_involution(sigma):
        return _NOT_ADMISSIBLE
    if any(exps[i] > exps[i + 1] for i in range(n - 1)):
        raise ValueError("exponent sequence must be non-decreasing")
    fixed, plus, minus = _partition(exps, sigma)

    # (i) each fixed point is maximal among fixed-or-raised ones of its parity;
    # two of one parity then share an exponent, which (ii) rejects
    for i in fixed:
        pool = [exps[j] for j in fixed + plus if (exps[j] - exps[i]) % 2 == 0]
        if exps[i] != max(pool):
            return _NOT_ADMISSIBLE

    # (ii) per block: at most one raised index, at most one lowered-or-fixed;
    # a block is a run of equal exponents, so no two may share an exponent
    for side in (plus, minus + fixed):
        if len({exps[i] for i in side}) < len(side):
            return _NOT_ADMISSIBLE

    # (iii) each lowered index pairs with the least raised exponent of its parity
    # above it; with (ii), each raised one then has the greatest lowered below it
    for i in minus:
        cands = [exps[j] for j in plus
                 if exps[j] > exps[i] and (exps[j] - exps[i]) % 2 == 0]
        if not cands or exps[sigma[i]] != min(cands):
            return _NOT_ADMISSIBLE

    # the standard layout: lowered or fixed indices last in their block, raised
    # ones first, equal pairs adjacent
    for i, j in enumerate(sigma):
        a, b = exps[i], exps[j]
        if (i == j or a < b) and i + 1 < n and exps[i + 1] == a:
            return _ADMISSIBLE
        if a > b and i and exps[i - 1] == a:
            return _ADMISSIBLE
        if a == b and abs(i - j) > 1:
            return _ADMISSIBLE
    return _STANDARD


def is_admissible(exps, sigma: Involution) -> bool:
    """The three pairing constraints on an involution for ``exps``."""
    return _type_verdict(tuple(exps), tuple(sigma)) != _NOT_ADMISSIBLE


def is_standard(exps, sigma: Involution) -> bool:
    """Admissible, with the normalized within-block layout: lowered or fixed
    indices last in their block, raised ones first, equal pairs adjacent (the
    matching of indices then follows from admissibility's, by exponent).
    Both verdicts are one entry of ``_type_verdict``'s cache."""
    return is_admissible(exps, sigma) and _type_verdict(tuple(exps), tuple(sigma)) == _STANDARD


@dataclass(frozen=True)
class GKType:
    """A non-decreasing exponent sequence with an admissible involution."""

    exps: tuple[int, ...]
    sigma: Involution

    def __post_init__(self) -> None:
        if not is_admissible(self.exps, self.sigma):
            raise ValueError("involution is not admissible for the exponents")

    @classmethod
    def _of(cls, exps, sigma) -> GKType:
        """Unchecked: ``reduce_form``'s verifier runs ``is_standard`` on it."""
        t = cls.__new__(cls)
        t.__dict__.update(exps=exps, sigma=sigma)
        return t

    @property
    def n(self) -> int:
        return len(self.exps)

    @property
    def fixed(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if self.sigma[i] == i)

    @property
    def total(self) -> int:
        return sum(self.exps)

    @property
    def standard(self) -> bool:
        return is_standard(self.exps, self.sigma)


def _scan(bl: BlockStructure, mask: int) -> tuple[Involution, int]:
    """One standard involution and the count K of choice blocks, from one
    left-to-right pass keeping the open dangling index of each exponent
    parity.  An odd-sized block raises its first index against the open slot
    of its parity, or else dangles its last.  An even-sized block that meets
    an open slot is a choice block: bit t of ``mask`` makes the t-th do both
    or neither.  The rest of each block is adjacent equal pairs."""
    sigma = list(range(sum(bl.sizes)))
    open_slot: dict[int, int] = {}  # exponent parity -> dangling index
    k = 0
    for size, lo, value in zip(bl.sizes, bl.starts, bl.values):
        par = value % 2
        if size % 2:
            raises = par in open_slot
            dangles = not raises
        elif par in open_slot:
            raises = dangles = bool(mask >> k & 1)
            k += 1
        else:
            raises = dangles = False
        hi = lo + size - 1
        if raises:
            d = open_slot.pop(par)
            sigma[d], sigma[lo] = lo, d
        for i in range(lo + raises, hi - dangles, 2):
            sigma[i], sigma[i + 1] = i + 1, i
        if dangles:
            open_slot[par] = hi
    return tuple(sigma), k


def choice_block_count(exps) -> int:
    """K: the number of even-sized blocks that meet an open slot of their
    exponent parity.  Standard involutions number 2^K."""
    return _scan(blocks(exps), 0)[1]


def standard_involution(exps) -> Involution:
    """The first standard involution for ``exps``, every choice block laid
    out as adjacent pairs: the one the reducers attach."""
    return _scan(blocks(exps), 0)[0]


def standard_involutions(exps) -> list[Involution]:
    """Complete duplicate-free list of the 2^K standard involutions for
    ``exps``, one scan per choice mask, in mask order."""
    bl = blocks(exps)
    return [_scan(bl, mask)[0] for mask in range(1 << _scan(bl, 0)[1])]


def plus_signature(exps, sigma: Involution) -> tuple[int, ...]:
    """Per-block count of raised indices; a complete class invariant."""
    _, plus, _ = _partition(exps, sigma)
    raised = [exps[i] for i in plus]
    return tuple(raised.count(v) for v in blocks(exps).values)


def restrict(gk_type: GKType, k: int) -> GKType | None:
    """Truncate to the first k coordinates, dropping pairs that cross the cut;
    None when the truncated involution stops being admissible."""
    if not 1 <= k <= gk_type.n:
        raise ValueError(f"restriction length {k} out of range")
    sigma_k = tuple(
        i if gk_type.sigma[i] >= k else gk_type.sigma[i] for i in range(k)
    )
    exps_k = gk_type.exps[:k]
    if not is_admissible(exps_k, sigma_k):
        return None
    return GKType(exps_k, sigma_k)


def all_involutions(n: int) -> list[Involution]:
    """Every involution of n points (test support; n stays small)."""
    out: list[Involution] = []

    def rec(sigma: list[int], free: list[int]) -> None:
        if not free:
            out.append(tuple(sigma))
            return
        i = free[0]
        rec(sigma, free[1:])  # i fixed
        for j in free[1:]:
            sigma[i], sigma[j] = j, i
            rec(sigma, [x for x in free[1:] if x != j])
            sigma[i], sigma[j] = i, j

    rec(list(range(n)), list(range(n)))
    return out
