from itertools import combinations_with_replacement

import pytest

from gkinv.involutions import (
    GKType,
    _partition,
    all_involutions,
    blocks,
    choice_block_count,
    is_admissible,
    is_involution,
    is_standard,
    plus_signature,
    restrict,
    standard_involution,
    standard_involutions,
)
from gkinv import involutions
from gkinv.linalg import identity
from gkinv.reducer import reduce_form
from test_kernel import dyadic_corpus, odd_corpus
from test_standard_layout import parent_standardize

PICTURE_EXPS = (0, 0, 0, 1, 2, 2, 2, 2, 3, 3, 5, 5, 6, 6, 6, 6, 7, 7, 7)
# pairing (1 2)(3 5)(4 17)(6 7)(8 13)(9 10)(11 12)(14 15)(18 19), 0-based
PICTURE_SIGMA = (1, 0, 4, 16, 2, 6, 5, 12, 9, 8, 11, 10, 7, 14, 13, 15, 3, 18, 17)


def test_blocks_examples():
    bl = blocks((0, 2, 2))
    assert bl.r == 2 and bl.sizes == (1, 2) and bl.values == (0, 2)
    bl = blocks((0,) * 5)
    assert bl.r == 1 and bl.sizes == (5,)
    assert blocks(PICTURE_EXPS).sizes == (3, 1, 4, 2, 2, 4, 3)
    with pytest.raises(ValueError):
        blocks((1, 0))


def test_picture_involution_is_standard():
    assert is_admissible(PICTURE_EXPS, PICTURE_SIGMA)
    assert is_standard(PICTURE_EXPS, PICTURE_SIGMA)
    assert PICTURE_SIGMA in standard_involutions(PICTURE_EXPS)
    assert choice_block_count(PICTURE_EXPS) == 4
    assert len(standard_involutions(PICTURE_EXPS)) == 16


def test_admissible_examples():
    assert is_admissible((0, 2, 2), (1, 0, 2))
    assert not is_admissible((0, 0), (0, 1))  # equal-parity fixed points
    assert is_admissible((0, 0), (1, 0))
    assert is_admissible((0, 1), (0, 1))


def test_standard_involutions_examples():
    assert standard_involutions((0, 2, 2)) == [(0, 2, 1), (1, 0, 2)]
    assert standard_involutions((0, 1)) == [(0, 1)]
    assert standard_involutions((0, 0)) == [(1, 0)]
    assert standard_involutions(()) == [()]


def reference_choice_blocks(bl):
    return [s for s in range(bl.r) if bl.sizes[s] % 2 == 0 and reference_k_s(bl, s) % 2 == 1]


def reference_k_s(bl, s):
    return sum(
        1
        for u in range(s)
        if (bl.values[u] - bl.values[s]) % 2 == 0 and bl.sizes[u] % 2 == 1
    )


def reference_standard_involutions(exps):
    """The earlier enumeration: the choice blocks from a pre-pass over the
    odd-sized blocks before each block, then one layout per mask."""
    exps = tuple(exps)
    bl = blocks(exps)
    choice_blocks = reference_choice_blocks(bl)
    out = []
    for mask in range(1 << len(choice_blocks)):
        chosen = {choice_blocks[t] for t in range(len(choice_blocks))
                  if mask >> t & 1}
        sigma = list(range(len(exps)))
        open_slot = {}
        for s in range(bl.r):
            par = bl.values[s] % 2
            if bl.sizes[s] % 2 == 1:
                has_plus = reference_k_s(bl, s) % 2 == 1
                has_dangler = not has_plus
            else:
                has_plus = has_dangler = s in chosen
            lo = bl.starts[s]
            hi = lo + bl.sizes[s] - 1
            if has_plus:
                d = open_slot.pop(par)
                sigma[d], sigma[lo] = lo, d
            first = lo + (1 if has_plus else 0)
            last = hi - (1 if has_dangler else 0)
            for i in range(first, last, 2):
                sigma[i], sigma[i + 1] = i + 1, i
            if has_dangler:
                open_slot[par] = hi
        out.append(tuple(sigma))
    return out


def test_scan_matches_the_reference_enumeration_exhaustively():
    """Every non-decreasing sequence of n <= 8 entries in 0..4: the same
    lists in the same order, K from the scan, and the first one alone."""
    sequences = 0
    for n in range(9):
        for exps in combinations_with_replacement(range(5), n):
            sequences += 1
            ref = reference_standard_involutions(exps)
            assert standard_involutions(exps) == ref, exps
            assert len(ref) == 2 ** choice_block_count(exps)
            assert standard_involution(exps) == ref[0]
    assert sequences == 1287


def test_restrict_examples():
    b1_type = GKType((0, 2, 2), (1, 0, 2))
    res = restrict(b1_type, 2)
    assert res is not None and res.exps == (0, 2) and res.sigma == (1, 0)
    b2_type = GKType((0, 2, 2), (0, 2, 1))
    assert restrict(b2_type, 2) is None
    assert restrict(b1_type, 3).sigma == b1_type.sigma


def standardize(exps, sigma):
    """Reference: the standard involution with sigma's plus-signature."""
    if not is_admissible(exps, sigma):
        raise ValueError("involution is not admissible for the exponents")
    sig = plus_signature(exps, sigma)
    for cand in standard_involutions(exps):
        if plus_signature(exps, cand) == sig:
            return cand
    raise AssertionError("no standard representative found")


def test_standardize_maps_to_signature_match():
    """The reordering pass the reducer once ran after the dyadic search, kept
    as the reference in test_standard_layout, permutes coordinates within
    blocks and gives the standard involution of the same plus-signature.  It
    moves every involution that is not standard, so the check there that it
    leaves the search's output as it is can fail."""
    moved = 0
    for exps in [(0, 0, 1, 1), (0, 1, 2), (0, 0, 2, 2), (1, 1, 1), (0, 0, 0, 1, 1),
                 (0, 1, 1, 1, 2, 2), (0, 0, 0, 2, 2, 2)]:
        n = len(exps)
        for sigma in all_involutions(n):
            if not is_admissible(exps, sigma):
                continue
            u = identity(n)
            std = parent_standardize(identity(n), u, exps, sigma)
            assert is_standard(exps, std)
            assert plus_signature(exps, std) == plus_signature(exps, sigma)
            assert std == standardize(exps, sigma)
            assert (std == sigma) == is_standard(exps, sigma)
            assert (u == identity(n)) == (std == sigma)
            moved += std != sigma
    assert moved >= 15


def test_census_small():
    for exps in [(0,), (0, 0), (0, 1), (0, 1, 2), (0, 0, 2, 2), (1, 1, 1)]:
        stds = standard_involutions(exps)
        assert len(stds) == 2 ** choice_block_count(exps)
        sigs = {
            plus_signature(exps, s)
            for s in all_involutions(len(exps))
            if is_admissible(exps, s)
        }
        assert sigs == {plus_signature(exps, s) for s in stds}


def test_gk_type_rejects_inadmissible():
    with pytest.raises(ValueError):
        GKType((0, 0), (0, 1))


def reference_is_standard(exps, sigma):
    """The earlier definition, which re-derived the fixed-point maximum and
    the lowered/raised matching by index after ``is_admissible``."""
    if not is_admissible(exps, sigma):
        return False
    exps = tuple(exps)
    bl = blocks(exps)
    fixed, plus, minus = _partition(exps, sigma)

    def block_of(i):
        return next(s for s in range(bl.r) if i in bl.indices(s))

    for i in fixed + minus:
        s = block_of(i)
        if i != bl.starts[s] + bl.sizes[s] - 1:
            return False
    for i in fixed:
        pool = [j for j in fixed + plus if (exps[j] - exps[i]) % 2 == 0]
        if i != max(pool):
            return False
    for i in plus:
        s = block_of(i)
        if i != bl.starts[s]:
            return False
    for i in minus:
        cands = [j for j in plus if j > i and (exps[j] - exps[i]) % 2 == 0]
        if sigma[i] != min(cands):
            return False
    for i in plus:
        cands = [j for j in minus if j < i and (exps[j] - exps[i]) % 2 == 0]
        if sigma[i] != max(cands):
            return False
    for i in range(len(exps)):
        if sigma[i] != i and exps[i] == exps[sigma[i]] and abs(i - sigma[i]) > 1:
            return False
    return True


def _layout_faults(exps, sigma):
    """Which layout rules an involution breaks: a lowered or fixed index not
    last in its block, a raised index not first, an equal pair apart."""
    n, faults = len(exps), set()
    for i, j in enumerate(sigma):
        if (i == j or exps[i] < exps[j]) and i + 1 < n and exps[i + 1] == exps[i]:
            faults.add("not last")
        if exps[i] > exps[j] and i and exps[i - 1] == exps[i]:
            faults.add("not first")
        if exps[i] == exps[j] and abs(i - j) > 1:
            faults.add("apart")
    return faults


def test_is_standard_matches_the_reference_exhaustively():
    """Every involution of n <= 7 points against every non-decreasing
    exponent sequence with entries in 0..3: 36,135 pairs."""
    pairs = standard = 0
    rejected = {"not last": 0, "not first": 0, "apart": 0}
    for n in range(8):
        involutions = all_involutions(n)
        for exps in combinations_with_replacement(range(4), n):
            for sigma in involutions:
                pairs += 1
                verdict = is_standard(exps, sigma)
                assert verdict == reference_is_standard(exps, sigma), (exps, sigma)
                standard += verdict
                if is_admissible(exps, sigma) and not verdict:
                    faults = _layout_faults(exps, sigma)
                    assert faults
                    for fault in faults:
                        rejected[fault] += 1
    assert pairs == 36_135
    assert standard and all(rejected.values()), (standard, rejected)


def parent_is_admissible(exps, sigma):
    """``is_admissible`` as it was when it built its sets of raised and
    lowered-or-fixed indices once per block, kept verbatim as the reference."""
    exps = tuple(exps)
    n = len(exps)
    if len(sigma) != n or not is_involution(sigma):
        return False
    bl = blocks(exps)
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

    # (ii) per block: at most one raised index, at most one lowered-or-fixed
    for s in range(bl.r):
        idx = set(bl.indices(s))
        if len(idx & set(plus)) > 1:
            return False
        if len(idx & (set(minus) | set(fixed))) > 1:
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


def test_is_admissible_matches_the_parent_exhaustively():
    """Every involution of n <= 6 points against every non-decreasing
    exponent sequence with entries in 0..4."""
    pairs = admissible = 0
    for n in range(7):
        involutions = all_involutions(n)
        for exps in combinations_with_replacement(range(5), n):
            for sigma in involutions:
                verdict = is_admissible(exps, sigma)
                assert verdict == parent_is_admissible(exps, sigma), (exps, sigma)
                pairs += 1
                admissible += verdict
    assert pairs == 20_112 and 0 < admissible < pairs, admissible
    # a decreasing sequence raises, as blocks() raised in the parent, once
    # sigma is an involution of the right length
    for exps in ((1, 0), (0, 2, 1), (3, 3, 2, 4)):
        for sigma in all_involutions(len(exps)):
            for check in (is_admissible, parent_is_admissible):
                with pytest.raises(ValueError, match="non-decreasing"):
                    check(exps, sigma)
        assert not is_admissible(exps, (0,) * len(exps))


def test_blocks_runs_once_per_odd_reduction(monkeypatch):
    """The Jordan split's ``standard_involution`` reads the blocks of its
    exponents; the verifier's ``is_standard`` reads none, so ``blocks`` runs
    once per odd-p ``reduce_form`` and never in a dyadic one."""
    calls = []

    def counted(exps):
        calls.append(exps)
        return blocks(exps)

    monkeypatch.setattr(involutions, "blocks", counted)
    for forms, want in ((odd_corpus(), 1), (dyadic_corpus(10), 0)):
        for form in forms:
            calls.clear()
            reduce_form(form)
            assert len(calls) == want, form.rows
