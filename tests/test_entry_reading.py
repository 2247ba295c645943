"""Each entry point reads every matrix entry once, as ``Fraction()`` reads it.

``parent_parse`` keeps the readers that built a Fraction matrix first and read
it a second time.  ``linalg.mat`` and the four entry points (``validate_form``,
``transform``, ``in_gk_group`` and the public ``ReductionCertificate``) give
the value of ``Fraction(x)``, or raise its exception type with its message,
on an edge list of entries, and the references' value or exception on edge
shapes and on random matrices."""

import random
import sys
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import parent_parse as ref
import pytest

from gkinv import forms, linalg
from gkinv.forms import FormError, _from_rows, in_gk_group, transform, validate_form
from gkinv.involutions import GKType
from gkinv.padic import PrimeContext
from gkinv.reducer import ReductionCertificate

CTX3 = PrimeContext(3)

ENTRIES = [
    "12", " -7 ", "+3", "-0", "1_000", "1__0", "_1", "١٢", "6/8",
    " -7/14 ", "1.5", "1e3", "0x10", "", "abc", "x", "1/0",
    0.5, Decimal("2.5"), True, None, 7, Fraction(3, 4),
]
SHAPES = [
    [[1, 2], [3]], [[1], [2, 3]], [], [[]], [[], []], [[1, 2]],
    [["1", "x"], ["2"]], [["1/2", 0], [0]], [(1, "1/3"), ("1/3", 1)],
]


def _identity_form(n):
    return _from_rows(linalg.identity(n), 1, CTX3)


def _size(m):
    return len(m) if isinstance(m, (list, tuple)) else 1


ENTRY_POINTS = {
    "mat": linalg.mat,
    "validate_form": lambda m: validate_form(m, CTX3),
    "transform": lambda m: transform(_identity_form(_size(m)), m),
    "in_gk_group": lambda m: in_gk_group(m, range(_size(m)), CTX3),
    "ReductionCertificate": lambda m: ReductionCertificate(
        m, _identity_form(_size(m)), GKType._of((0,) * _size(m), tuple(range(_size(m))))
    ),
}


def outcome(f, *args):
    """("value", what f returns, with each entry's type) or (type, message)."""
    try:
        v = f(*args)
    except Exception as e:
        return type(e), str(e)
    if isinstance(v, forms.HalfIntegralForm):
        return "value", (v.ctx.p, v.rows, v.den)
    if isinstance(v, ReductionCertificate):
        return "value", (v.y, v.c)
    if isinstance(v, tuple):
        return "value", [[(type(x), x) for x in row] for row in v]
    return "value", v


@contextmanager
def parent_readers():
    """The entry points as they read a matrix before: ``_scaled(mat(x))`` and
    the reference ``_from_rows``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_scaled", lambda m: ref._scaled(ref.mat(m)))
        mp.setattr(forms, "_from_rows", ref._from_rows)
        yield


def _placements(x):
    return [[[x]], [[x, 1], [1, x]], [[1, x], [0, 2]]]


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("x", ENTRIES, ids=repr)
def test_an_entry_reads_as_fraction_reads_it(name, x):
    f = ENTRY_POINTS[name]
    want_entry = outcome(Fraction, x)
    for m in _placements(x):
        got = outcome(f, m)
        if want_entry[0] == "value":
            assert got == outcome(f, [[want_entry[1] if y is x else y for y in row] for row in m])
        else:
            assert got == want_entry, (name, m)
        with parent_readers():
            assert got == outcome(f, m), (name, m)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("m", SHAPES + [None, [None], [[1, None]]], ids=repr)
def test_a_shape_reads_as_the_reference_reads_it(name, m):
    f = ENTRY_POINTS[name]
    got = outcome(f, m)
    with parent_readers():
        assert got == outcome(f, m)


def test_the_edge_list_reaches_each_outcome():
    """The list holds strings that only ``Fraction()`` reads, strings that
    neither reads, and, on Python 3.10, "1_000", which ``int()`` reads and
    ``Fraction()`` refuses."""
    got = {s: outcome(linalg.mat, [[s]]) for s in ENTRIES if isinstance(s, str)}
    assert got["x"] == (ValueError, "Invalid literal for Fraction: 'x'")
    assert got["1/0"][0] is ZeroDivisionError
    assert outcome(linalg.mat, [[None]])[0] is TypeError
    assert got["6/8"] == ("value", [[(Fraction, Fraction(3, 4))]])
    assert got["١٢"] == ("value", [[(Fraction, Fraction(12))]])
    if sys.version_info < (3, 11):
        assert got["1_000"][0] is ValueError
    ragged = outcome(ENTRY_POINTS["validate_form"], [[1, 2], [3]])
    assert ragged == (FormError, "matrix is not square")


def _characters():
    """Every character that ``int()`` or ``Fraction()`` might treat apart:
    ASCII, and each Unicode digit, numeric and space character."""
    for c in map(chr, range(sys.maxunicode + 1)):
        if c.isascii() or c.isspace() or c.isdigit() or c.isnumeric():
            yield c


def test_every_digit_and_space_reads_as_fraction_reads_it():
    for c in _characters():
        for s in (c, "1" + c, c + "1", "1" + c + "1", "-" + c + "/2"):
            assert outcome(linalg.mat, [[s]]) == outcome(ref.mat, [[s]]), repr(s)


def _unit(p):
    return next(u for u in (7, 5, 3) if u % p)


def _entry(rng, x: Fraction):
    """x as a Fraction, an int, or one of the strings that reads as x."""
    kind = rng.randrange(4)
    if kind == 0:
        return x
    if kind == 1 and x.denominator == 1:
        return int(x)
    if kind == 2:
        return f" {x.numerator * 2}/{x.denominator * 2} "
    return str(x)


def _random_matrix(rng, p):
    n = rng.randint(1, 5)
    den = rng.choice((1, _unit(p), p, p * _unit(p), p * p))
    g = rng.choice((1, 1, p, 2, _unit(p)))
    a = [[g * rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    kind = rng.choice(("symmetric", "asymmetric", "half"))
    if kind != "asymmetric":
        a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind == "half":  # entries of one den, p-integral only when den is a unit
        return [[_entry(rng, Fraction(x, den)) for x in row] for row in a]
    # the diagonal over den, the rest over 2·den
    return [
        [_entry(rng, Fraction(x, den if i == j else 2 * den)) for j, x in enumerate(row)]
        for i, row in enumerate(a)
    ]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_random_matrices_read_as_the_references_read_them(p):
    rng, ctx = random.Random(p), PrimeContext(p)
    seen = set()
    for _ in range(1500):
        m = _random_matrix(rng, p)
        got = linalg._scaled(m)
        assert got == ref._scaled(ref.mat(m)) and linalg.mat(m) == ref.mat(m)
        assert linalg.lowest(*got) == ref.lowest(*got)
        form = outcome(_from_rows, *got, ctx)
        assert form == outcome(ref._from_rows, *got, ctx), m
        assert outcome(validate_form, m, ctx) == outcome(ref._from_rows, *got, ctx)
        seen.add(form[0] if form[0] == "value" else form[1].split(" (")[0].removesuffix(" at"))
    assert seen == {
        "value",
        "matrix is not symmetric",
        "diagonal entry",
        "doubled entry",
    }


@pytest.mark.parametrize("p", (2, 3, 5))
def test_ragged_transforms_read_as_the_references_read_them(p):
    """``transform`` and ``in_gk_group`` on random U, ragged among them."""
    rng, ctx = random.Random(10 + p), PrimeContext(p)
    form = _from_rows(linalg.identity(3), 1, ctx)
    for _ in range(300):
        lengths = [3] * rng.randint(2, 4) if rng.random() < 0.3 else [
            rng.randint(0, 4) for _ in range(rng.randint(0, 4))
        ]
        dens = (1, p, _unit(p))
        u = [
            [_entry(rng, Fraction(rng.randint(-4, 4), rng.choice(dens))) for _ in range(k)]
            for k in lengths
        ]
        exps = sorted(rng.randint(0, 2) for _ in range(len(u)))
        got = outcome(transform, form, u), outcome(in_gk_group, u, exps, ctx)
        with parent_readers():
            assert got == (outcome(transform, form, u), outcome(in_gk_group, u, exps, ctx)), u
