"""Property test of the CLI's exit-code contract: whatever JSON reaches the
payload parsers of `compute`, `reduce` and `verify`, the command ends with
exit 0, 1 or 2 and exactly one JSON document on stdout, and no exception
escapes `main`."""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gkinv.cli import main  # noqa: E402

RATIONALS = ("0", "1", "-1", "2", "3", "4", "1/2", "-3/2", "5/4", "1/3")

scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-9, 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(RATIONALS + ("1/0", "x", "", " 2 ", "1.5", "--1")),
)
entry = st.one_of(scalar, st.lists(scalar, max_size=2))
ragged = st.lists(st.lists(entry, max_size=3), max_size=3)


def square(n, values=st.sampled_from(RATIONALS)):
    return st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def symmetric(draw, n=st.integers(0, 3)):
    """A well-shaped n x n symmetric matrix of small rational strings, n <= 3,
    so that the success paths run too."""
    m = draw(square(draw(n)))
    return [[m[min(i, j)][max(i, j)] for j in range(len(m))] for i in range(len(m))]


matrix = st.one_of(symmetric(), ragged, scalar)
prime = st.one_of(st.sampled_from((2, 3, 5, 7, "3", 1, 4, -5, 10**30)), scalar)
valid = st.fixed_dictionaries({"p": st.sampled_from((2, 3, 5)), "matrix": symmetric()})
form = st.one_of(
    valid,
    st.fixed_dictionaries({"p": prime, "matrix": matrix}),
    st.dictionaries(st.sampled_from(("p", "matrix", "x")), scalar, max_size=3),
)
payload = st.one_of(form, st.lists(form, max_size=3), scalar)


def certificate(n):
    """Certificates of the form's size n with small entries, which reach the
    verifier's checks, or anything at all."""
    shaped = st.fixed_dictionaries(
        {
            "U": square(n, st.sampled_from(("0", "1", "-1", "2", "1/2"))),
            "R": symmetric(st.just(n)),
            "ua": st.lists(st.integers(0, 3), min_size=n, max_size=n).map(sorted),
            "sigma": st.permutations(range(1, n + 1)),
        }
    )
    loose = st.fixed_dictionaries(
        {"U": matrix, "R": matrix, "ua": st.one_of(ragged, entry), "sigma": entry}
    )
    return st.one_of(shaped, loose, payload)


def run(argv, form, cert=None):
    """main(argv + inputs) on the payloads written to files; asserts the
    contract and returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["--input", os.path.join(tmp, "form.json")]
        with open(argv[-1], "w") as fh:
            json.dump(form, fh)
        if argv[0] == "verify":
            argv += ["--certificate", os.path.join(tmp, "cert.json")]
            with open(argv[-1], "w") as fh:
                json.dump(cert, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
    assert code in (0, 1, 2)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])
    return code


command = st.one_of(
    st.sampled_from(("gk", "xi", "eta", "delta", "egk")).map(
        lambda what: ["compute", "--what", what]
    ),
    st.just(["reduce"]),
    st.just(["verify"]),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(argv=command, form=st.one_of(valid, payload), cert=payload)
def test_cli_answers_any_payload_with_one_json_document(argv, form, cert):
    run(argv, form, cert)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(form=valid, draw=st.data())
def test_verify_answers_any_certificate_with_one_json_document(form, draw):
    run(["verify"], form, draw.draw(certificate(len(form["matrix"]))))
