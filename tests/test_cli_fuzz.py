"""Property test of the CLI's exit-code contract: whatever JSON reaches the
payload parsers of `compute`, `reduce`, `verify` and `synth`, the command
ends with exit 0, 1 or 2 and exactly one JSON document on stdout, and no
exception escapes `main`."""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gkinv.cli import main  # noqa: E402
from gkinv.egk import random_egk  # noqa: E402

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
    files = {"--input": form}
    if argv[0] == "verify":
        files["--certificate"] = cert
    return run_files(argv, files)


def run_files(argv, files):
    """main(argv) with each payload of ``files`` written to a file passed
    after its flag; asserts the contract and returns the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        for k, (flag, payload) in enumerate(files.items()):
            argv = argv + [flag, os.path.join(tmp, f"{k}.json")]
            with open(argv[-1], "w") as fh:
                json.dump(payload, fh)
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


# Values a JSON integer field must reject, not truncate.
junk = st.sampled_from((float("inf"), float("-inf"), float("nan"), 2.0, 2.9, True, "2", None))


@st.composite
def synth_inputs(draw):
    """A valid datum of at most 4 coordinates (p = 2 or 3) and a permutation
    as --sigma, or none.  Half the time one field or entry is spoiled by a
    junk value; a quarter of the time either file holds any payload at all.
    Returns the two payloads and whether one of them is spoiled."""
    g = random_egk(random.Random(draw(st.integers(0, 2**16))), max_r=3, max_m=4, max_n=4)
    datum = {"p": draw(st.sampled_from((2, 3))), "n": list(g.sizes), "m": list(g.exps)}
    datum["zeta"] = list(g.zeta)
    sig = draw(st.one_of(st.none(), st.permutations(range(1, g.n + 1)).map(list)))
    spoiled = draw(st.booleans())
    if spoiled:
        key = draw(st.sampled_from(("p", "n", "m", "zeta", "sigma")))
        if key == "p":
            datum["p"] = draw(junk)
        elif key == "sigma":
            sig = sig or list(range(1, g.n + 1))
            sig[draw(st.integers(0, g.n - 1))] = draw(junk)
        else:
            datum[key][draw(st.integers(0, len(datum[key]) - 1))] = draw(junk)
    sig = None if sig is None else {"sigma": sig}
    if draw(st.integers(0, 3)) == 0:
        datum, spoiled = draw(payload), False
    if draw(st.integers(0, 3)) == 0:
        sig, spoiled = draw(payload), False
    return datum, sig, spoiled


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inputs=synth_inputs())
def test_synth_answers_any_payload_with_one_json_document(inputs):
    datum, sig, spoiled = inputs
    files = {"--egk": datum}
    if sig is not None:
        files["--sigma"] = sig
    code = run_files(["synth"], files)
    # a float, bool, string or null where an integer belongs is never truncated
    assert code == 1 or not spoiled
