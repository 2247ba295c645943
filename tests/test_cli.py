import json
import os
import random
import signal
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import gkinv
from gkinv import cli
from gkinv.cli import main
from gkinv.forms import FormError, random_form, transform, validate_form
from gkinv.involutions import GKType
from gkinv.padic import MAX_PRIME, PrimeContext
from gkinv.reducer import ReductionCertificate, reduce_form


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


DIAG11 = {"p": 2, "matrix": [["1", "0"], ["0", "1"]]}


def test_compute_gk(tmp_path, capsys):
    path = write(tmp_path, "f.json", DIAG11)
    code, out = run_cli(["compute", "--what", "gk", "--input", path], capsys)
    assert code == 0
    assert json.loads(out) == {"gk": [0, 1]}


def test_compute_all_quantities(tmp_path, capsys):
    path = write(tmp_path, "f.json", DIAG11)
    for what, expect in [
        ("xi", {"xi": 0}),
        ("eta", {"eta": 1}),
        ("delta", {"delta": 1}),
        ("egk", {"n": [1, 1], "m": [0, 1], "zeta": [1, 0]}),
    ]:
        code, out = run_cli(["compute", "--what", what, "--input", path], capsys)
        assert code == 0
        assert json.loads(out) == expect


def test_reduce_verify_round_trip(tmp_path, capsys):
    form = write(tmp_path, "f.json", DIAG11)
    cert_path = str(tmp_path / "cert.json")
    code, out = run_cli(
        ["reduce", "--input", form, "--emit-certificate", cert_path], capsys
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["R"] == [["1", "1"], ["1", "2"]]
    assert cert["ua"] == [0, 1]
    code, out = run_cli(
        ["verify", "--input", form, "--certificate", cert_path], capsys
    )
    assert code == 0
    assert json.loads(out) == {"verified": True}


def test_verify_rejects_mismatched_certificate(tmp_path, capsys):
    form = write(tmp_path, "f.json", DIAG11)
    cert = {
        "U": [["1", "0"], ["0", "1"]],
        "R": [["1", "0"], ["0", "1"]],
        "ua": [0, 1],
        "sigma": [1, 2],
    }
    cert_path = write(tmp_path, "cert.json", cert)
    code, out = run_cli(["verify", "--input", form, "--certificate", cert_path], capsys)
    assert code == 2
    assert json.loads(out)["verified"] is False


def _reduced_batch(tmp_path, capsys):
    """A two-form batch from ``rand`` and the certificates ``reduce`` emits
    for it, as (form path, certificate path, certificates)."""
    code, out = run_cli(["rand", "--n", "3", "--p", "3", "--count", "2", "--seed", "1"], capsys)
    forms = write(tmp_path, "forms.json", json.loads(out))
    cert_path = str(tmp_path / "certs.json")
    code, out = run_cli(["reduce", "--input", forms, "--emit-certificate", cert_path], capsys)
    assert code == 0
    return forms, cert_path, json.loads(out)


def test_verify_reads_the_batch_that_reduce_writes(tmp_path, capsys):
    forms, cert_path, certs = _reduced_batch(tmp_path, capsys)
    assert len(certs) == 2
    code, out = run_cli(["verify", "--input", forms, "--certificate", cert_path], capsys)
    assert code == 0
    assert out == '[{"verified":true},{"verified":true}]\n'


def test_verify_batch_reports_each_tampered_item(tmp_path, capsys):
    forms, _, certs = _reduced_batch(tmp_path, capsys)
    certs[1] = certs[0]  # the first form's certificate, for the second form
    cert_path = write(tmp_path, "tampered.json", certs)
    code, out = run_cli(["verify", "--input", forms, "--certificate", cert_path], capsys)
    assert code == 2
    first, second = json.loads(out)
    assert first == {"verified": True}
    assert second["verified"] is False and second["reason"]


def test_verify_batch_needs_one_certificate_per_form(tmp_path, capsys):
    forms, _, certs = _reduced_batch(tmp_path, capsys)
    for payload in (certs[:1], certs + certs[:1], certs[0]):
        cert_path = write(tmp_path, "short.json", payload)
        code, out = run_cli(["verify", "--input", forms, "--certificate", cert_path], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "bad_certificate"


def test_invalid_input_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"p": 2, "matrix": [["1/2", "0"], ["0", "1"]]})
    code, out = run_cli(["compute", "--what", "gk", "--input", path], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "invalid_form"
    path = write(tmp_path, "badp.json", {"p": 6, "matrix": [["1"]]})
    code, out = run_cli(["compute", "--what", "gk", "--input", path], capsys)
    assert code == 1
    path = write(tmp_path, "badr.json", {"p": 2, "matrix": [["1.5"]]})
    code, out = run_cli(["compute", "--what", "gk", "--input", path], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "bad_rational"


def test_malformed_payload_shapes(tmp_path, capsys):
    cases = [
        {"p": 2},  # missing matrix
        {"p": 2, "matrix": [["1", "0"], ["0"]]},  # ragged rows
        {"p": 2, "matrix": [["x"]]},  # not a rational string
        "just a string",
        {"p": 2, "matrix": [1, 2]},  # rows that are not lists
        {"p": 2, "matrix": [["1/0"]]},  # zero denominator
    ]
    for i, payload in enumerate(cases):
        path = write(tmp_path, f"m{i}.json", payload)
        code, out = run_cli(["compute", "--what", "gk", "--input", path], capsys)
        assert code == 1, payload
        assert "error" in json.loads(out)
    raw = tmp_path / "broken.json"
    raw.write_text("{not json")
    code, out = run_cli(["compute", "--what", "gk", "--input", str(raw)], capsys)
    assert code == 1 and json.loads(out)["error"] == "bad_json"


def test_verify_rejects_out_of_range_sigma(tmp_path, capsys):
    form = write(tmp_path, "f.json", DIAG11)
    cert = {
        "U": [["1", "1"], ["0", "1"]],
        "R": [["1", "1"], ["1", "2"]],
        "ua": [0, 1],
        "sigma": [1, 5],
    }
    cert_path = write(tmp_path, "c.json", cert)
    code, out = run_cli(["verify", "--input", form, "--certificate", cert_path], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "bad_certificate"


def test_verify_rejects_non_square_u(tmp_path, capsys):
    form = write(tmp_path, "f.json", DIAG11)
    cert = {
        "U": [["1"], ["0"]],
        "R": [["1", "1"], ["1", "2"]],
        "ua": [0, 1],
        "sigma": [1, 2],
    }
    cert_path = write(tmp_path, "c.json", cert)
    code, out = run_cli(["verify", "--input", form, "--certificate", cert_path], capsys)
    assert code == 1
    assert json.loads(out)["error"] == "bad_certificate"


def test_verify_rejects_decreasing_exponents(tmp_path, capsys):
    """A decreasing ``ua`` is no GK type: ``is_admissible`` raises
    ValueError, reported as bad_certificate with exit 1."""
    form = write(tmp_path, "f.json", DIAG11)
    cert = {"U": [["1", "0"], ["0", "1"]], "R": DIAG11["matrix"], "ua": [1, 0], "sigma": [1, 2]}
    cert_path = write(tmp_path, "c.json", cert)
    code, out = run_cli(["verify", "--input", form, "--certificate", cert_path], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": "bad_certificate", "detail": "exponent sequence must be non-decreasing"
    }


def test_payload_errors_are_named(tmp_path, capsys):
    for payload, error in [
        ({"p": 2, "matrix": [1, 2]}, "bad_form_payload"),
        ({"p": 2, "matrix": None}, "bad_form_payload"),
        ({"p": 2, "matrix": [["1/0"]]}, "bad_rational"),
        ({"p": 1e400, "matrix": [["1"]]}, "bad_prime"),
    ]:
        path = write(tmp_path, "f.json", payload)
        code, out = run_cli(["compute", "--what", "gk", "--input", path], capsys)
        assert (code, json.loads(out)["error"]) == (1, error), payload


def test_reduce_batch_with_worker_pool(tmp_path, capsys):
    batch = [DIAG11, {"p": 2, "matrix": [["0", "1/2"], ["1/2", "0"]]}]
    path = write(tmp_path, "b.json", batch)
    code, out1 = run_cli(["reduce", "--input", path], capsys)
    code, out2 = run_cli(["reduce", "--input", path, "--jobs", "2"], capsys)
    assert code == 0 and out1 == out2
    assert [c["ua"] for c in json.loads(out1)] == [[0, 1], [0, 0]]


def test_worker_pool_is_bounded(tmp_path, capsys, monkeypatch):
    """--jobs N asks for min(N, items, cores) workers.  The pool here is a
    fake that records its size and maps in this process, so no worker is
    ever started, whatever N is."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(it) for it in items]

    monkeypatch.setattr(cli, "multiprocessing", types.SimpleNamespace(Pool=RecordingPool))
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pair = write(tmp_path, "pair.json", [DIAG11, {"p": 3, "matrix": [["0", "1/2"], ["1/2", "0"]]}])
    ten = write(tmp_path, "ten.json", [DIAG11] * 10)
    runs = [
        (["reduce", "--input", pair, "--jobs", "100000"], [2]),
        (["reduce", "--input", ten, "--jobs", "100000"], [4]),
        (["compute", "--what", "gk", "--input", ten, "--jobs", "3"], [3]),
    ]
    for args, expected in runs:
        sizes.clear()
        code, out = run_cli(args, capsys)
        assert code == 0 and sizes == expected
        assert out == run_cli(args[:-1] + ["1"], capsys)[1]
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one worker, no pool
    sizes.clear()
    assert run_cli(["reduce", "--input", ten, "--jobs", "100000"], capsys)[0] == 0
    assert sizes == []


def test_batch_mode_preserves_order(tmp_path, capsys):
    batch = [
        DIAG11,
        {"p": 2, "matrix": [["0", "1/2"], ["1/2", "0"]]},
        {"p": 3, "matrix": [["1", "0"], ["0", "3"]]},
    ]
    path = write(tmp_path, "batch.json", batch)
    code, out = run_cli(["compute", "--what", "gk", "--input", path], capsys)
    assert code == 0
    assert json.loads(out) == [{"gk": [0, 1]}, {"gk": [0, 0]}, {"gk": [0, 1]}]
    code, out = run_cli(
        ["compute", "--what", "gk", "--input", path, "--jobs", "2"], capsys
    )
    assert code == 0
    assert json.loads(out) == [{"gk": [0, 1]}, {"gk": [0, 0]}, {"gk": [0, 1]}]


def test_synth_dyadic_and_nondyadic(tmp_path, capsys):
    egk = write(tmp_path, "egk.json", {"p": 2, "n": [1, 1], "m": [0, 1], "zeta": [1, 0]})
    code, out = run_cli(["synth", "--egk", egk], capsys)
    assert code == 0
    form = json.loads(out)
    code, out = run_cli(
        ["compute", "--what", "egk", "--input", write(tmp_path, "synth.json", form)],
        capsys,
    )
    assert json.loads(out) == {"n": [1, 1], "m": [0, 1], "zeta": [1, 0]}
    egk3 = write(tmp_path, "egk3.json", {"p": 3, "n": [2], "m": [1], "zeta": [-1]})
    code, out = run_cli(["synth", "--egk", egk3], capsys)
    assert code == 0
    bad = write(tmp_path, "badegk.json", {"p": 2, "n": [1], "m": [0], "zeta": [-1]})
    code, out = run_cli(["synth", "--egk", bad], capsys)
    assert code == 1
    sigma = write(tmp_path, "sigma.json", {"sigma": [9, 9, 9]})
    for p in (2, 3):
        egk = write(tmp_path, f"egk{p}.json", {"p": p, "n": [2], "m": [0], "zeta": [1]})
        code, out = run_cli(["synth", "--egk", egk, "--sigma", sigma], capsys)
        assert code == 1
        assert json.loads(out)["error"] == "invalid_egk_datum"


@pytest.mark.parametrize("sigma", [[1, 3, 2], [2, 1, 3]])
def test_reduce_keeps_the_standard_involution_synth_was_given(tmp_path, capsys, sigma):
    """Exponents (0, 2, 2) have two standard involutions: the fixed point 1
    with the pair (2 3), and the cross-block pair (1 2) with the fixed point
    3.  The search lays out each one as it is, with no reordering pass."""
    egk = write(tmp_path, "egk.json", {"p": 2, "n": [1, 2], "m": [0, 2], "zeta": [1, 1]})
    sig = write(tmp_path, "sigma.json", {"sigma": sigma})
    code, out = run_cli(["synth", "--egk", egk, "--sigma", sig], capsys)
    assert code == 0
    form = write(tmp_path, "synth.json", json.loads(out))
    code, out = run_cli(["reduce", "--input", form], capsys)
    assert code == 0
    cert = json.loads(out)
    assert (cert["ua"], cert["sigma"]) == ([0, 2, 2], sigma)


def test_reduce_output_is_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "f.json", DIAG11)
    _, out1 = run_cli(["reduce", "--input", path], capsys)
    _, out2 = run_cli(["reduce", "--input", path], capsys)
    assert out1 == out2


def test_rand_determinism(tmp_path, capsys):
    code, out1 = run_cli(["rand", "--n", "3", "--p", "2", "--count", "2", "--seed", "9"], capsys)
    code, out2 = run_cli(["rand", "--n", "3", "--p", "2", "--count", "2", "--seed", "9"], capsys)
    assert out1 == out2
    forms = json.loads(out1)
    assert len(forms) == 2 and forms[0]["p"] == 2


def test_rand_rejects_negative_sizes(capsys):
    for flag in ("--n", "--count", "--height"):
        opts = {"--n": "3", "--p": "2", "--count": "2", "--height": "2", flag: "-2"}
        code, out = run_cli(["rand", *(x for kv in opts.items() for x in kv)], capsys)
        assert code == 1
        assert json.loads(out) == {
            "error": "bad_rand_option", "detail": f"{flag} must be non-negative, got -2"
        }


@pytest.mark.parametrize(
    "p", ["4", "1", "0", "-3", str(MAX_PRIME), "1849", "2021", "3215031751"]
)
def test_rand_refuses_a_bad_prime_in_the_parser(p, tmp_path, capsys):
    """--p is read into a PrimeContext by the parser: a p that is no prime
    below MAX_PRIME exits 1 with one ``bad_prime`` document and nothing on
    stderr, the document a form payload with that p gives.  The last three
    are composites that only the Miller-Rabin rounds reject: 43^2, 43·47
    and a strong pseudoprime to the bases 2, 3, 5 and 7."""
    code = main(["rand", "--n", "2", "--p", p])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == "bad_prime"
    path = write(tmp_path, "f.json", {"p": int(p), "matrix": [["1"]]})
    assert run_cli(["compute", "--what", "gk", "--input", path], capsys) == (1, captured.out)


def test_selftest_subcommand(capsys):
    code, out = run_cli(["selftest", "--suite", "egk", "--trials", "20"], capsys)
    assert code == 0
    assert "checks passed" in out


def test_selftest_rejects_trials_below_one(capsys):
    """A suite that runs no trials checks nothing, so it may not pass."""
    for trials in ("-5", "0"):
        code, out = run_cli(["selftest", "--suite", "padic", "--trials", trials], capsys)
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "error": "bad_selftest_option", "detail": f"--trials must be at least 1, got {trials}"
        }


def test_jobs_below_one_are_rejected(tmp_path, capsys):
    """A pool of no workers is not a sequential run: --jobs 0 and -4 exit 1
    with one JSON document, as --trials 0 does."""
    path = write(tmp_path, "b.json", [DIAG11, DIAG11])
    for cmd in (["compute", "--what", "gk"], ["reduce"]):
        for jobs in ("0", "-4"):
            code, out = run_cli(cmd + ["--input", path, "--jobs", jobs], capsys)
            assert code == 1
            assert out.count("\n") == 1
            assert json.loads(out) == {
                "error": "bad_jobs_option", "detail": f"--jobs must be at least 1, got {jobs}"
            }


# command lines the parser refuses: each exits 1 with one JSON document
# naming ``bad_option``, never argparse's usage text and exit 2, which a
# script would read as a rejected certificate
REFUSED = {
    "unknown subcommand": ["nope"],
    "no subcommand": [],
    "unknown quantity": ["compute", "--what", "nope", "--input", "f.json"],
    "non-integer jobs": ["compute", "--what", "gk", "--input", "f.json", "--jobs", "x"],
    "fractional jobs": ["reduce", "--input", "f.json", "--jobs", "1.5"],
    "missing n": ["rand", "--p", "3"],
    "non-integer n": ["rand", "--n", "x", "--p", "3"],
    "missing certificate": ["verify", "--input", "f.json"],
    "unknown suite": ["selftest", "--suite", "nope"],
    "non-integer trials": ["selftest", "--trials", "x"],
    "unknown flag": ["compute", "--what", "gk", "--input", "f.json", "--bogus"],
}


@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED.keys())
def test_refused_command_lines_exit_1_with_bad_option(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.count("\n") == 1 and captured.err == ""
    assert json.loads(captured.out)["error"] == "bad_option"


def test_refused_command_line_leaves_stderr_empty(tmp_path):
    src = str(Path(gkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    form = write(tmp_path, "f.json", DIAG11)
    proc = subprocess.run(
        [sys.executable, "-m", "gkinv.cli", "compute", "--what", "nope", "--input", form],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (1, "")
    assert json.loads(proc.stdout)["error"] == "bad_option"


def test_a_bad_option_is_refused_before_the_input_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, out = run_cli(["compute", "--what", "gk", "--input", missing, "--jobs", "0"], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": "bad_jobs_option", "detail": "--jobs must be at least 1, got 0"
    }


def test_the_first_bad_option_on_the_command_line_is_named(capsys):
    code, out = run_cli(["rand", "--count", "-2", "--n", "-1"], capsys)
    assert code == 1
    assert json.loads(out) == {
        "error": "bad_rand_option", "detail": "--count must be non-negative, got -2"
    }


def test_help_still_prints_help_and_exits_0(capsys):
    for argv in (["--help"], ["compute", "--help"]):
        with pytest.raises(SystemExit) as ex:
            main(argv)
        assert ex.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gkinv")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gkinv.cli", "selftest", "--suite", "padic", "--trials", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_cli_import_leaves_out_selfcheck_and_oracle():
    """Only ``selftest`` uses the property suites, and through them the
    oracle, so every other command starts without importing either."""
    src = str(Path(gkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, gkinv.cli; "
        "print([m for m in ('gkinv.selfcheck', 'gkinv.oracle') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bad_batch_item_exits_cleanly_with_worker_pool(tmp_path):
    path = write(tmp_path, "bad.json", [DIAG11, {"p": 2, "matrix": [["x"]]}])
    src = str(Path(gkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.Popen(
            [sys.executable, "-m", "gkinv.cli", "reduce", "--input", path, "--jobs", jobs],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise AssertionError(f"gkinv reduce --jobs {jobs} hung on a bad batch item")
        assert "Traceback" not in err
        outs.append((proc.returncode, out))
    assert outs[0] == outs[1]
    code, out = outs[0]
    assert code == 1 and json.loads(out) == {"error": "bad_rational", "value": "x"}



def test_large_primes_are_decided_quickly(tmp_path):
    """Primality is a bounded test: a prime near 10**18 is accepted, a
    composite one and a p above the proven range are rejected."""
    src = str(Path(gkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for p, code, expect in [
        (10**18 + 3, 0, {"gk": [0]}),
        (10**18 + 1, 1, "bad_prime"),
        (10**25 + 13, 1, "bad_prime"),
    ]:
        path = write(tmp_path, "f.json", {"p": p, "matrix": [["1"]]})
        proc = subprocess.Popen(
            [sys.executable, "-m", "gkinv.cli", "compute", "--what", "gk", "--input", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise AssertionError(f"primality of p={p} was not decided within 60 s")
        assert "Traceback" not in err and proc.returncode == code, (p, err)
        out = json.loads(out)
        assert out == expect if code == 0 else out["error"] == expect


def _quick_cli(args, limit, what):
    """stdout of ``gkinv`` run on args in a subprocess, which must exit 0
    within limit seconds."""
    src = str(Path(gkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gkinv.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"{what} ran past {limit} s")
    assert proc.returncode == 0, err
    return json.loads(out)


@pytest.mark.parametrize("n", [44, 100])
def test_gk_of_many_choice_blocks_is_quick(tmp_path, n):
    """gk attaches one standard involution, built directly, and reads each
    pivot's order off one gcd of the tail: the p = 3 diagonal form of
    exponents (0, 1, 2, 2, 3, 3, ...) has 2^21 standard involutions at
    n = 44 and 2^49 at n = 100, and its gk is printed within 10 s.  Its EGK
    datum, whose signs come from one elimination, is printed within 10 s
    too: every block past the first ends an even prefix of odd determinant
    order, so its sign is xi = 0."""
    exps = [0, 1] + [2 + i // 2 for i in range(n - 2)]
    matrix = [[str(3**a) if i == j else "0" for j in range(n)] for i, a in enumerate(exps)]
    path = write(tmp_path, "f.json", {"p": 3, "matrix": matrix})
    out = _quick_cli(["compute", "--what", "gk", "--input", path], 10, f"gk of the n = {n} form")
    assert out == {"gk": exps}
    out = _quick_cli(["compute", "--what", "egk", "--input", path], 10, f"egk of the n = {n} form")
    r = n // 2 + 1
    assert out == {"n": [1, 1] + [2] * (r - 2), "m": list(range(r)), "zeta": [1] + [0] * (r - 1)}


def test_egk_of_a_large_odd_form_is_quick(tmp_path):
    """The EGK datum of random_form(31, PrimeContext(3), random.Random(31),
    height=14), one block, is printed within 10 s: its sign is read off B,
    not off the reduced form, whose one denominator has thousands of bits."""
    form = random_form(31, PrimeContext(3), random.Random(31), height=14)
    path = write(tmp_path, "f.json", cli._form_payload(form))
    out = _quick_cli(["compute", "--what", "egk", "--input", path], 10, "egk of the n = 31 form")
    assert out == {"n": [31], "m": [0], "zeta": [1]}


def test_synth_work_is_bounded(tmp_path):
    """A datum past SYNTH_MAX_N coordinates or SYNTH_MAX_BITS bits of prime
    power exits 1 with bad_egk_payload at once; a datum at both limits is
    synthesized."""
    src = str(Path(gkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for payload, code in [
        ({"p": 3, "n": [3000], "m": [1], "zeta": [1]}, 1),
        ({"p": 2, "n": [1], "m": [3000000], "zeta": [1]}, 1),
        ({"p": 3, "n": [2], "m": [200000], "zeta": [1]}, 1),
        ({"p": 2, "n": [2], "m": [16384], "zeta": [1]}, 1),
        ({"p": 3, "n": [33], "m": [0], "zeta": [1]}, 1),
        ({"p": 2, "n": [32], "m": [256], "zeta": [1]}, 0),
    ]:
        path = write(tmp_path, "egk.json", payload)
        proc = subprocess.Popen(
            [sys.executable, "-m", "gkinv.cli", "synth", "--egk", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise AssertionError(f"synth on {payload} ran past 60 s")
        assert "Traceback" not in err and proc.returncode == code, (payload, err)
        out = json.loads(out)
        if code:
            assert out["error"] == "bad_egk_payload", (payload, out)
        else:
            assert len(out["matrix"]) == 32



def test_number_size_is_bounded(tmp_path, capsys):
    """An integer, a numerator or a denominator of NUMBER_MAX_DIGITS digits is
    read, and one more digit exits 1 with number_too_large, in this process
    and in one that lifts the interpreter's own digit limit."""
    assert cli.NUMBER_MAX_DIGITS == 4300
    cases = []
    for k in (cli.NUMBER_MAX_DIGITS, cli.NUMBER_MAX_DIGITS + 1):
        ok = k == cli.NUMBER_MAX_DIGITS
        big, odd = "1" + "0" * (k - 1), "1" * k  # 10**(k-1); odd is a unit at p = 2
        for text, gk in (
            ('{"p": 5, "matrix": [[%s]]}' % big, [k - 1]),
            ('{"p": 5, "matrix": [["%s"]]}' % big, [k - 1]),
            ('{"p": 2, "matrix": [["1/%s"]]}' % odd, [0]),
        ):
            path = tmp_path / f"f{len(cases)}.json"
            path.write_text(text)  # json.dumps would take str() of a big int
            cases.append((str(path), (0, {"gk": gk}) if ok else (1, "number_too_large")))

    def outcome(code, out):
        out = json.loads(out)
        return code, out if code == 0 else out["error"]

    for path, expect in cases:
        assert outcome(*run_cli(["compute", "--what", "gk", "--input", path], capsys)) == expect
    src = str(Path(gkinv.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONINTMAXSTRDIGITS="0",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    for path, expect in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "gkinv.cli", "compute", "--what", "gk", "--input", path],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert "Traceback" not in proc.stderr
        assert outcome(proc.returncode, proc.stdout) == expect


def test_fmt_rational_holds_the_digit_bound():
    """The one number formatter writes at most NUMBER_MAX_DIGITS digits, the
    most the input reader takes, and names a larger number."""
    top = 10**cli.NUMBER_MAX_DIGITS
    nines = "9" * cli.NUMBER_MAX_DIGITS
    assert cli._fmt_rational(top - 1, 1) == nines
    assert cli._fmt_rational(-1, top - 1) == "-1/" + nines
    assert cli._fmt_rational(-2, 2 * (top - 1)) == "-1/" + nines
    for x in ((top, 1), (-top, 1), (1, top), (top + 1, 3)):
        with pytest.raises(cli.CliError) as ex:
            cli._fmt_rational(*x)
        assert ex.value.code == 1 and ex.value.payload["error"] == "number_too_large"


def oversize_certificate_form() -> dict:
    """A valid p = 3 form of random 4,300-digit entries a, b, c, each at
    least 9·10^4299, with a = 1, b = 2 and c = 0 mod 3, whose certificate
    has entries past NUMBER_MAX_DIGITS digits: det B is a unit, and the split
    over F_3 shears by -b/a = 1 mod 3, so R holds a + b and a + 2b + c."""
    rng = random.Random("cli/oversize-certificate")
    a, b, c = (3 * rng.randrange(3 * 10**4299, 10**4300 // 3) + r for r in (1, 2, 0))
    return {"p": 3, "matrix": [[a, b], [b, c]]}


def test_oversize_certificate_number_is_named(tmp_path, capsys):
    """On ``oversize_certificate_form``, ``reduce`` exits 1 with
    number_too_large and one JSON document, in process and in a worker pool,
    and ``compute --what gk`` on the same form still answers."""
    form = oversize_certificate_form()
    cert = reduce_form(cli._form_from_payload(form))
    assert max(abs(x) for row in cert.reduced.rows for x in row) >= 10**cli.NUMBER_MAX_DIGITS
    path = write(tmp_path, "big.json", form)
    code, out = run_cli(["compute", "--what", "gk", "--input", path], capsys)
    assert code == 0 and len(json.loads(out)["gk"]) == 2
    batch = write(tmp_path, "batch.json", [DIAG11, form])
    src = str(Path(gkinv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for input_path in (path, batch):
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "gkinv.cli", "reduce", "--input", input_path,
                 "--jobs", jobs],
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert "Traceback" not in proc.stderr
            assert proc.returncode == 1, (input_path, jobs)
            (doc,) = proc.stdout.splitlines()
            assert json.loads(doc) == {
                "error": "number_too_large",
                "detail": f"an output number has more than {cli.NUMBER_MAX_DIGITS} digits",
            }


# The parent's Fraction parser and serializer, verbatim but for the names:
# the reference that the integer helpers of ``gkinv.cli`` must match byte for
# byte, in output and in error JSON.
def parent_parse_rational(s) -> Fraction:
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str) or not cli._RATIONAL.match(s.strip()):
        raise cli.CliError(1, {"error": "bad_rational", "value": str(s)})
    for digits in s.strip().lstrip("+-").split("/"):
        cli._check_digits(digits)
    return Fraction(s.strip())


def parent_fmt_rational(x: Fraction) -> str:
    x = Fraction(x)
    if abs(x.numerator) >= cli._NUMBER_BOUND or x.denominator >= cli._NUMBER_BOUND:
        detail = f"an output number has more than {cli.NUMBER_MAX_DIGITS} digits"
        raise cli.CliError(1, {"error": "number_too_large", "detail": detail})
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parent_fmt_matrix(m):
    return [[parent_fmt_rational(x) for x in row] for row in m]


def parent_form_from_payload(payload):
    if (
        not isinstance(payload, dict)
        or "p" not in payload
        or not cli._is_rows(payload.get("matrix"))
    ):
        raise cli.CliError(1, {"error": "bad_form_payload"})
    try:
        ctx = PrimeContext(cli._json_int(payload["p"], "bad_prime"))
    except ValueError as ex:
        raise cli.CliError(1, {"error": "bad_prime", "detail": str(ex)})
    rows = [[parent_parse_rational(x) for x in row] for row in payload["matrix"]]
    try:
        return validate_form(rows, ctx)
    except FormError as ex:
        raise cli.CliError(1, {"error": "invalid_form", "detail": str(ex)})


def parent_form_payload(form):
    return {"p": form.ctx.p, "matrix": parent_fmt_matrix(form.entries)}


def parent_cert_payload(cert):
    return {
        "U": parent_fmt_matrix(cert.u),
        "R": parent_fmt_matrix(cert.reduced.entries),
        "ua": list(cert.exps),
        "sigma": [s + 1 for s in cert.gk_type.sigma],
    }


def parent_cert_from_payload(payload, ctx):
    try:
        u = tuple(
            tuple(parent_parse_rational(x) for x in row) for row in payload["U"]
        )
        r = validate_form(
            [[parent_parse_rational(x) for x in row] for row in payload["R"]], ctx
        )
        exps = tuple(cli._json_int(a, "bad_certificate") for a in payload["ua"])
        sigma = tuple(cli._json_int(s, "bad_certificate") - 1 for s in payload["sigma"])
        if len(u) != r.n or any(len(row) != r.n for row in u):
            raise FormError("U is not a square matrix of the size of R")
        return ReductionCertificate(u, r, GKType(exps, sigma))
    except cli.CliError:
        raise
    except (KeyError, TypeError, ValueError, FormError) as ex:
        raise cli.CliError(1, {"error": "bad_certificate", "detail": str(ex)})


PARENT_CLI = {
    "_form_from_payload": parent_form_from_payload,
    "_form_payload": parent_form_payload,
    "_cert_payload": parent_cert_payload,
    "_cert_from_payload": parent_cert_from_payload,
}


def both_clis(args, capsys, monkeypatch):
    """(exit code, stdout) of main(args) with the integer helpers, then with
    the parent's Fraction helpers in their place."""
    outs = [run_cli(args, capsys)]
    with monkeypatch.context() as mp:
        for name, fn in PARENT_CLI.items():
            mp.setattr(cli, name, fn)
        outs.append(run_cli(args, capsys))
    return outs


MAX = cli.NUMBER_MAX_DIGITS
EDGE_FORMS = [
    {"p": 5, "matrix": [["+3", " 4/6 "], [" 4/6 ", "0/5"]]},
    {"p": 3, "matrix": [[2, "-1/2"], ["-1/2", 6]]},
    {"p": 2, "matrix": [["0", "+1/2", 0], ["1/2", "2/1", "-3/6"], [0, "-1/2", "4"]]},
    {"p": 7, "matrix": [["-14/10", "7/4"], ["7/4", "21"]]},
    {"p": 5, "matrix": [["1" + "0" * (MAX - 1)]]},  # a 4,300-digit R entry
    {"p": 2, "matrix": [["2/" + "3" * MAX]]},
    {"p": 3, "matrix": []},
]


def _edge_batches(rng):
    """Batches for p = 2, 3, 5, 7: random forms of n = 1..5, scrambled by
    rational transforms so that entries carry mixed denominators, with the
    rationals written in every accepted spelling."""
    spell = [
        lambda x: f"{x.numerator}/{x.denominator}",
        lambda x: f" {2 * x.numerator}/{2 * x.denominator} ",
        lambda x: ("+" if x >= 0 else "") + f"{x.numerator}/{x.denominator}",
        lambda x: x.numerator if x.denominator == 1 else str(x),
    ]
    for p in (2, 3, 5, 7):
        ctx, batch = PrimeContext(p), []
        for k in range(24):
            n = 1 + k % 5
            form = random_form(n, ctx, rng, height=3)
            d = Fraction(rng.choice((1, 3, 5, 7, 11)), rng.choice([q for q in (1, 2, 3, 4, 5) if q % p]))
            form = transform(form, [[d if i == j else Fraction(0) for j in range(n)] for i in range(n)])
            matrix = [[rng.choice(spell)(x) for x in row] for row in form.entries]
            for i in range(n):  # keep the matrix symmetric, as spelled
                for j in range(i):
                    matrix[i][j] = matrix[j][i]
            batch.append({"p": p, "matrix": matrix})
        yield p, batch


def test_integer_rows_print_the_parents_bytes(tmp_path, capsys, monkeypatch):
    """``reduce``, ``compute --what egk`` and ``verify`` print byte for byte
    what the parent's Fraction parser and serializer printed, on p = 2, 3, 5,
    7 batches in every spelling the reader takes, at the digit bound, and on a
    certificate whose U has p-unit column denominators."""
    batches = list(_edge_batches(random.Random("integer rows")))
    batches.append(("edge", EDGE_FORMS))
    h3 = {"p": 3, "matrix": [["0", "3/2"], ["3/2", "0"]]}
    h3_cert = {"U": [["1", "-1/2"], ["1", "1/2"]], "R": [["3", "0"], ["0", "-3/4"]],
               "ua": [1, 1], "sigma": [2, 1]}
    seen = 0
    for name, batch in batches:
        forms = write(tmp_path, f"{name}.json", batch)
        certs = str(tmp_path / f"{name}_cert.json")
        new, old = both_clis(["reduce", "--input", forms, "--emit-certificate", certs],
                             capsys, monkeypatch)
        assert new == old and new[0] == 0, name
        for args in (
            ["compute", "--what", "egk", "--input", forms],
            ["verify", "--input", forms, "--certificate", certs],
        ):
            new, old = both_clis(args, capsys, monkeypatch)
            assert new == old, (name, args)
        seen += len(batch)
    assert seen >= 100
    assert f'"R":[["1{"0" * (MAX - 1)}"]]' in run_cli(
        ["reduce", "--input", write(tmp_path, "top.json", EDGE_FORMS[4])], capsys)[1]
    args = ["verify", "--input", write(tmp_path, "h3.json", h3),
            "--certificate", write(tmp_path, "h3c.json", h3_cert)]
    new, old = both_clis(args, capsys, monkeypatch)
    assert new == old == (0, '{"verified":true}\n')
    # rand and synth print a form from its rows as the parent printed entries
    for args in (["rand", "--n", "5", "--p", "7", "--count", "6", "--seed", "3"],
                 ["synth", "--egk", write(tmp_path, "g.json",
                                          {"p": 2, "n": [1, 2], "m": [0, 2], "zeta": [1, 1]})]):
        new, old = both_clis(args, capsys, monkeypatch)
        assert new == old and new[0] == 0


def test_integer_rows_keep_the_parents_error_json(tmp_path, capsys, monkeypatch):
    """bad_rational, number_too_large, invalid_form and bad_certificate come
    out as the same JSON document, with the same exit code, as from the
    parent's Fraction helpers."""
    good = {"p": 3, "matrix": [["1", "1/2"], ["1/2", "2"]]}
    forms = [
        ({"p": 2, "matrix": [["1.5"]]}, "bad_rational"),
        ({"p": 2, "matrix": [[True]]}, "bad_rational"),
        ({"p": 2, "matrix": [[1.0]]}, "bad_rational"),
        ({"p": 2, "matrix": [["1/0"]]}, "bad_rational"),
        ({"p": 2, "matrix": [["++1"]]}, "bad_rational"),
        ({"p": 2, "matrix": [["1" * (MAX + 1)]]}, "number_too_large"),
        ({"p": 2, "matrix": [["-1/" + "1" * (MAX + 1)]]}, "number_too_large"),
        (oversize_certificate_form(), "number_too_large"),  # on output
        ({"p": 2, "matrix": [["1/2", "0"], ["0", "1"]]}, "invalid_form"),
        ({"p": 3, "matrix": [["1", "1/3"], ["1/3", "1"]]}, "invalid_form"),
        ({"p": 3, "matrix": [["1", "1"], ["2", "1"]]}, "invalid_form"),
        ({"p": 3, "matrix": [["1", "1"], ["1"]]}, "invalid_form"),
        ({"p": 2, "matrix": [[]]}, "invalid_form"),
    ]
    for payload, error in forms:
        path = write(tmp_path, "f.json", payload)
        new, old = both_clis(["compute", "--what", "gk", "--input", path], capsys, monkeypatch)
        assert new == old, payload
        new, old = both_clis(["reduce", "--input", path], capsys, monkeypatch)
        assert new == old, payload
        assert new[0] == 1 and json.loads(new[1])["error"] == error, payload
    cert = {"U": [["1", "0"], ["0", "1"]], "R": good["matrix"], "ua": [0, 0], "sigma": [2, 1]}
    certs = [
        ({**cert, "U": [["1", "x"], ["0", "1"]]}, "bad_rational"),
        ({**cert, "U": [["1", "1" * (MAX + 1)], ["0", "1"]]}, "number_too_large"),
        ({**cert, "R": [["1", "1/3"], ["1/3", "1"]]}, "bad_certificate"),
        ({**cert, "R": [["1", "0"], ["1", "1"]]}, "bad_certificate"),
        ({**cert, "U": [["1"], ["0"]]}, "bad_certificate"),
        ({**cert, "U": 5}, "bad_certificate"),
        ({**cert, "ua": [0, 0.5]}, "bad_certificate"),
        ({k: v for k, v in cert.items() if k != "U"}, "bad_certificate"),
        ([cert], "bad_certificate"),
    ]
    forms = write(tmp_path, "good.json", good)
    for payload, error in certs:
        args = ["verify", "--input", forms, "--certificate", write(tmp_path, "c.json", payload)]
        new, old = both_clis(args, capsys, monkeypatch)
        assert new == old, payload
        assert new[0] == 1 and json.loads(new[1])["error"] == error, payload
