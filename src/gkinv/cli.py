"""Command-line surface: compute invariants, emit and verify reduction
certificates, synthesize witnesses, generate corpora, run the self tests.

Forms travel as JSON ``{"p": <prime>, "matrix": [[<rational-string>, ...]]}``;
a top-level array is batch mode, and ``verify`` takes a batch of forms with
a list of as many certificates.  Certificates are
``{"U": matrix, "R": matrix, "ua": [ints], "sigma": [1-indexed image]}``.
All rationals are exact ``num/den`` strings, never floats; the prime and the
integer lists (``ua``, ``sigma``, and ``n``, ``m``, ``zeta`` for ``synth``)
must be JSON integers, and a float, a bool or a string there is rejected
rather than truncated.  No integer, numerator or denominator may have more
than ``NUMBER_MAX_DIGITS`` digits.  Exit codes: 0 success, 1 invalid input
or a refused command line, 2 internal failure or rejected verification.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import re
import sys

from .egk import EGKDatum, EGKError, lift, synthesize_nondyadic, synthesize_reduced
from .forms import FormError, HalfIntegralForm, _from_rows, delta, random_form
from .invariants import egk_of, eta, gk, xi
from .involutions import GKType, is_standard
from .padic import PrimeContext
from .reducer import (
    ReductionCertificate,
    ReductionError,
    reduce_form,
    verify_certificate,
)

# a denominator needs a non-zero digit
_RATIONAL = re.compile(r"^[+-]?\d+(/\d*[1-9]\d*)?$")

# the most digits an integer, a numerator or a denominator of the input may
# have: CPython's default limit on converting a string to an int, held here
# whatever the interpreter's own setting, so an oversize entry is a named
# error and never a long conversion
NUMBER_MAX_DIGITS = 4300
_NUMBER_BOUND = 10**NUMBER_MAX_DIGITS  # the least number with one digit more

# bounds on the work of one ``synth`` datum: the matrix size, and the bits of
# its largest prime power (max(m) times the bit length of p)
SYNTH_MAX_N = 32
SYNTH_MAX_BITS = 512


class CliError(Exception):
    def __init__(self, code: int, payload: dict):
        super().__init__(payload.get("error", ""))
        self.code = code
        self.payload = payload

    def __reduce__(self):
        # rebuilt from (code, payload), so a worker pool can return it
        return type(self), (self.code, self.payload)


def _json_int(x, error: str) -> int:
    """A JSON integer, or exit 1 with ``error``: never a truncated float."""
    if type(x) is not int:
        raise CliError(1, {"error": error, "detail": f"not an integer: {x!r}"})
    return x


def _check_digits(digits: str) -> None:
    """Exit 1 with ``number_too_large`` past NUMBER_MAX_DIGITS digits."""
    if len(digits) > NUMBER_MAX_DIGITS:
        detail = f"a number has {len(digits)} digits, more than {NUMBER_MAX_DIGITS}"
        raise CliError(1, {"error": "number_too_large", "detail": detail})


def _parse_json_int(literal: str) -> int:
    # json.load hands every integer literal here before any int is built
    _check_digits(literal.lstrip("-"))
    return int(literal)


def _parse_rational(s) -> tuple[int, int]:
    """A JSON int or a rational string as (numerator, denominator > 0), not
    necessarily in lowest terms."""
    if type(s) is int:
        return s, 1
    if not isinstance(s, str) or not _RATIONAL.match(s.strip()):
        raise CliError(1, {"error": "bad_rational", "value": str(s)})
    num, _, den = s.strip().partition("/")
    _check_digits(num.lstrip("+-"))
    if den:
        _check_digits(den)
    return int(num), int(den or 1)


def _fmt_rational(num: int, den: int) -> str:
    """num / den, for den > 0, as JSON text in lowest terms, held to
    NUMBER_MAX_DIGITS digits like the input, so ``verify`` reads back every
    certificate that ``reduce`` prints."""
    if den != 1:
        g = math.gcd(num, den)
        num, den = num // g, den // g
    if abs(num) >= _NUMBER_BOUND or den >= _NUMBER_BOUND:
        detail = f"an output number has more than {NUMBER_MAX_DIGITS} digits"
        raise CliError(1, {"error": "number_too_large", "detail": detail})
    return str(num) if den == 1 else f"{num}/{den}"


def _fmt_matrix(rows, dens) -> list[list[str]]:
    """The matrix of entries rows[i][j] / dens[j], for integer rows."""
    return [[_fmt_rational(x, d) for x, d in zip(row, dens)] for row in rows]


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_parse_json_int)
    except FileNotFoundError:
        raise CliError(1, {"error": "file_not_found", "path": path})
    except json.JSONDecodeError as ex:
        raise CliError(1, {"error": "bad_json", "path": path, "detail": str(ex)})


def _is_rows(m) -> bool:
    return isinstance(m, list) and all(isinstance(row, list) for row in m)


def _form_from_payload(payload) -> HalfIntegralForm:
    if (
        not isinstance(payload, dict)
        or "p" not in payload
        or not _is_rows(payload.get("matrix"))
    ):
        raise CliError(1, {"error": "bad_form_payload"})
    try:
        ctx = PrimeContext(_json_int(payload["p"], "bad_prime"))
    except ValueError as ex:
        raise CliError(1, {"error": "bad_prime", "detail": str(ex)})
    try:
        return _form_of(payload["matrix"], ctx)
    except FormError as ex:
        raise CliError(1, {"error": "invalid_form", "detail": str(ex)})


def _form_of(matrix, ctx: PrimeContext) -> HalfIntegralForm:
    """The form of a matrix of rationals, as ``validate_form`` builds it:
    ``_from_rows`` over the lcm of the denominators, which brings it to
    lowest terms."""
    rows = [[_parse_rational(x) for x in row] for row in matrix]
    d = math.lcm(*(den for row in rows for _, den in row))
    return _from_rows([[num * (d // den) for num, den in row] for row in rows], d, ctx)


def _form_payload(form: HalfIntegralForm) -> dict:
    return {"p": form.ctx.p, "matrix": _fmt_matrix(form.rows, [form.den] * form.n)}


def _cert_payload(cert: ReductionCertificate) -> dict:
    r = cert.reduced
    return {
        "U": _fmt_matrix(cert.y, cert.c),
        "R": _fmt_matrix(r.rows, [r.den] * r.n),
        "ua": list(cert.exps),
        "sigma": [s + 1 for s in cert.gk_type.sigma],
    }


def _cert_from_payload(payload, ctx: PrimeContext) -> ReductionCertificate:
    try:
        u = [[_parse_rational(x) for x in row] for row in payload["U"]]
        r = _form_of(payload["R"], ctx)
        exps = tuple(_json_int(a, "bad_certificate") for a in payload["ua"])
        sigma = tuple(_json_int(s, "bad_certificate") - 1 for s in payload["sigma"])
        if len(u) != r.n or any(len(row) != r.n for row in u):
            raise FormError("U is not a square matrix of the size of R")
        # U = y·diag(c)^-1 with c_j the lcm of column j's denominators
        c = [math.lcm(*(den for _, den in col)) for col in zip(*u)]
        y = [[num * (cj // den) for (num, den), cj in zip(row, c)] for row in u]
        return ReductionCertificate._of_rows(y, c, r, GKType(exps, sigma))
    except CliError:
        raise
    except (KeyError, TypeError, ValueError, FormError) as ex:
        raise CliError(1, {"error": "bad_certificate", "detail": str(ex)})


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _compute_one(args_tuple) -> dict:
    what, payload = args_tuple
    form = _form_from_payload(payload)
    if what == "gk":
        return {"gk": list(gk(form))}
    if what == "xi":
        return {"xi": xi(form)}
    if what == "eta":
        return {"eta": eta(form)}
    if what == "delta":
        return {"delta": delta(form)}
    d = egk_of(form)  # "egk", the last of --what's choices
    return {"n": list(d.sizes), "m": list(d.exps), "zeta": list(d.zeta)}


def _reduce_one(payload) -> dict:
    return _cert_payload(reduce_form(_form_from_payload(payload)))


def _map_items(fn, items, jobs: int):
    # a worker per item at most, and no more workers than cores
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    with multiprocessing.Pool(workers) as pool:
        return pool.map(fn, items)


def _cmd_compute(args) -> int:
    data = _load_json(args.input)
    batch = isinstance(data, list)
    items = [(args.what, payload) for payload in (data if batch else [data])]
    results = _map_items(_compute_one, items, args.jobs)
    _emit(results if batch else results[0])
    return 0


def _cmd_reduce(args) -> int:
    data = _load_json(args.input)
    batch = isinstance(data, list)
    items = data if batch else [data]
    results = _map_items(_reduce_one, items, args.jobs)
    out = results if batch else results[0]
    if args.emit_certificate:
        with open(args.emit_certificate, "w") as fh:
            json.dump(out, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    _emit(out)
    return 0


def _cmd_verify(args) -> int:
    data = _load_json(args.input)
    batch = isinstance(data, list)
    forms = [_form_from_payload(payload) for payload in (data if batch else [data])]
    certs = _load_json(args.certificate)
    if batch and (not isinstance(certs, list) or len(certs) != len(forms)):
        detail = f"a batch of {len(forms)} forms needs a list of {len(forms)} certificates"
        raise CliError(1, {"error": "bad_certificate", "detail": detail})
    results = []
    for form, payload in zip(forms, certs if batch else [certs]):
        ok, reason = verify_certificate(form, _cert_from_payload(payload, form.ctx))
        results.append({"verified": True} if ok else {"verified": False, "reason": reason})
    _emit(results if batch else results[0])
    return 0 if all(r["verified"] for r in results) else 2


def _cmd_synth(args) -> int:
    payload = _load_json(args.egk)
    try:
        ctx = PrimeContext(_json_int(payload["p"], "bad_egk_payload"))
        sizes, exps, zeta = (
            tuple(_json_int(x, "bad_egk_payload") for x in payload[key])
            for key in ("n", "m", "zeta")
        )
        datum = EGKDatum(sizes, exps, zeta)
    except (KeyError, TypeError, ValueError) as ex:
        raise CliError(1, {"error": "bad_egk_payload", "detail": str(ex)})
    bits = max(exps, default=0) * ctx.p.bit_length()
    if sum(sizes) > SYNTH_MAX_N or bits > SYNTH_MAX_BITS:
        detail = (
            f"datum too large: sum(n) must be at most {SYNTH_MAX_N} and "
            f"max(m) * bit_length(p) at most {SYNTH_MAX_BITS}"
        )
        raise CliError(1, {"error": "bad_egk_payload", "detail": detail})
    sigma = None
    if args.sigma:
        sig_payload = _load_json(args.sigma)
        try:
            sigma = tuple(_json_int(s, "bad_sigma_payload") - 1 for s in sig_payload["sigma"])
        except (KeyError, TypeError) as ex:
            raise CliError(1, {"error": "bad_sigma_payload", "detail": str(ex)})
    try:
        h = lift(datum)
        if sigma is not None and not is_standard(h.a, sigma):
            raise EGKError("involution is not standard for the datum's exponents")
        if ctx.p == 2:
            form = synthesize_reduced(datum, ctx, sigma)
        else:
            form = synthesize_nondyadic(h, ctx)
    except EGKError as ex:
        raise CliError(1, {"error": "invalid_egk_datum", "detail": str(ex)})
    _emit(_form_payload(form))
    return 0


def _cmd_rand(args) -> int:
    import random

    rng = random.Random(args.seed)
    forms = [random_form(args.n, args.p, rng, height=args.height) for _ in range(args.count)]
    _emit([_form_payload(form) for form in forms])
    return 0


def _cmd_selftest(args) -> int:
    from .selfcheck import run_suites

    results = run_suites(args.suite, trials=args.trials, seed=args.seed)
    bad = 0
    for r in results:
        if r.ok:
            print(f"ok   {r.name}")
        else:
            bad += 1
            print(f"FAIL {r.name}: {r.detail}")
    print(f"{len(results) - bad}/{len(results)} checks passed")
    return 0 if bad == 0 else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 and one JSON document, not usage text and exit 2
        raise CliError(1, {"error": "bad_option", "detail": message})


def _at_least(least: int, flag: str, error: str):
    """An argparse type: an int of at least ``least``, else exit 1 with ``error``."""

    def int_(text: str) -> int:  # a CliError is no ValueError, so argparse lets it out
        value = int(text)
        if value < least:
            bound = "non-negative" if least == 0 else f"at least {least}"
            raise CliError(1, {"error": error, "detail": f"--{flag} must be {bound}, got {value}"})
        return value

    int_.__name__ = "int"  # argparse's message then reads "invalid int value"
    return int_


def _prime(text: str) -> PrimeContext:
    """An argparse type: the PrimeContext of an int, else exit 1 with
    ``bad_prime``, as a form payload with that p gives."""
    p = int(text)  # a ValueError here: argparse says "invalid int value"
    try:
        return PrimeContext(p)
    except ValueError as ex:
        raise CliError(1, {"error": "bad_prime", "detail": str(ex)}) from None


_prime.__name__ = "int"


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="gkinv",
        description="Gross-Keating invariants of half-integral symmetric "
        "matrices over Q_p, with verifiable reduction certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute an invariant of a form")
    c.add_argument("--what", required=True, choices=("gk", "xi", "eta", "delta", "egk"))
    c.add_argument("--input", required=True)
    c.add_argument("--jobs", type=_at_least(1, "jobs", "bad_jobs_option"), default=1)
    c.set_defaults(fn=_cmd_compute)

    c = sub.add_parser("reduce", help="emit a reduction certificate")
    c.add_argument("--input", required=True)
    c.add_argument("--emit-certificate", default=None)
    c.add_argument("--jobs", type=_at_least(1, "jobs", "bad_jobs_option"), default=1)
    c.set_defaults(fn=_cmd_reduce)

    c = sub.add_parser("verify", help="verify a reduction certificate")
    c.add_argument("--input", required=True)
    c.add_argument("--certificate", required=True)
    c.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("synth", help="synthesize a form realizing a datum")
    c.add_argument("--egk", required=True)
    c.add_argument("--sigma", default=None)
    c.set_defaults(fn=_cmd_synth)

    c = sub.add_parser("rand", help="generate a random form corpus")
    c.add_argument("--n", type=_at_least(0, "n", "bad_rand_option"), required=True)
    c.add_argument("--p", type=_prime, required=True)
    c.add_argument("--count", type=_at_least(0, "count", "bad_rand_option"), default=1)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--height", type=_at_least(0, "height", "bad_rand_option"), default=4)
    c.set_defaults(fn=_cmd_rand)

    c = sub.add_parser("selftest", help="run the property suites")
    c.add_argument("--suite", default="all", choices=("padic", "reducer", "egk", "all"))
    c.add_argument("--trials", type=_at_least(1, "trials", "bad_selftest_option"), default=120)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_selftest)
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as ex:
        _emit(ex.payload)
        return ex.code
    except (FormError, EGKError, ValueError) as ex:
        _emit({"error": "invalid_input", "detail": str(ex)})
        return 1
    except ReductionError as ex:
        _emit({"error": "internal_failure", "detail": str(ex)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
