#!/usr/bin/env python3
"""Time the invariants and the reduction of B on a fixed list of large forms,
each in a fresh process, and check every value.

    python3 tools/large_forms.py [--only NAME ...] [--src DIR]

For each form of ``FORMS`` one process builds the form and writes its rows
to a scratch file; then each of the form's values is timed in ``RUNS``
fresh processes, on a form rebuilt from those rows by ``forms._from_rows``,
so that no det, pivot chain or certificate is cached: ``delta``, ``xi`` and
``eta`` one to a process, and ``reduce_form`` then ``egk_of`` in one
process, the time of each taken apart.  The value of ``reduce`` is the kept
certificate's JSON bytes, as ``gkinv reduce`` prints it, and a SHA-256
prefix of its exponents.  The time is the call alone, without the import
and the rebuild; the best run is reported.  Each form's rows must match the
SHA-256 recorded here and each value the recorded one.  ``--src`` picks the ``src`` directory to import
gkinv from (this checkout's by default), so that two trees can be timed on
the same list.  Prints one JSON object; exits 1 if any check failed.  The
list has no time bound; a full run takes a few minutes on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
RUNS = 3  # fresh processes per value; the best is reported

# name: (description, (builder, argument), rows SHA-256 prefix, expected
# values): each form is timed on the values of ``WHATS`` that it lists.  The
# certificate bytes are this program's, so ``--src`` on a tree that builds
# other certificates reports them as failed checks
FORMS = {
    "random3_80": (
        "random_form(80, PrimeContext(3), random.Random(80), height=14)",
        ("random_p3", "80"),
        "48318a9e3e6282d3",
        {"delta": 0, "xi": 1, "eta": 1},
    ),
    "random3_120": (
        "random_form(120, PrimeContext(3), random.Random(120), height=14)",
        ("random_p3", "120"),
        "35689d2b3de18cbe",
        {"delta": 0, "xi": 1, "eta": 1},
    ),
    "random3_150": (
        "the CI form, gkinv rand --n 150 --p 3 --seed 150 --height 14: "
        "random_form(150, PrimeContext(3), random.Random(150), height=14)",
        ("random_p3", "150"),
        "dbcfa0574b7fa093",
        {"delta": 0, "xi": 1, "eta": 1},
    ),
    "random3_80d1": (
        'd = 1: random_form(80, PrimeContext(3), random.Random("80/3"), height=14)',
        ("random_p3", "80/3"),
        "cdb6f86516754fdc",
        {
            "reduce": {"bytes": 106344, "ua_sha256": "8db9caaaee50bd31"},
            "egk": {"n": [79, 1], "m": [0, 1], "zeta": [1, 0]},
        },
    ),
    "random3_120d1": (
        'd = 1: random_form(120, PrimeContext(3), random.Random("120/5"), height=14)',
        ("random_p3", "120/5"),
        "d3518af3cf52ac69",
        {
            "reduce": {"bytes": 241109, "ua_sha256": "383fbba58ec43c9f"},
            "egk": {"n": [119, 1], "m": [0, 1], "zeta": [1, 0]},
        },
    ),
    "random2_30": (
        "random_form(30, PrimeContext(2), random.Random(30), height=14)",
        ("random_p2", "30"),
        "9754d1af8dbdc081",
        {
            "reduce": {"bytes": 53011, "ua_sha256": "56029e1b16233d28"},
            "egk": {"n": [29, 1], "m": [0, 1], "zeta": [1, 0]},
        },
    ),
    "random2_50": (
        "random_form(50, PrimeContext(2), random.Random(50), height=14)",
        ("random_p2", "50"),
        "40c84f007cd1465b",
        {
            "reduce": {"bytes": 225999, "ua_sha256": "9c64995b3ba44945"},
            "egk": {"n": [50], "m": [0], "zeta": [1]},
        },
    ),
    "random2_70": (
        "random_form(70, PrimeContext(2), random.Random(70), height=14)",
        ("random_p2", "70"),
        "ebb5247d48cac094",
        {
            "reduce": {"bytes": 601528, "ua_sha256": "e20f3e34c587e858"},
            "egk": {"n": [70], "m": [0], "zeta": [1]},
        },
    ),
    "many3_40": (
        "many-block p = 3 form at n = 40: diag(unit·3^a_i), a_i in 0..6, "
        "scrambled by random_unimodular(40, steps=240)",
        ("many_block_p3", "40"),
        "77f0efa016cbf978",
        {
            "delta": 122, "xi": -1, "eta": -1,
            "reduce": {"bytes": 31156, "ua_sha256": "70ac40aa46ee1d6b"},
            "egk": {"n": [5, 7, 6, 3, 6, 8, 5], "m": [0, 1, 2, 3, 4, 5, 6],
                    "zeta": [1, 0, 0, 1, 1, -1, -1]},
        },
    ),
    "many3_80": (
        "many-block p = 3 form at n = 80: diag(unit·3^a_i), a_i in 0..6, "
        "scrambled by random_unimodular(80, steps=480)",
        ("many_block_p3", "80"),
        "39baea0dbc49a0bb",
        {
            "delta": 209, "xi": 0, "eta": -1,
            "reduce": {"bytes": 88383, "ua_sha256": "817ddf23a1e04f40"},
            "egk": {"n": [12, 12, 17, 11, 14, 10, 4], "m": [0, 1, 2, 3, 4, 5, 6],
                    "zeta": [-1, -1, 1, 0, 0, 0, 0]},
        },
    ),
    "many3_120": (
        "many-block p = 3 form at n = 120: diag(unit·3^a_i), a_i in 0..6, "
        "scrambled by random_unimodular(120, steps=720)",
        ("many_block_p3", "120"),
        "4815770c9a9a5740",
        {
            "delta": 365, "xi": 0, "eta": -1,
            "reduce": {"bytes": 242914, "ua_sha256": "41f966eeda9389eb"},
            "egk": {"n": [13, 18, 23, 15, 16, 18, 17], "m": [0, 1, 2, 3, 4, 5, 6],
                    "zeta": [1, 1, 1, 1, -1, -1, 0]},
        },
    ),
}
WHATS = ("delta", "xi", "eta", "reduce", "egk")

BUILD = """
import json, random, sys
from gkinv.forms import _from_rows, random_form, random_unimodular, transform
from gkinv.padic import PrimeContext

def random_p(p, arg):
    # "n" seeds random.Random(n), "n/k" seeds random.Random("n/k")
    n = int(arg.split("/")[0])
    return random_form(n, PrimeContext(p), random.Random(arg if "/" in arg else n), height=14)

def many_block_p3(arg):
    n = int(arg)
    rng, ctx = random.Random(n), PrimeContext(3)
    a = sorted(rng.randint(0, 6) for _ in range(n))
    d = [rng.choice((1, 2, 4, 5, 7, 8)) * 3**ai for ai in a]
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    u = random_unimodular(n, ctx, rng, steps=6 * n, height=2)
    return transform(_from_rows(diag, 1, ctx), u)

build, arg, path = sys.argv[1:4]
builders = {
    "random_p2": lambda arg: random_p(2, arg),
    "random_p3": lambda arg: random_p(3, arg),
    "many_block_p3": many_block_p3,
}
form = builders[build](arg)
json.dump({"p": form.ctx.p, "den": form.den, "rows": form.rows}, open(path, "w"))
"""

# prints {what: {"value": ..., "s": seconds}}; "reduce" times reduce_form and
# then egk_of on the same form, so it prints "egk" too
TIME = """
import hashlib, json, sys, time
from gkinv import forms, invariants, reducer
from gkinv.cli import _cert_payload
from gkinv.padic import PrimeContext

what, path = sys.argv[1:3]
d = json.load(open(path))
form = forms._from_rows(d["rows"], d["den"], PrimeContext(d["p"]))
out = {}
if what == "reduce":
    start = time.perf_counter()
    cert = reducer.reduce_form(form)
    between = time.perf_counter()
    datum = invariants.egk_of(form)
    end = time.perf_counter()
    text = json.dumps(_cert_payload(cert), sort_keys=True, separators=(",", ":"))
    ua = hashlib.sha256(json.dumps(cert.exps).encode()).hexdigest()[:16]
    out["reduce"] = {"value": {"bytes": len(text), "ua_sha256": ua}, "s": between - start}
    out["egk"] = {"value": {"n": datum.sizes, "m": datum.exps, "zeta": datum.zeta}, "s": end - between}
else:
    fn = {"delta": forms.delta, "xi": invariants.xi, "eta": invariants.eta}[what]
    start = time.perf_counter()
    value = fn(form)
    out[what] = {"value": value, "s": time.perf_counter() - start}
print(json.dumps(out))
"""


def _python(code: str, args, src: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


def _digest(path: Path) -> str:
    d = json.loads(path.read_text())
    blob = json.dumps([d["p"], d["den"], d["rows"]], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def measure(name: str, src: Path, work: Path) -> dict:
    what_form, (build, arg), digest, expected = FORMS[name]
    path = work / f"{name}.json"
    _python(BUILD, [build, arg, path], src)
    got_digest = _digest(path)
    runs_s, values = {}, {}
    # reduce_form and egk_of share a process
    for what in [w for w in WHATS if w in expected and w != "egk"]:
        for _ in range(RUNS):
            for w, got in json.loads(_python(TIME, [what, path], src)).items():
                runs_s.setdefault(w, []).append(round(got["s"], 4))
                if got["value"] not in values.setdefault(w, []):
                    values[w].append(got["value"])
    ok = got_digest == digest and all(values[w] == [expected[w]] for w in expected)
    return {
        "form": what_form,
        "rows_sha256": got_digest,
        "values": {w: v[0] if len(v) == 1 else v for w, v in values.items()},
        "ok": ok,
        "best_s": {w: min(r) for w, r in runs_s.items()},
        "runs_s": runs_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", action="append", choices=sorted(FORMS), metavar="NAME",
                    help="time only this form (repeatable); one of " + ", ".join(FORMS))
    ap.add_argument("--src", type=Path, default=SRC, help="the src directory to import gkinv from")
    args = ap.parse_args(argv)
    names = args.only or list(FORMS)
    with tempfile.TemporaryDirectory() as work:
        results = {name: measure(name, args.src.resolve(), Path(work)) for name in names}
    out = {
        "what": f"seconds of the call alone, best of {RUNS} fresh processes, "
                "on a form rebuilt by forms._from_rows (no det, pivot chain or certificate "
                "cached); egk is egk_of after reduce_form in the same process",
        "src": str(args.src.resolve()),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "ok": all(r["ok"] for r in results.values()),
        "forms": results,
    }
    print(json.dumps(out, indent=1))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
