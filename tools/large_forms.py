#!/usr/bin/env python3
"""Time the invariants of B on a fixed list of large forms, each in a fresh
process, and check every value.

    python3 tools/large_forms.py [--only NAME ...] [--src DIR]

For each form of ``FORMS`` one process builds the form and writes its rows
to a scratch file; then ``delta``, ``xi`` and ``eta`` are each timed in
``RUNS`` fresh processes, on a form rebuilt from those rows
by ``forms._from_rows``, so that no det or pivot chain is cached.  The time
is the call alone, without the import and the rebuild; the best run is
reported.  Each form's rows must match the SHA-256 recorded here and each
value the recorded one.  ``--src`` picks the ``src`` directory to import
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
WHATS = ("delta", "xi", "eta")
RUNS = 3  # fresh processes per value; the best is reported

# name: (description, (builder, n), rows SHA-256 prefix, expected values)
FORMS = {
    "random3_80": (
        "random_form(80, PrimeContext(3), random.Random(80), height=14)",
        ("random_p3", 80),
        "48318a9e3e6282d3",
        {"delta": 0, "xi": 1, "eta": 1},
    ),
    "random3_120": (
        "random_form(120, PrimeContext(3), random.Random(120), height=14)",
        ("random_p3", 120),
        "35689d2b3de18cbe",
        {"delta": 0, "xi": 1, "eta": 1},
    ),
    "random3_150": (
        "the CI form, gkinv rand --n 150 --p 3 --seed 150 --height 14: "
        "random_form(150, PrimeContext(3), random.Random(150), height=14)",
        ("random_p3", 150),
        "dbcfa0574b7fa093",
        {"delta": 0, "xi": 1, "eta": 1},
    ),
    "many3_80": (
        "many-block p = 3 form at n = 80: diag(unit·3^a_i), a_i in 0..6, "
        "scrambled by random_unimodular(80, steps=480)",
        ("many_block_p3", 80),
        "39baea0dbc49a0bb",
        {"delta": 209, "xi": 0, "eta": -1},
    ),
    "many3_120": (
        "many-block p = 3 form at n = 120: diag(unit·3^a_i), a_i in 0..6, "
        "scrambled by random_unimodular(120, steps=720)",
        ("many_block_p3", 120),
        "4815770c9a9a5740",
        {"delta": 365, "xi": 0, "eta": -1},
    ),
}

BUILD = """
import json, random, sys
from gkinv.forms import _from_rows, random_form, random_unimodular, transform
from gkinv.padic import PrimeContext

def random_p3(n):
    return random_form(n, PrimeContext(3), random.Random(n), height=14)

def many_block_p3(n):
    rng, ctx = random.Random(n), PrimeContext(3)
    a = sorted(rng.randint(0, 6) for _ in range(n))
    d = [rng.choice((1, 2, 4, 5, 7, 8)) * 3**ai for ai in a]
    diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    u = random_unimodular(n, ctx, rng, steps=6 * n, height=2)
    return transform(_from_rows(diag, 1, ctx), u)

build, n, path = sys.argv[1:4]
form = {"random_p3": random_p3, "many_block_p3": many_block_p3}[build](int(n))
json.dump({"p": form.ctx.p, "den": form.den, "rows": form.rows}, open(path, "w"))
"""

TIME = """
import json, sys, time
from gkinv import forms, invariants
from gkinv.padic import PrimeContext

what, path = sys.argv[1:3]
d = json.load(open(path))
form = forms._from_rows(d["rows"], d["den"], PrimeContext(d["p"]))
fn = {"delta": forms.delta, "xi": invariants.xi, "eta": invariants.eta}[what]
start = time.perf_counter()
value = fn(form)
print(json.dumps({"value": value, "s": time.perf_counter() - start}))
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
    what_form, (build, n), digest, expected = FORMS[name]
    path = work / f"{name}.json"
    _python(BUILD, [build, n, path], src)
    got_digest = _digest(path)
    runs_s, values = {}, {}
    for what in WHATS:
        outs = [json.loads(_python(TIME, [what, path], src)) for _ in range(RUNS)]
        runs_s[what] = [round(o["s"], 4) for o in outs]
        values[what] = sorted({o["value"] for o in outs})
    ok = got_digest == digest and all(values[w] == [expected[w]] for w in WHATS)
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
                "on a form rebuilt by forms._from_rows (no det or pivot chain cached)",
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
