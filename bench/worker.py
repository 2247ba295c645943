"""The measured process of one benchmark run.

    python3 bench/worker.py SPEC.json [--setup-only]

It imports gkinv, parses the run's inputs with ``validate_form`` and stamps
the moment it is ready for its first timed call (``--setup-only`` stops
there).  It then times one form at a time in a closed loop with one caller,
runs the untimed output checks, and prints one JSON result on stdout.  On
``cli_batch`` the timed work is ``gkinv reduce`` in a subprocess.

Time stamps taken across processes use ``time.monotonic``, a system-wide
clock on Linux, so the parent can subtract its own spawn time.  Every timed
span also records the speed probes around it (``measure.probe``), and the
reported times are in reference seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

from measure import (
    LAYERS,
    MIN_SAMPLES,
    P50,
    P90,
    REPORTED_FUNCTIONS,
    SRC,
    ensure_src,
    median,
    percentile,
    probe,
    probe_cpus,
    speed,
)

ensure_src()

import gkinv  # noqa: E402
from gkinv.forms import delta, validate_form  # noqa: E402
from gkinv.involutions import GKType  # noqa: E402
from gkinv.linalg import mat  # noqa: E402
from gkinv.padic import PrimeContext  # noqa: E402
from gkinv.reducer import ReductionCertificate, verify_certificate  # noqa: E402

CLI_MAIN = "import sys; from gkinv.cli import main; sys.exit(main())"
# What `gkinv reduce --jobs 1` does per item, without the CLI around it: the
# difference in time between the two is the cli layer's own cost.
PLAIN_MAIN = """
import json, sys
from fractions import Fraction
from gkinv.forms import validate_form
from gkinv.padic import PrimeContext
from gkinv.reducer import reduce_form
with open(sys.argv[1]) as fh:
    for p in json.load(fh):
        rows = [[Fraction(x) for x in row] for row in p["matrix"]]
        reduce_form(validate_form(rows, PrimeContext(p["p"])))
"""
LATENCY_SAMPLES = 3 * MIN_SAMPLES  # in-process latency sample on cli_batch
PROBE_EVERY_S = 0.02  # timed work between two speed probes


def parse_form(payload):
    rows = [[Fraction(x) for x in row] for row in payload["matrix"]]
    return gkinv.forms.validate_form(rows, PrimeContext(payload["p"]))


def parse_cert(payload, ctx) -> ReductionCertificate:
    rows = [[Fraction(x) for x in row] for row in payload["R"]]
    sigma = tuple(s - 1 for s in payload["sigma"])
    gk_type = GKType(tuple(payload["ua"]), sigma)
    return ReductionCertificate(mat(payload["U"]), validate_form(rows, ctx), gk_type)


def parse_item(workload: str, payload):
    form = parse_form(payload)
    if workload == "verify_invariants":
        return form, parse_cert(payload["cert"], form.ctx)
    return form


# The timed call per form, as a user of the library makes it.  Functions are
# looked up on their modules at call time so that traced runs see the
# wrappers patched in there.
def call_reduce(form):
    return gkinv.reducer.reduce_form(form)


def call_parse_reduce(payload):
    """What `gkinv reduce` does per item, without the CLI around it."""
    return gkinv.reducer.reduce_form(parse_form(payload))


def call_dyadic(form):
    return gkinv.reducer.reduce_form(form), gkinv.invariants.egk_of(form)


def call_verify(item):
    form, cert = item
    return (
        gkinv.reducer.verify_certificate(form, cert),
        gkinv.invariants.eta(form),
        gkinv.invariants.xi(form),
        gkinv.forms.delta(form),
    )


CALLS = {
    "dyadic_scrambled": call_dyadic,
    "odd_random": call_reduce,
    "verify_invariants": call_verify,
}


def cert_json(payload) -> str:
    """A certificate as `gkinv reduce` prints it."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cert_payload(cert: ReductionCertificate) -> dict:
    from gkinv.cli import _cert_payload  # the CLI's own serializer

    return _cert_payload(cert)


def u_bits(u) -> int:
    """Largest numerator or denominator size in U, in bits."""
    return max(
        max(Fraction(x).numerator.bit_length(), Fraction(x).denominator.bit_length())
        for row in u
        for x in row
    )


class Loop:
    """Per-form results of a closed loop, in the order the forms ran: wall
    time, and the reference-speed factor of the probes around it."""

    def __init__(self):
        self.index: list[int] = []
        self.wall: list[float] = []
        self.speed: list[float] = []
        self.outputs: list = []
        self.traced: list[bool] = []
        self.errors: dict[int, str] = {}

    @property
    def times(self) -> list[float]:
        """Per-form times in reference seconds."""
        return [t * f for t, f in zip(self.wall, self.speed)]

    def extend(self, other: "Loop") -> None:
        self.index += other.index
        self.wall += other.wall
        self.speed += other.speed
        self.outputs += other.outputs
        self.traced += other.traced
        self.errors.update(other.errors)

    def split(self, traced: bool) -> tuple[list[int], list[float]]:
        pairs = [(i, t) for i, t, on in zip(self.index, self.times, self.traced) if on == traced]
        return [i for i, _ in pairs], [t for _, t in pairs]


def closed_loop(items, indices, call, seconds=math.inf, min_count=0, tracer=None, traced=None):
    """Time call(items[i]) for one index after another until ``seconds`` have
    passed and ``min_count`` forms are done, or the indices run out.  A speed
    probe runs after every PROBE_EVERY_S of timed work, and each form takes
    the factor of the two probes around it.  With a tracer, indices for which
    ``traced(i)`` holds run with spans on."""
    loop = Loop()
    t_begin = time.perf_counter()
    before, chunk, work = probe(), 0, 0.0
    for i in indices:
        on = tracer is not None and traced(i)
        if on:
            tracer.form_id = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = call(items[i])
        except Exception as ex:  # a form that raises is a failed form
            out = None
            loop.errors[i] = f"{type(ex).__name__}: {ex}"
        dt = time.perf_counter() - t0
        if on:
            tracer.uninstall()
        loop.index.append(i)
        loop.wall.append(dt)
        loop.outputs.append(out)
        loop.traced.append(on)
        work += dt
        if work >= PROBE_EVERY_S:
            after = probe()
            loop.speed += [speed(before, after)] * (len(loop.wall) - chunk)
            before, chunk, work = after, len(loop.wall), 0.0
        if time.perf_counter() - t_begin >= seconds and len(loop.wall) >= min_count:
            break
    if chunk < len(loop.wall):
        loop.speed += [speed(before, probe())] * (len(loop.wall) - chunk)
    return loop


class Checks:
    """Untimed output checks; every failed check marks its form failed."""

    def __init__(self):
        self.failed: dict[int, str] = {}

    def expect(self, index: int, ok: bool, what: str) -> None:
        if not ok and index not in self.failed:
            self.failed[index] = what


def check_certificate(checks, i, form, cert, expected):
    ok, reason = verify_certificate(form, cert)
    checks.expect(i, ok, f"certificate rejected: {reason}")
    exps = list(cert.exps)
    checks.expect(i, exps == expected["exps"], f"exps {exps} != {expected['exps']}")
    checks.expect(i, sum(exps) == delta(form) == expected["delta"], "sum(gk) != delta")


def check_outputs(workload, forms, loop, expected, checks):
    for i, out in zip(loop.index, loop.outputs):
        if out is None:
            continue
        exp = expected[i]
        if workload == "verify_invariants":
            form, _ = forms[i]
            (ok, reason), e, x, d = out
            checks.expect(i, ok == exp["genuine"], f"verdict {ok} ({reason}), genuine={exp['genuine']}")
            checks.expect(i, d == exp["delta"] == sum(exp["exps"]), "delta != sum(gk)")
            last = x if form.n % 2 == 0 else e  # the whole form is the last block's subform
            checks.expect(i, last == exp["zeta_last"], f"last zeta {last} != {exp['zeta_last']}")
            continue
        cert = out[0] if workload == "dyadic_scrambled" else out
        check_certificate(checks, i, forms[i], cert, exp)
        if workload == "dyadic_scrambled":
            got = [list(out[1].sizes), list(out[1].exps), list(out[1].zeta)]
            checks.expect(i, got == exp["egk"], f"egk_of {got} != {exp['egk']}")


def run_python(code, args, timeout):
    """``python3 -c code *args`` on the checkout's sources, in its own process
    group so that a hang is ended together with any pool it started.
    Returns (wall s, stdout bytes or None, error text)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", code, *args]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        wait_group_gone(proc.pid)
        return time.monotonic() - t0, None, f"timed out after {timeout:.0f} s"
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        return wall, None, f"exit {proc.returncode}: {err.decode()[-300:]}"
    return wall, out, ""


def timed_python(code, args, spec):
    """run_python between two speed probes, within the run's deadline.
    Returns (reference seconds, stdout bytes or None, error text, speed
    factor)."""
    timeout = max(1.0, min(spec["cli_timeout"], spec["deadline"] - time.monotonic()))
    before = probe_cpus()
    wall, out, err = run_python(code, args, timeout)
    factor = speed(before, probe_cpus())
    return wall * factor, out, err, factor


def wait_group_gone(pgid: int, limit: float = 10.0) -> None:
    """Wait until no process of the killed group is left (pool workers are
    reaped by init once the CLI process is gone)."""
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def cli_runs(spec, forms, trace):
    """Each batch through `gkinv reduce --jobs 2`, then, on the same batch
    right after it so that both see the same machine: untraced, in-process
    reduce_form on the batch's first forms for the latency sample; traced,
    `gkinv reduce --jobs 1` and PLAIN_MAIN.  Returns {jobs or "plain":
    [timed_python(...)]}, the peak RSS of the largest CLI process in kB, and
    the latency loop."""
    runs = {2: [], 1: [], "plain": []} if trace else {2: []}
    loop = Loop()
    latency_per_batch = -(-LATENCY_SAMPLES // len(spec["batch_bounds"]))
    for path, (lo, hi) in zip(spec["batch_paths"], spec["batch_bounds"]):
        for jobs, done in runs.items():
            if jobs == "plain":
                done.append(timed_python(PLAIN_MAIN, [path], spec))
            else:
                args = ["reduce", "--input", path, "--jobs", str(jobs)]
                done.append(timed_python(CLI_MAIN, args, spec))
            if done[-1][1] is None:  # a hang or crash ends the CLI part
                return runs, 0, loop
        if not trace:
            loop.extend(closed_loop(forms, range(lo, min(hi, lo + latency_per_batch)), call_reduce))
    return runs, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, loop


def check_cli_output(stdout, forms, expected, lo, hi, checks, tag):
    try:
        certs = json.loads(stdout)
    except ValueError:
        certs = None
    if not isinstance(certs, list) or len(certs) != hi - lo:
        for i in range(lo, hi):
            checks.expect(i, False, f"{tag}: output is not one certificate per form")
        return []
    for i, payload in zip(range(lo, hi), certs):
        try:
            cert = parse_cert(payload, forms[i].ctx)
        except (KeyError, TypeError, ValueError) as ex:
            checks.expect(i, False, f"{tag}: bad certificate: {ex}")
            continue
        check_certificate(checks, i, forms[i], cert, expected[i])
    return certs


def check_cli(runs, forms, expected, bounds, checks):
    """Check every batch's certificates.  Returns the --jobs 2 certificates
    and the SHA-256 of the --jobs 2 stdout, batch after batch."""
    certs = []
    digest = hashlib.sha256()
    for jobs, done in runs.items():
        for k, (lo, hi) in enumerate(bounds):
            _, out, err, _ = done[k] if k < len(done) else (0, None, "not run", 0)
            if jobs == "plain" and out is not None:
                continue
            if out is None:
                for i in range(lo, hi):
                    checks.expect(i, False, f"gkinv reduce --jobs {jobs}: {err}")
                continue
            got = check_cli_output(out, forms, expected, lo, hi, checks, f"--jobs {jobs}")
            if jobs == 2:
                certs += got
                digest.update(out)
    if 1 in runs:
        for (lo, _), one, two in zip(bounds, runs[1], runs[2]):
            checks.expect(lo, one[1] == two[1], "--jobs 1 and --jobs 2 stdout differ")
    return certs, digest.hexdigest()


def layer_metrics(tracer, traced, plain_times, forms, certs_u_bits):
    """Per-form layer metrics of the traced forms, given as (index, reference
    seconds, speed factor) triples, and the overhead of tracing against the
    untraced forms of the same mix.  Span times are scaled by their form's
    speed factor, like every other time."""
    from spans import root_time

    nf = len(traced)
    weights = tracer.weights({i: factor for i, _, factor in traced})
    totals = tracer.totals(weights)
    out = {}
    for label in REPORTED_FUNCTIONS:
        calls, own = totals[label]
        out[f"{label}.calls"] = calls / nf
        out[f"{label}.self_ms"] = own * 1e3 / nf
    for layer in LAYERS:
        own = sum(t for label, (_, t) in totals.items() if label.split(".")[0] == layer)
        out[f"{layer}.self_ms"] = own * 1e3 / nf
    out["linalg.matmul.madds"] = tracer.counts["linalg.matmul"] / nf
    coords = sum(forms[i].n for i, _, _ in traced)
    out["reducer.is_reduced.per_coord"] = totals["reducer.is_reduced"][0] / coords
    out["reducer.reductions_per_form"] = totals["reducer.reduce_form"][0] / nf
    out["reducer.cert_u_bits_max"] = max(certs_u_bits, default=0)
    wall = sum(t for _, t, _ in traced)
    own_total = sum(t for _, t in totals.values())
    unwrapped = wall - root_time(tracer.parent, tracer.start, tracer.end, weights)
    # self times of all spans plus the time outside every span make up the
    # traced wall time; a mismatch means the span arithmetic is wrong
    if abs(own_total + unwrapped - wall) > 1e-6 * wall + 1e-9:
        raise AssertionError(f"self {own_total} + unwrapped {unwrapped} != wall {wall}")
    out["trace.wall_ms_per_form"] = wall * 1e3 / nf
    out["trace.unwrapped_ms_per_form"] = unwrapped * 1e3 / nf
    out["trace.overhead_frac"] = (wall / nf) / (sum(plain_times) / len(plain_times)) - 1
    return out


def failures(checks: Checks, attempted: int) -> dict:
    return {
        "attempted": attempted,
        "failed": len(checks.failed),
        "failures": sorted(checks.failed.items())[:5],
    }


def latency_metrics(times) -> dict:
    return {
        "form_ms_p50": percentile(times, P50) * 1e3,
        "form_ms_p90": percentile(times, P90) * 1e3,
    }


def load_expected(spec) -> list:
    """Expected answers, read only after the timed part of the run so that
    they do not count in its memory."""
    with open(spec["expected_path"]) as fh:
        return json.load(fh)


def measure_in_process(spec, forms, tracer, traced) -> dict:
    workload = spec["workload"]
    loop = closed_loop(
        forms, range(len(forms)), CALLS[workload], spec["seconds"], MIN_SAMPLES, tracer, traced
    )
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    expected = load_expected(spec)
    checks = Checks()
    for i, why in loop.errors.items():
        checks.expect(i, False, why)
    check_outputs(workload, forms, loop, expected, checks)
    if workload == "verify_invariants":  # the certificates it was given
        cert_bytes = [len(cert_json(spec["items"][i]["cert"])) for i in loop.index]
        bits = [u_bits(forms[i][1].u) for i in loop.index]
        plain_forms = [form for form, _ in forms]
    else:
        certs = [out if workload == "odd_random" else out[0] for out in loop.outputs if out]
        cert_bytes = [len(cert_json(cert_payload(c))) for c in certs]
        bits = [u_bits(c.u) for c in certs]
        plain_forms = forms
    out = failures(checks, len(loop.index))
    if tracer is not None:
        traced_forms = [
            (i, t, f) for i, t, f, on in zip(loop.index, loop.times, loop.speed, loop.traced) if on
        ]
        out["metrics"] = layer_metrics(
            tracer, traced_forms, loop.split(False)[1], plain_forms, bits
        )
        return out
    # certificate size over the first MIN_SAMPLES forms, which every run
    # completes, so that it depends on the seed and not on speed
    sample = cert_bytes[:MIN_SAMPLES]
    times = loop.times
    out["metrics"] = {
        "forms_per_s": len(times) / sum(times),
        **latency_metrics(times),
        "peak_rss_mb": rss_kb / 1024,
        "cert_bytes_per_form": sum(sample) / len(sample),
    }
    out["samples"] = len(times)
    out["speed"] = median(loop.speed)
    out["wall_forms_per_s"] = len(times) / sum(loop.wall)
    return out


def measure_cli(spec, forms, tracer, traced) -> dict:
    runs, rss_kb, loop = cli_runs(spec, forms, tracer is not None)
    bounds = spec["batch_bounds"]
    cli_ok = all(run[1] is not None for done in runs.values() for run in done)
    if tracer is not None:
        # in-process parse and reduce, as the CLI does per item, with whole
        # cycles traced and untraced in turn, like the other workloads
        loop = closed_loop(
            spec["items"], range(len(forms)), call_parse_reduce, spec["seconds"], 0, tracer, traced
        )
    expected = load_expected(spec)
    checks = Checks()
    for i, why in loop.errors.items():
        checks.expect(i, False, why)
    check_outputs("cli_batch", forms, loop, expected, checks)
    certs, digest = check_cli(runs, forms, expected, bounds, checks)
    out = failures(checks, len(forms))
    out["stdout_sha256"] = digest
    sizes = [hi - lo for lo, hi in bounds]
    if tracer is not None:
        traced_forms = [
            (i, t, f) for i, t, f, on in zip(loop.index, loop.times, loop.speed, loop.traced) if on
        ]
        out["metrics"] = metrics = layer_metrics(
            tracer, traced_forms, loop.split(False)[1], forms, [u_bits(c["U"]) for c in certs]
        )
        if cli_ok:
            rate1 = [n / run[0] for n, run in zip(sizes, runs[1])]
            rate2 = [n / run[0] for n, run in zip(sizes, runs[2])]
            metrics["cli.jobs1_forms_per_s"] = sum(sizes) / sum(run[0] for run in runs[1])
            metrics["cli.pool_speedup"] = median([b / a for a, b in zip(rate1, rate2)])
            metrics["cli.overhead_ms_per_form"] = median(
                [(one[0] - plain[0]) * 1e3 / n for n, one, plain in zip(sizes, runs[1], runs["plain"])]
            )
            metrics["cli.stdout_bytes_per_form"] = sum(len(run[1]) for run in runs[2]) / len(forms)
        return out
    times = loop.times
    out["metrics"] = metrics = latency_metrics(times)
    metrics["cert_bytes_per_form"] = sum(len(cert_json(c)) for c in certs) / max(len(certs), 1)
    if cli_ok:
        # the median run, so that one run on a busier pair of CPUs does not count
        metrics["forms_per_s"] = median([n / run[0] for n, run in zip(sizes, runs[2])])
        metrics["peak_rss_mb"] = rss_kb / 1024
        out["speed"] = median([run[3] for run in runs[2]])
        out["wall_forms_per_s"] = median([n / run[0] * run[3] for n, run in zip(sizes, runs[2])])
    out["samples"] = len(times)
    return out


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    workload = spec["workload"]
    if workload == "cli_batch":
        import gkinv.cli  # noqa: F401  (what the CLI process loads)
    t_import = time.monotonic()
    probe_import = probe()  # speed probes for the parent to scale set-up with
    t_parse = time.monotonic()
    forms = [parse_item(workload, payload) for payload in spec["items"]]
    t_ready = time.monotonic()
    result = {
        "stamps": {"t_import": t_import, "t_parse": t_parse, "t_ready": t_ready},
        "probes": [probe_import, probe()],
    }
    if "--setup-only" in sys.argv:
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(LAYERS)
    cycle = spec["cycle"]

    def traced(i):  # traced and untraced forms take whole cycles in turn
        return (i // cycle) % 2 == 1

    measure = measure_cli if workload == "cli_batch" else measure_in_process
    result.update(measure(spec, forms, tracer, traced))
    if tracer is not None and spec["trace_path"]:
        tracer.write(spec["trace_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
