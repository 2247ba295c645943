"""Shared definitions of the benchmark: where the program lives, the
percentile rule, and the metric catalogue that BENCHMARK.json mirrors."""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def ensure_src() -> None:
    """Put the checkout's own ``src`` first on the import path.

    The benchmark builds nothing and installs nothing: it measures the
    package sources of the checkout it sits in, and refuses to run (rather
    than silently measuring some other installed copy) when they are absent.
    """
    if not (SRC / "gkinv" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no gkinv sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


# Percentiles are nearest-rank, so every reported latency is one measured
# form.  A tail percentile is reported only when at least TAIL_BEYOND samples
# lie strictly above it; quantiles are integer fractions so the rank is exact.
P50 = (1, 2)
P90 = (9, 10)
TAIL_BEYOND = 10


def rank(n: int, q: tuple[int, int]) -> int:
    """1-based nearest rank of quantile q among n samples: ceil(q * n)."""
    num, den = q
    return max(1, -(-num * n // den))


def beyond(n: int, q: tuple[int, int]) -> int:
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - rank(n, q)


def min_samples(q: tuple[int, int], tail: int = TAIL_BEYOND) -> int:
    """Fewest samples for which ``tail`` samples lie beyond the q-quantile."""
    n = 1
    while beyond(n, q) < tail:
        n += 1
    return n


MIN_SAMPLES = min_samples(P90)  # 100


def percentile(values, q: tuple[int, int]) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


# Reference-speed timing.  The machines this runs on are shared: a fixed
# piece of Python runs anywhere from 1.0 to 1.9 times its best time, in
# stretches of a second to minutes, which moves whole runs by tens of
# percent.  Every timed span is therefore scaled by REF_PROBE_S over the time
# of a fixed Fraction computation (the probe) run right before and after it.
# The probe slows down with the machine just as gkinv's own Fraction
# arithmetic does, so a scaled time is what the span takes on a machine
# where the probe takes REF_PROBE_S: on a quiet 2-vCPU Xeon VM with Python
# 3.11, where REF_PROBE_S was measured, it equals wall time.  Reports print
# the measured speed beside the metrics.
REF_PROBE_S = 0.0025
_PROBE_M = [[Fraction(3 * i + j + 1, 2 * j + 3) for j in range(5)] for i in range(5)]


def probe() -> float:
    """Seconds taken by a fixed piece of Fraction arithmetic."""
    t0 = time.perf_counter()
    m = _PROBE_M
    for _ in range(6):
        m = [[sum(x * y for x, y in zip(r, c)) % 1000003 for c in zip(*_PROBE_M)] for r in m]
    return time.perf_counter() - t0


def probe_cpus() -> float:
    """The probe's mean time over every CPU this process may run on, for
    spans that keep several CPUs busy (the CLI's worker pool)."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def speed(before: float, after: float) -> float:
    """Reference seconds per wall second for a span between two probes."""
    return 2 * REF_PROBE_S / (before + after)


WORKLOADS = {
    "dyadic_scrambled": (
        "p=2 scrambled synthesized forms: reaches parity-collision shears, "
        "cross-block pairs and large exponents; time goes to the dyadic "
        "search and linalg, and each form is reduced twice"
    ),
    "odd_random": (
        "random p=3,5 forms at height 6, n=6,8: the common case where gk is "
        "small; time goes to jordan_split and dense congruence"
    ),
    "verify_invariants": (
        "constructed p=2,3 certificates, a quarter tampered: the verifier's "
        "accept and reject paths plus eta/xi/delta, with no search"
    ),
    "cli_batch": (
        "JSON batch files of small p=2,3,5,7 forms through gkinv reduce "
        "--jobs 2: the only workload that runs the cli layer and its pool"
    ),
}

# (name, unit, better, bound).  Each bound is about three times the largest
# spread (interquartile range over median) that ten seeds gave on any
# workload (bench/baseline.json); setup_s carries the largest bound.
END_TO_END = [
    ("forms_per_s", "forms/s", "higher", 0.24),
    ("form_ms_p50", "ms", "lower", 0.1),
    ("form_ms_p90", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cert_bytes_per_form", "bytes", "lower", 0.05),
]

LAYERS = ("padic", "linalg", "forms", "involutions", "reducer", "invariants", "egk")

# Wrapped functions whose calls and self time are reported per form.  Every
# public function of LAYERS is wrapped; these are the ones a planned change
# is expected to move and some workload calls (no workload calls
# invariants.gk: egk_of and reduce_form stand for it).  The full table goes
# to the trace file.
REPORTED_FUNCTIONS = (
    "linalg.congruence",
    "linalg.matmul",
    "linalg.det",
    "linalg.inverse",
    "reducer.reduce_form",
    "reducer.is_reduced",
    "reducer.complete_square",
    "reducer.jordan_split",
    "reducer.verify_certificate",
    "padic.valuation",
    "padic.hilbert_symbol",
    "padic.quad_ext",
    "padic.is_square",
    "padic.legendre",
    "invariants.eta",
    "invariants.xi",
    "invariants.egk_of",
    "forms.validate_form",
    "forms.is_unimodular",
    "forms.matrix_in_lattice",
    "forms.delta",
    "involutions.is_standard",
    "involutions.standard_involutions",
    "involutions.blocks",
    "egk.validate_egk",
)


def _per_layer() -> list[tuple[str, str, str]]:
    out = []
    for label in REPORTED_FUNCTIONS:
        out.append((f"{label}.calls", "calls/form", "lower"))
        out.append((f"{label}.self_ms", "ms/form", "lower"))
    out += [(f"{layer}.self_ms", "ms/form", "lower") for layer in LAYERS]
    out += [
        ("linalg.matmul.madds", "madds/form", "lower"),
        ("reducer.is_reduced.per_coord", "calls/coord", "lower"),
        ("reducer.reductions_per_form", "calls/form", "lower"),
        ("reducer.cert_u_bits_max", "bits", "lower"),
        ("cli.jobs1_forms_per_s", "forms/s", "higher"),
        ("cli.pool_speedup", "ratio", "higher"),
        ("cli.overhead_ms_per_form", "ms/form", "lower"),
        ("cli.stdout_bytes_per_form", "bytes/form", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.wall_ms_per_form", "ms/form", "lower"),
        ("trace.unwrapped_ms_per_form", "ms/form", "lower"),
    ]
    return out


PER_LAYER = _per_layer()
