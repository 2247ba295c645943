"""gkinv benchmark: certified-reduction throughput on four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...

NAME is one of dyadic_scrambled, odd_random, verify_invariants, cli_batch.
The run generates its inputs from the seed, times set-up in fresh processes,
measures one worker process for S seconds, checks every output, and prints
each metric by name and unit.  Times are in reference seconds: wall time
scaled by a speed probe run next to it (see measure.REF_PROBE_S).  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

from measure import (
    BENCH,
    END_TO_END,
    MIN_SAMPLES,
    PER_LAYER,
    WORK,
    WORKLOADS,
    ensure_src,
    median,
    probe,
    speed,
)

SETUP_RUNS = 2  # set-up-only processes per run; the worker's own set-up is a third sample
WORKER_LIMIT_S = 170  # a run must end within 180 s
CLI_BATCHES = 5  # gkinv reduce invocations per cli_batch run


def spawn_json(args, timeout):
    """Run a Python helper in its own process group; return (spawn time,
    parsed last stdout line or None, error text)."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=BENCH,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return t_spawn, None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return t_spawn, None, err.decode()[-2000:]
    return t_spawn, json.loads(out.decode().strip().splitlines()[-1]), ""


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import corpus

    deadline = time.monotonic() + WORKER_LIMIT_S
    gen, cycle = corpus.GENERATORS[name]
    items = gen(seed, corpus.pool_size(name, seconds, MIN_SAMPLES))
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = {
            "workload": name,
            "seconds": seconds,
            "trace": int(trace),
            "cycle": cycle,
            "items": [payload for payload, _ in items],
            "expected_path": str(work / "expected.json"),
            "cli_timeout": max(30, 5 * seconds),
            "deadline": deadline - 5,
            "trace_path": str(WORK / f"trace-{name}-{seed}.json") if trace else "",
        }
        (work / "expected.json").write_text(json.dumps([exp for _, exp in items]))
        if name == "cli_batch":
            spec["batch_bounds"] = batch_bounds(len(items), cycle)
            spec["batch_paths"] = []
            for k, (lo, hi) in enumerate(spec["batch_bounds"]):
                path = work / f"batch{k}.json"
                path.write_text(json.dumps(spec["items"][lo:hi]))
                spec["batch_paths"].append(str(path))
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec))

        # set-up in fresh processes, in reference seconds like every other
        # time: start-up and imports scaled by the probes just before the
        # spawn and just after the imports, parsing by the probes around it
        setups = []
        setup_runs = SETUP_RUNS if (not trace or name == "cli_batch") else 0
        for args in [["--setup-only"]] * setup_runs + [[]]:
            before = probe()
            t_spawn, res, err = spawn_json(
                ["worker.py", str(spec_path), *args], deadline - time.monotonic()
            )
            if res is None:
                return failed_run(len(items), f"worker failed: {err}")
            stamps, (p_import, p_ready) = res["stamps"], res["probes"]
            start = (stamps["t_import"] - t_spawn) * speed(before, p_import)
            parse = (stamps["t_ready"] - stamps["t_parse"]) * speed(p_import, p_ready)
            setups.append(start + parse)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = res["metrics"]
    if trace:
        for key, _, _ in PER_LAYER:
            metrics.setdefault(key, 0.0)
    else:
        metrics["setup_s"] = median(setups)
    res["setup_samples"] = len(setups)
    return res


def batch_bounds(count: int, cycle: int) -> list[tuple[int, int]]:
    """CLI_BATCHES consecutive slices of whole shape cycles covering count."""
    cycles = -(-count // cycle)
    cuts = [cycle * (cycles * k // CLI_BATCHES) for k in range(CLI_BATCHES + 1)]
    cuts[-1] = count
    return list(zip(cuts, cuts[1:]))


def failed_run(attempted: int, why: str) -> dict:
    return {"attempted": attempted, "failed": attempted, "failures": [[-1, why]], "metrics": {}}


NOTES = {
    ("cli_batch", "form_ms_p50"): "reduce_form in-process on 300 of the batch's forms",
    ("cli_batch", "form_ms_p90"): "reduce_form in-process on 300 of the batch's forms",
    ("cli_batch", "peak_rss_mb"): "largest process of the gkinv reduce tree",
    ("verify_invariants", "cert_bytes_per_form"): "input certificates; no reduction here",
}


def report(name: str, res: dict, trace: bool) -> None:
    print(f"== {name}: {WORKLOADS[name]}")
    catalogue = PER_LAYER if trace else [(n, u, b) for n, u, b, _ in END_TO_END]
    for key, unit, _ in catalogue:
        value = res["metrics"].get(key)
        shown = "missing" if value is None else f"{value:.6g}"
        note = NOTES.get((name, key), "") if not trace else ""
        print(f"  {key:40s} {shown:>14s} {unit}" + (f"  ({note})" if note else ""))
    attempted, failed = res["attempted"], res["failed"]
    print(f"  {'failed_frac':40s} {failed / max(attempted, 1):>14.6g} frac  ({failed} of {attempted} forms)")
    if "samples" in res:
        print(f"  latency samples: {res['samples']}; set-up samples: {res['setup_samples']}")
    if "speed" in res:
        print(
            f"  machine speed: {res['speed']:.3f} of reference (median); "
            f"forms_per_s on the wall clock: {res['wall_forms_per_s']:.6g}"
        )
    if "stdout_sha256" in res:
        print(f"  gkinv reduce stdout sha256: {res['stdout_sha256']}")
    for index, why in res.get("failures", []):
        print(f"  FAILED form {index}: {why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ensure_src()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name], bool(args.trace))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    catalogue = PER_LAYER if args.trace else [(n, u, b) for n, u, b, _ in END_TO_END]
    units = {key: unit for key, unit, _ in catalogue}
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for key, value in res["metrics"].items():
            if key in units and math.isfinite(value):
                metrics[prefix + key] = {"value": value, "unit": units[key]}
    correct = failed == 0 and all(len(r["metrics"]) >= len(units) for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
