"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

import json
import random

import pytest

import corpus
import run
import worker
from measure import (
    END_TO_END,
    MIN_SAMPLES,
    P50,
    P90,
    PER_LAYER,
    ROOT,
    REF_PROBE_S,
    WORKLOADS,
    beyond,
    min_samples,
    percentile,
    rank,
    speed,
)
from spans import Tracer, root_time, self_times

from gkinv.padic import PrimeContext
from gkinv.forms import random_form
from gkinv.reducer import reduce_form


@pytest.mark.parametrize("workload", sorted(corpus.GENERATORS))
def test_generators_are_deterministic_per_seed(workload):
    gen, cycle = corpus.GENERATORS[workload]
    count = max(cycle, 12)
    first = gen(5, count)
    assert first == gen(5, count)
    assert first != gen(6, count)
    assert len(first) == count
    # the size mix does not depend on the seed
    shape = lambda items: [(p["p"], len(p["matrix"])) for p, _ in items]  # noqa: E731
    assert shape(first) == shape(gen(6, count))


def test_self_times_of_a_hand_built_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]; e [11, 12] is a
    # second root
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 8.0, 12.0]
    assert self_times(parent, start, end) == [3.0, 3.0, 2.0, 2.0, 1.0]
    assert root_time(parent, start, end) == 11.0
    assert sum(self_times(parent, start, end)) == root_time(parent, start, end)


def test_tracer_sees_calls_through_every_importing_module():
    import gkinv.padic
    import gkinv.reducer

    original = gkinv.reducer.valuation
    tracer = Tracer(("padic", "linalg", "forms", "involutions", "reducer", "invariants", "egk"))
    form = random_form(4, PrimeContext(3), random.Random(1), height=3)
    tracer.form_id = 0
    tracer.install()
    try:
        assert gkinv.reducer.valuation is not original
        assert gkinv.reducer.valuation is gkinv.padic.valuation
        gkinv.reducer.reduce_form(form)
    finally:
        tracer.uninstall()
    assert gkinv.reducer.valuation is original
    totals = tracer.totals()
    assert totals["reducer.reduce_form"][0] == 1
    assert totals["reducer.jordan_split"][0] == 1
    assert totals["padic.valuation"][0] > 0
    assert tracer.counts["linalg.matmul"] > 0
    own = sum(t for _, t in totals.values())
    assert own == pytest.approx(root_time(tracer.parent, tracer.start, tracer.end))
    assert set(tracer.form) == {0}


def test_p90_needs_ten_samples_beyond_it():
    assert MIN_SAMPLES == min_samples(P90) == 100
    assert beyond(100, P90) == 10
    assert beyond(99, P90) == 9
    # exact integer ranks: 0.9 * 100 is 90.00000000000001 in floating point
    assert rank(100, P90) == 90
    assert rank(10, P50) == 5 and rank(11, P50) == 6
    values = list(range(1, 101))
    assert percentile(values, P90) == 90
    assert percentile(reversed(values), P50) == 50


def test_closed_loop_scales_each_form_by_the_probes_around_it(monkeypatch):
    probes = iter([0.005, 0.0025, 0.0025])  # first chunk at half speed
    monkeypatch.setattr(worker, "probe", lambda: next(probes))
    monkeypatch.setattr(worker, "PROBE_EVERY_S", 0.0)
    loop = worker.closed_loop([1, 2], [0, 1], lambda x: x)
    assert loop.outputs == [1, 2]
    assert loop.speed == [speed(0.005, 0.0025), speed(0.0025, 0.0025)]
    assert speed(0.0025, 0.0025) == REF_PROBE_S / 0.0025 == 1.0
    assert loop.times == [t * f for t, f in zip(loop.wall, loop.speed)]


def test_constructed_certificates_accepted_tampered_rejected():
    items = corpus.verify_invariants(3, 160)
    genuine = [exp["genuine"] for _, exp in items]
    assert 0 < genuine.count(False) < len(items) / 2
    for payload, exp in items:
        form, cert = worker.parse_item("verify_invariants", payload)
        ok, reason = worker.verify_certificate(form, cert)
        assert ok == exp["genuine"], reason


def test_odd_reference_agrees_with_the_reducer():
    for payload, exp in corpus.odd_random(2, 12):
        form = worker.parse_form(payload)
        assert list(reduce_form(form).exps) == exp["exps"]


def test_cli_batches_take_whole_cycles_and_cover_the_batch():
    bounds = run.batch_bounds(1234, 20)
    assert bounds[0][0] == 0 and bounds[-1][1] == 1234
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    assert all(lo % 20 == 0 for lo, _ in bounds)
    assert len(bounds) == run.CLI_BATCHES


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == list(WORKLOADS.values())
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    bounds = {m[0]: m[3] for m in END_TO_END}
    assert all(b < bounds["setup_s"] <= 0.25 for name, b in bounds.items() if name != "setup_s")
