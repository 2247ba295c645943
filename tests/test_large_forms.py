"""A smoke test of ``tools/large_forms.py`` on the smallest entry of its
list, best of three fresh processes per value: the form's rows match the
recorded digest, every value the recorded one (delta, xi, eta, the kept
certificate's bytes and exponents, and egk_of after reduce_form), and the
script prints one JSON object with three times for each value."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "large_forms.py"


def test_the_smallest_large_form_checks_out():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--only", "many3_40"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["ok"] and list(doc["forms"]) == ["many3_40"]
    entry = doc["forms"]["many3_40"]
    values = entry["values"]
    assert {w: values[w] for w in ("delta", "xi", "eta")} == {"delta": 122, "xi": -1, "eta": -1}
    assert values["reduce"] == {"bytes": 31156, "ua_sha256": "70ac40aa46ee1d6b"}
    assert values["egk"]["m"] == [0, 1, 2, 3, 4, 5, 6]
    assert set(entry["best_s"]) == {"delta", "xi", "eta", "reduce", "egk"}
    assert all(len(runs) == 3 for runs in entry["runs_s"].values())
