"""A smoke test of ``tools/large_forms.py`` on the smallest entry of its
list, best of three fresh processes per value: the form's rows match the
recorded digest, every value the recorded one, and the script prints one
JSON object with three times for each value."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "large_forms.py"


def test_the_smallest_large_form_checks_out():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--only", "many3_80"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["ok"] and list(doc["forms"]) == ["many3_80"]
    entry = doc["forms"]["many3_80"]
    assert entry["values"] == {"delta": 209, "xi": 0, "eta": -1}
    assert set(entry["best_s"]) == {"delta", "xi", "eta"}
    assert all(len(runs) == 3 for runs in entry["runs_s"].values())
