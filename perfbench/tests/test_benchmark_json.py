"""``BENCHMARK.json`` agrees with the workload definitions and the
runner's metric tables."""

import json
import re
from pathlib import Path

from perfbench import sweep
from perfbench.workloads import SweepWorkload, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def test_every_workload_is_defined_and_explained():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(WORKLOADS)
    for entry in SPEC["workloads"]:
        workload = WORKLOADS[entry["name"]]
        why = entry["why"]
        assert "\n" not in why and len(why) <= 200
        if isinstance(workload, SweepWorkload):
            assert f"{workload.page_bytes} B" in why
            assert f"K={workload.constraint_length}" in why
        else:
            # The open-loop rate lives in the definition; the reason
            # quotes it so the JSON states the fixed rate too.
            assert f"{workload.rate:g}/s" in why


def test_metric_names_and_bounds():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_pinned_table1_rows_cover_every_scheme():
    rows = sweep.pinned_rows()
    assert len(rows) == len(sweep.TABLE1_SCHEMES)
    assert sweep.row_mismatches(rows, rows) == 0
    changed = [dict(row) for row in rows]
    changed[3]["lifetime_gain"] += 0.5
    assert sweep.row_mismatches(changed, rows) == 1
    assert sweep.row_mismatches(rows[:-1], rows) == 1
