"""The benchmark recorder merges BENCH files instead of overwriting them."""

from __future__ import annotations

import json
import os

from benchmarks.conftest import PerfRecorder


def test_flush_keeps_records_of_earlier_sessions(tmp_path) -> None:
    path = tmp_path / "BENCH_test.json"
    first = PerfRecorder()
    first.record("bench-a", iops=1.5)
    first.flush(path)
    second = PerfRecorder()
    second.record("bench-b", iops=2.5)
    second.flush(path)

    records = json.loads(path.read_text())["records"]
    assert set(records) == {"bench-a", "bench-b"}
    assert records["bench-a"]["iops"] == 1.5
    assert records["bench-b"]["iops"] == 2.5
    for record in records.values():
        assert record["cpus"] == os.cpu_count()


def test_same_name_record_is_updated(tmp_path) -> None:
    path = tmp_path / "BENCH_test.json"
    for iops in (1.0, 3.0):
        recorder = PerfRecorder()
        recorder.record("bench-a", iops=iops)
        recorder.flush(path)
    assert json.loads(path.read_text())["records"]["bench-a"]["iops"] == 3.0
