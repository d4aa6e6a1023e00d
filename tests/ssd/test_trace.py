"""Tests for trace-driven workloads."""

from __future__ import annotations

import io

import pytest

from repro.errors import ConfigurationError
from repro.workload import (
    TraceWorkload,
    UniformWorkload,
    load_trace,
    record_trace,
    save_trace,
)


class TestLoadTrace:
    def test_parses_lines_and_comments(self) -> None:
        source = io.StringIO("# header\n3\n1  # inline comment\n\n2\n")
        assert load_trace(source) == [3, 1, 2]

    def test_file_roundtrip(self, tmp_path) -> None:
        path = tmp_path / "writes.trace"
        save_trace([0, 5, 2, 5], path)
        assert load_trace(path) == [0, 5, 2, 5]

    def test_rejects_garbage(self) -> None:
        with pytest.raises(ConfigurationError, match="line 2"):
            load_trace(io.StringIO("1\nnope\n"))

    def test_rejects_negative(self) -> None:
        with pytest.raises(ConfigurationError):
            load_trace(io.StringIO("-1\n"))

    def test_rejects_empty(self) -> None:
        with pytest.raises(ConfigurationError, match="no writes"):
            load_trace(io.StringIO("# only comments\n"))

    def test_rejects_truly_empty_source(self) -> None:
        with pytest.raises(ConfigurationError, match="no writes"):
            load_trace(io.StringIO(""))

    def test_rejects_whitespace_only(self) -> None:
        with pytest.raises(ConfigurationError, match="no writes"):
            load_trace(io.StringIO("   \n\t\n  \n"))

    def test_malformed_line_reports_its_number(self) -> None:
        with pytest.raises(ConfigurationError, match="line 3"):
            load_trace(io.StringIO("1\n2\n3.5\n4\n"))

    def test_negative_reports_line_number(self) -> None:
        with pytest.raises(ConfigurationError, match="line 2"):
            load_trace(io.StringIO("7\n-3\n"))

    def test_empty_file_roundtrip_fails_cleanly(self, tmp_path) -> None:
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="no writes"):
            load_trace(path)

    def test_recorded_trace_roundtrip(self, tmp_path) -> None:
        recorded = record_trace(UniformWorkload(16, seed=7), 25)
        path = tmp_path / "recorded.trace"
        save_trace(recorded, path)
        assert load_trace(path) == recorded


class TestRecordTrace:
    def test_captures_from_generator(self) -> None:
        workload = UniformWorkload(8, seed=0)
        trace = record_trace(workload, 20)
        assert len(trace) == 20
        assert all(0 <= lpn < 8 for lpn in trace)

    def test_recording_is_deterministic(self) -> None:
        a = record_trace(UniformWorkload(8, seed=3), 10)
        b = record_trace(UniformWorkload(8, seed=3), 10)
        assert a == b

    def test_rejects_zero_length(self) -> None:
        with pytest.raises(ConfigurationError):
            record_trace(UniformWorkload(8), 0)


class TestTraceWorkload:
    def test_replays_in_order_and_cycles(self) -> None:
        workload = TraceWorkload(8, [3, 1, 4])
        assert [workload.next_lpn() for _ in range(7)] == [3, 1, 4, 3, 1, 4, 3]

    def test_rejects_out_of_range_pages(self) -> None:
        with pytest.raises(ConfigurationError, match="beyond"):
            TraceWorkload(4, [1, 9])

    def test_rejects_empty_trace(self) -> None:
        with pytest.raises(ConfigurationError):
            TraceWorkload(4, [])

    def test_from_file(self, tmp_path) -> None:
        path = tmp_path / "t.trace"
        save_trace([0, 1], path)
        workload = TraceWorkload.from_file(4, path)
        assert workload.next_lpn() == 0

    def test_drives_a_device(self) -> None:
        from repro.flash import FlashGeometry
        from repro.ssd import SSD, run_until_death

        ssd = SSD(
            geometry=FlashGeometry(blocks=4, pages_per_block=4, page_bits=96,
                                   erase_limit=6),
            scheme="wom",
            utilization=0.5,
        )
        trace = [lpn % ssd.logical_pages for lpn in range(17)]
        result = run_until_death(
            ssd, TraceWorkload(ssd.logical_pages, trace), max_writes=50_000
        )
        assert result.host_writes > 0
