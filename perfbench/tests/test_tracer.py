import asyncio
import threading
import types

import pytest

from perfbench import layers, tracer
from perfbench.loadgen import OpRecord


class Device:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    async def fan_out(self, n):
        return sum(await asyncio.gather(*(self.rpc(i) for i in range(n))))

    async def rpc(self, i):
        await asyncio.sleep(0.01)
        return i


def test_wrapped_calls_nest_and_unwrap(tmp_path):
    original = vars(Device)["outer"]
    recorder = tracer.Tracer()
    recorder.wrap(Device, "outer", "dev.outer")
    recorder.wrap(Device, "inner", "dev.inner", attrs=lambda self, n: n)
    assert Device().outer(3) == 7
    path = tmp_path / "spans.jsonl"
    recorder.dump(str(path))
    rows = tracer.load(str(path))
    assert [r[0] for r in rows] == ["dev.outer", "dev.inner"]
    assert rows[0][3] == -1 and rows[1][3] == 0
    assert rows[1][4] == 3 and rows[1][5] is True
    assert rows == recorder.as_rows()
    recorder.uninstall()
    assert vars(Device)["outer"] is original


def test_threads_keep_their_own_parent_chain():
    recorder = tracer.Tracer()
    recorder.wrap(Device, "outer", "dev.outer")
    recorder.wrap(Device, "inner", "dev.inner")
    try:
        workers = [threading.Thread(target=Device().outer, args=(i,))
                   for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
            assert not worker.is_alive()
    finally:
        recorder.uninstall()
    rows = recorder.as_rows()
    for row in rows:
        if row[0] == "dev.inner":
            assert rows[row[3]][0] == "dev.outer"


def test_async_fan_out_children_overlap_and_self_time_is_the_gap():
    recorder = tracer.Tracer()
    recorder.wrap(Device, "fan_out", "cluster.write")
    recorder.wrap(Device, "rpc", "cluster.shard_write")
    try:
        assert asyncio.run(Device().fan_out(2)) == 1
    finally:
        recorder.uninstall()
    spans = layers.Spans(recorder.as_rows())
    names = [r[0] for r in spans.rows]
    assert names.count("cluster.shard_write") == 2
    root = names.index("cluster.write")
    assert all(spans.rows[i][3] == root
               for i, name in enumerate(names) if name != "cluster.write")
    # The two 10 ms round trips overlap, so the router's own time is small.
    assert spans.self[root] < 0.5 * spans.duration(root)
    metrics, layer_self, op_time = layers.router_metrics(
        spans, (0.0, float("inf")), redundancy=2)
    assert metrics["cluster.degraded_writes"] == 0
    assert sum(layer_self.values()) == pytest.approx(op_time)


def test_failed_call_is_recorded_and_reraised():
    recorder = tracer.Tracer()
    boom = types.SimpleNamespace(fn=lambda: 1 / 0)
    recorder.wrap(boom, "fn", "x.fn")
    with pytest.raises(ZeroDivisionError):
        boom.fn()
    assert recorder.as_rows()[0][5] is False


def _record(seq, lpn, phase, sent, done):
    record = OpRecord(seq, "read", lpn, phase, None)
    record.sent, record.done, record.status = sent, done, "ok"
    return record


def test_queue_wait_matches_each_op_to_the_device_call_that_served_it():
    rows = [
        ["ssd.write_batch", 1.0, 1.2, -1, [5, 6], True],
        ["ssd.read", 2.0, 2.1, -1, [5], True],
        ["ssd.read", 3.0, 3.05, -1, [5], True],
    ]
    spans = layers.Spans(rows)
    records = [
        _record(0, 5, "setup", 0.9, 1.25),
        _record(1, 6, "setup", 0.9, 1.25),
        _record(2, 5, "open", 1.5, 2.2),   # served by the 0.1 s read
        _record(3, 5, "open", 2.9, 3.1),   # served by the 0.05 s read
    ]
    waits = layers.queue_waits(records, spans)
    assert waits == pytest.approx([0.6, 0.15])


def test_layer_table_reports_coverage_without_the_glue_row():
    table, coverage = layers.format_table(
        {"ftl": 3.0, "flash": 6.0, "server (device-thread glue)": 1.0},
        10.0, "busy", exclude=("server (device-thread glue)",))
    assert coverage == pytest.approx(0.9)
    assert "flash" in table and "90.0%" in table
