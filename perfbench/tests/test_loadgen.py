import asyncio
import time

import numpy as np

from perfbench import stats
from perfbench.loadgen import Checker, generator_lateness, open_latencies
from repro.errors import LogicalAddressError, ServerBusyError
from repro.workload import Op, OpKind, make_workload

BITS = 64


class FakeDevice:
    """In-memory stand-in for a pinned connection, executing in order."""

    def __init__(self, fail=None, corrupt=False, stall_s=0.0):
        self.pages = {}
        self.fail = fail or {}
        self.corrupt = corrupt
        self.stall_s = stall_s

    async def _maybe_fail(self, lpn):
        await asyncio.sleep(0)
        if lpn in self.fail:
            raise self.fail[lpn]

    async def write(self, lpn, data):
        await self._maybe_fail(lpn)
        self.pages[lpn] = np.array(data, dtype=np.uint8)

    async def trim(self, lpn):
        await self._maybe_fail(lpn)
        self.pages.pop(lpn, None)

    async def read(self, lpn):
        if self.stall_s:
            time.sleep(self.stall_s)  # blocks the loop: a stalled generator
            self.stall_s = 0.0
        await self._maybe_fail(lpn)
        data = self.pages.get(lpn, np.zeros(BITS, dtype=np.uint8)).copy()
        if self.corrupt:
            data[0] ^= 1
        return data


def run(coro):
    return asyncio.run(coro)


def write(lpn, version=1):
    return Op(OpKind.WRITE, lpn, data_seed=(7, lpn, version))


def read(lpn):
    return Op(OpKind.READ, lpn)


def test_correct_device_passes_every_check():
    device = FakeDevice()
    checker = Checker(lambda lpn: device, dataword_bits=BITS, strict=True)

    async def go():
        await checker.closed([write(lpn) for lpn in range(8)], 4, "setup")
        await checker.closed([write(1, 2), read(1), Op(OpKind.TRIM, 2),
                              read(2), write(1, 3), read(1)], 4, "closed")
        await checker.read_back(4)

    run(go())
    counts = checker.counts(checker.records)
    assert counts == {"attempted": 22, "ok": 22, "busy": 0, "error": 0,
                      "mismatch": 0}


def test_busy_typed_errors_and_mismatches_all_count():
    device = FakeDevice(fail={3: ServerBusyError("full"),
                              4: LogicalAddressError("bad lpn")})
    checker = Checker(lambda lpn: device, dataword_bits=BITS, strict=True)
    run(checker.closed([write(lpn) for lpn in range(6)], 2, "setup"))
    device.corrupt = True
    run(checker.read_back(2))
    counts = checker.counts(checker.records)
    # 6 writes (one BUSY, one typed error) and 4 read-backs of the
    # acknowledged LPNs, every one of them corrupted.
    assert counts["attempted"] == 10
    assert counts["busy"] == 1
    assert counts["error"] == 1
    assert counts["mismatch"] == 4
    frac = stats.error_frac(counts["attempted"], counts["error"],
                            counts["busy"], counts["mismatch"])
    assert frac == 0.6
    assert any("LogicalAddressError" in message for message in checker.errors)


def test_read_after_pipelined_write_must_see_it_when_strict():
    device = FakeDevice()
    checker = Checker(lambda lpn: device, dataword_bits=BITS, strict=True)

    async def go():
        await checker.closed([write(0)], 1, "setup")
        # Issue write then read without waiting: a device that served the
        # read first would return the old payload and be flagged.
        first = asyncio.create_task(checker.issue(write(0, 2), "closed"))
        second = asyncio.create_task(checker.issue(read(0), "closed"))
        return await first, await second

    _, result = run(go())
    assert result.status == "ok"


class SlowWriteDevice(FakeDevice):
    """Reads overtake writes, as the cluster router allows while a
    write's replicas are still in flight."""

    async def write(self, lpn, data):
        await asyncio.sleep(0.01)
        await super().write(lpn, data)


def test_unordered_read_may_see_the_acked_or_the_in_flight_write():
    device = SlowWriteDevice()
    checker = Checker(lambda lpn: device, dataword_bits=BITS, strict=False)

    async def go():
        await checker.closed([write(0)], 1, "setup")
        pending = asyncio.create_task(checker.issue(write(0, 2), "closed"))
        early = await checker.issue(read(0), "closed")
        await pending
        device.corrupt = True
        late = await checker.issue(read(0), "closed")
        return early, late

    early, late = run(go())
    assert early.status == "ok"       # saw the acknowledged version 1
    assert late.status == "mismatch"  # matches no version it could see


def test_open_loop_latency_counts_from_the_due_time():
    device = FakeDevice(stall_s=0.05)
    checker = Checker(lambda lpn: device, dataword_bits=BITS, strict=True)
    stream = make_workload("uniform", 4, seed=3, read_fraction=1.0)
    run(checker.open(stream, rate=400.0, seconds=0.1, phase="open"))
    records = checker.phase("open")
    assert len(records) == 40
    due = open_latencies(records)
    sent = [r.done - r.sent for r in records]
    # The stall delayed the requests queued behind it: measured from their
    # due time they waited, measured from their send time they did not.
    assert max(due) >= 0.04
    assert sorted(sent)[len(sent) // 2] < 0.01
    assert stats.percentile(generator_lateness(records), 0.99) >= 0.03
