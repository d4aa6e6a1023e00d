"""One-thread asyncio load generator with an output oracle.

All load comes from one event loop.  Concurrency comes from pipelining
over at most ``nproc`` connections, never from threads.  Each LPN is
pinned to one connection, so the server executes the ops of one LPN in
the order they were issued and every read has one defined expected
value.

The ops come from ``repro.workload`` streams, the program's own workload
definitions, so payloads are ``payload_for`` bits of each op's
``(seed, lpn, version)`` data seed.

Every op is checked.  Typed failures and BUSY refusals are counted
where they happen.  Reads are compared with the payload the oracle says
they must return.  At the end, every LPN acknowledged during the run is
read back once and compared with its last acknowledged payload.
Nothing is retried or skipped.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.errors import ReproError, ServerBusyError
from repro.workload import Op, OpKind, payload_for

from perfbench import stats

READ, WRITE, TRIM = OpKind.READ.value, OpKind.WRITE.value, OpKind.TRIM.value


class OpRecord:
    """One issued op and everything the checks need about it."""

    __slots__ = ("seq", "kind", "lpn", "phase", "due", "sent", "done",
                 "status", "packed", "accept")

    def __init__(self, seq, kind, lpn, phase, due):
        self.seq = seq
        self.kind = kind
        self.lpn = lpn
        self.phase = phase
        self.due = due          # open loop: scheduled send time
        self.sent = 0.0
        self.done = 0.0
        self.status = ""        # ok | busy | error | mismatch
        self.packed = None      # write: packed payload bytes
        self.accept = ()        # read: op records whose state it may see


class Checker:
    """Issues ops against a target and checks every answer.

    ``route(lpn)`` returns the client an LPN is pinned to (a
    ``StorageClient`` or the cluster router); both expose the same async
    ``read``/``write``/``trim``.  With ``strict`` ordering (one server,
    pinned connections) a read must return the latest op issued before
    it; without it (the cluster router does not order a read behind an
    unacknowledged write) it may return the last acknowledged state or
    any write still in flight when it was issued.
    """

    def __init__(self, route, dataword_bits: int, strict: bool) -> None:
        self.route = route
        self.bits = dataword_bits
        self.strict = strict
        self.records: list[OpRecord] = []
        self.errors: list[str] = []
        self.issued: dict[int, OpRecord] = {}
        self.acked: dict[int, OpRecord] = {}
        self.inflight: dict[int, list[OpRecord]] = {}
        self.zero = np.packbits(np.zeros(dataword_bits, dtype=np.uint8)).tobytes()

    async def issue(self, op: Op, phase: str,
                    due: float | None = None) -> OpRecord:
        """Issue one op now; returns its finished record."""
        kind, lpn = op.kind.value, op.lpn
        record = OpRecord(len(self.records), kind, lpn, phase, due)
        self.records.append(record)
        client = self.route(lpn)
        data = None
        if kind == READ:
            if self.strict:
                latest = self.issued.get(lpn)
                record.accept = (latest,) if latest is not None else ()
            else:
                record.accept = (self.acked.get(lpn),
                                 *self.inflight.get(lpn, ()))
        else:
            if kind == WRITE:
                data = payload_for(op, self.bits)
                record.packed = np.packbits(data).tobytes()
            self.issued[lpn] = record
            self.inflight.setdefault(lpn, []).append(record)
        record.sent = time.monotonic()
        try:
            if kind == READ:
                result = await client.read(lpn)
            elif kind == WRITE:
                await client.write(lpn, data)
            else:
                await client.trim(lpn)
        except ServerBusyError:
            record.status = "busy"
        except ReproError as exc:
            record.status = "error"
            self.errors.append(f"{kind} lpn {lpn}: {type(exc).__name__}: {exc}")
        else:
            record.status = "ok"
        record.done = time.monotonic()
        if kind == READ:
            if record.status == "ok" and not self._read_matches(record, result):
                record.status = "mismatch"
        else:
            self.inflight[lpn].remove(record)
            if record.status == "ok":
                last = self.acked.get(lpn)
                if last is None or last.seq < record.seq:
                    self.acked[lpn] = record
        return record

    def _state(self, record: OpRecord | None) -> bytes:
        if record is None or record.kind == TRIM:
            return self.zero
        return record.packed

    def _read_matches(self, record: OpRecord, data) -> bool:
        got = np.packbits(np.asarray(data, dtype=np.uint8)).tobytes()
        candidates = record.accept or (None,)
        if self.strict and candidates[0] is not None \
                and candidates[0].status != "ok":
            # The op it must observe failed and was counted already; the
            # page's state after a failed write is undefined.
            return True
        return any(got == self._state(c) for c in candidates)

    # -- phases --------------------------------------------------------------

    async def closed(self, ops, outstanding: int, phase: str,
                     deadline: float | None = None) -> tuple[float, float]:
        """Keep ``outstanding`` ops in flight until ``ops`` is exhausted or
        ``deadline`` passes; returns (start, last completion)."""
        start = time.monotonic()
        last = start

        async def worker():
            nonlocal last
            for op in ops:
                if deadline is not None and time.monotonic() >= deadline:
                    return
                record = await self.issue(op, phase)
                last = max(last, record.done)

        ops = iter(ops)
        await asyncio.gather(*(worker() for _ in range(outstanding)))
        return start, last

    async def open(self, stream, rate: float, seconds: float,
                   phase: str) -> None:
        """Issue ``rate`` ops/s on a fixed schedule for ``seconds``."""
        count = max(1, int(rate * seconds))
        start = time.monotonic() + 0.01
        tasks = []
        for i in range(count):
            due = start + i / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.create_task(
                self.issue(stream.next_op(), phase, due)))
        await asyncio.gather(*tasks)

    async def read_back(self, outstanding: int) -> None:
        """Read every acknowledged LPN once and compare (strictly) with
        its last acknowledged state."""
        saved = self.strict
        self.strict = True
        try:
            self.issued = dict(self.acked)
            await self.closed(
                (Op(OpKind.READ, lpn) for lpn in sorted(self.acked)),
                outstanding, "readback",
            )
        finally:
            self.strict = saved

    # -- accounting ----------------------------------------------------------

    def phase(self, *names: str) -> list[OpRecord]:
        return [r for r in self.records if r.phase in names]

    def counts(self, records) -> dict:
        out = {"attempted": 0, "ok": 0, "busy": 0, "error": 0, "mismatch": 0}
        for record in records:
            out["attempted"] += 1
            out[record.status] += 1
        return out


def open_latencies(records, kind: str | None = None) -> list[float]:
    """Due-time latencies (seconds) of completed open-loop ops."""
    return [stats.due_latency(r.due, r.done) for r in records
            if r.due is not None and r.status == "ok"
            and (kind is None or r.kind == kind)]


def generator_lateness(records) -> list[float]:
    return [stats.lateness(r.due, r.sent) for r in records
            if r.due is not None]
