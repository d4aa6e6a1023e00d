"""Served workloads: ``repro.server serve`` processes driven over TCP.

A run launches the server (or, for the cluster workload, one server per
shard behind ``repro.cluster``'s router, which runs in this process),
waits until every server has finished recovering, writes every LPN once,
then times open-loop and closed phases in alternating blocks, reads every
acknowledged LPN back and stops the servers.  Shards are started as
plain ``repro.server serve`` processes rather than through
``repro.cluster``'s supervisor, because the supervisor always turns on
each shard's telemetry sidecar, and the benchmark keeps the program's
own telemetry off.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.router import ClusterClient
from repro.server.client import StorageClient
from repro.workload import make_workload

from perfbench import tracer as _tracer
from perfbench.loadgen import Checker

ROOT = Path(__file__).resolve().parent.parent

#: Share of ``--seconds`` spent in the open-loop phase; the rest is the
#: closed phase.
OPEN_SHARE = 0.6

#: The two phases alternate in this many rounds, so that each samples the
#: whole run rather than one end of it: on a shared host the machine's
#: speed drifts over tens of seconds.
ROUNDS = 5

#: Connections from the one load-generating thread (the machine's cores).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

_BANNER = re.compile(rb"^serving .* on ([\w.\-]+):(\d+)\s*$")


def program_env() -> dict:
    """Environment for program processes: sources on the path, the
    program's own telemetry off."""
    env = dict(os.environ)
    env.pop("REPRO_METRICS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


class ServerProcess:
    """One ``repro.server serve`` process (optionally under the traced
    launcher), started and stopped from the event loop."""

    def __init__(self, serve_args, data_dir: Path,
                 spans_path: Path | None = None) -> None:
        args = ["serve", "--port", "0", *serve_args,
                "--data-dir", str(data_dir)]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro.server", *args]
        else:
            self.argv = [sys.executable, "-m", "perfbench.launch_server",
                         str(spans_path), *args]
        self.spans_path = spans_path
        self.proc = None
        self.output: list[bytes] = []
        self.host = ""
        self.port = 0
        self._drain: asyncio.Task | None = None

    async def start(self, timeout: float = 120.0) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            *self.argv, cwd=ROOT, env=program_env(),
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT,
        )
        deadline = time.monotonic() + timeout
        while True:
            line = await asyncio.wait_for(
                self.proc.stdout.readline(), max(0.1, deadline - time.monotonic())
            )
            if not line:
                await self.proc.wait()
                raise RuntimeError(
                    "server exited before its banner:\n"
                    + b"".join(self.output).decode(errors="replace")
                )
            self.output.append(line)
            match = _BANNER.match(line)
            if match:
                self.host = match.group(1).decode()
                self.port = int(match.group(2))
                break
        self._drain = asyncio.create_task(self._drain_output())

    async def _drain_output(self) -> None:
        while True:
            line = await self.proc.stdout.readline()
            if not line:
                return
            self.output.append(line)

    async def stop(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.proc.wait(), 60)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        if self._drain is not None:
            await self._drain


async def wait_ready(client: StorageClient) -> dict:
    """Poll STAT until the server has finished recovering.

    With ``--data-dir`` the server accepts connections while it replays
    its journal, and STAT then lacks the device fields; timing must not
    start before they appear.
    """
    while True:
        info = await client.stat()
        if info.get("recovering") is False and "logical_pages" in info:
            return info
        await asyncio.sleep(0.005)


@dataclass
class Deployment:
    """The processes and connections of one launched workload."""

    procs: list[ServerProcess]
    clients: list[StorageClient]
    router: ClusterClient | None
    checker: Checker
    logical_pages: int
    setup_s: float

    async def stats(self) -> list[dict]:
        """One STAT reply per server."""
        if self.router is not None:
            info = await self.router.stat()
            return [info["shards"][shard] for shard in sorted(info["shards"])]
        return [await self.clients[0].stat()]

    async def close(self) -> None:
        if self.router is not None:
            await self.router.close()
        for client in self.clients:
            await client.close()
        await asyncio.gather(*(p.stop() for p in self.procs))


async def launch(workload, seed: int, run_dir: Path, tag: str,
                 trace_servers: bool = False) -> Deployment:
    """Start the servers, wait for readiness, write every LPN once.

    The returned ``setup_s`` covers all of it: process start, the
    readiness wait and the warm-up writes.  ``trace_servers`` starts them
    under the traced launcher.
    """
    start = time.monotonic()
    procs = [
        ServerProcess(
            workload.serve_args, run_dir / f"{tag}-data{shard}",
            run_dir / f"{tag}-spans{shard}.jsonl" if trace_servers else None,
        )
        for shard in range(workload.shards)
    ]
    clients: list[StorageClient] = []
    router = None
    try:
        await asyncio.gather(*(p.start() for p in procs))
        infos = []
        for proc in procs:
            probe = await StorageClient.connect(proc.host, proc.port)
            try:
                infos.append(await wait_ready(probe))
            finally:
                await probe.close()
        logical_pages = infos[0]["logical_pages"]
        bits = infos[0]["dataword_bits"]
        if workload.shards > 1:
            router = await ClusterClient.connect(
                {i: (p.host, p.port) for i, p in enumerate(procs)},
                redundancy=workload.redundancy,
            )
            checker = Checker(lambda lpn: router, bits, strict=False)
        else:
            for _ in range(CONNECTIONS):
                clients.append(
                    await StorageClient.connect(procs[0].host, procs[0].port))
            checker = Checker(lambda lpn: clients[lpn % len(clients)], bits,
                              strict=True)
        dep = Deployment(procs, clients, router, checker, logical_pages, 0.0)
        warm_up = make_workload("sequential", logical_pages, seed=seed)
        await checker.closed(
            (warm_up.next_op() for _ in range(logical_pages)),
            workload.outstanding, "setup",
        )
    except BaseException:
        await Deployment(procs, clients, router, None, 0, 0.0).close()
        raise
    dep.setup_s = time.monotonic() - start
    return dep


@dataclass
class TimedRun:
    """What one timed pass measured."""

    checker: Checker
    window: tuple[float, float]        # open start .. read-back end
    closed_s: float                    # summed closed-block durations
    stat_before: list[dict]
    stat_after: list[dict]


async def timed_pass(dep: Deployment, workload, seed: int,
                     seconds: float) -> TimedRun:
    """``ROUNDS`` rounds of an open-loop block and a closed block, then
    the read-back of every LPN."""
    stream = workload.stream(dep.logical_pages, seed + 1)

    def endless():
        while True:
            yield stream.next_op()

    before = await dep.stats()
    t_open = time.monotonic()
    block = seconds / ROUNDS
    closed_s = 0.0
    for _ in range(ROUNDS):
        await dep.checker.open(stream, workload.rate, block * OPEN_SHARE,
                               "open")
        start, last = await dep.checker.closed(
            endless(), workload.outstanding, "closed",
            deadline=time.monotonic() + block * (1 - OPEN_SHARE),
        )
        closed_s += last - start
    after = await dep.stats()
    await dep.checker.read_back(workload.outstanding)
    window = (t_open, time.monotonic())
    return TimedRun(dep.checker, window, closed_s, before, after)


async def run_served(workload, seed: int, seconds: float, run_dir: Path,
                     trace_servers: bool, setups: int) -> dict:
    """``setups`` launches (all timed for ``setup_s``; the last one is
    measured), one timed pass, teardown.  With ``trace_servers`` the
    spans of every server process come back too."""
    setup_times = []
    for i in range(setups):
        tag = f"{'t' if trace_servers else 'u'}{i}"
        dep = await launch(workload, seed, run_dir, tag, trace_servers)
        setup_times.append(dep.setup_s)
        if i < setups - 1:
            await dep.close()
    try:
        run = await timed_pass(dep, workload, seed, seconds)
    finally:
        await dep.close()
    spans = []
    if trace_servers:
        for proc in dep.procs:
            spans.append(_tracer.load(str(proc.spans_path)))
    return {
        "run": run,
        "setup_times": setup_times,
        "spans": spans,
        "logical_pages": dep.logical_pages,
        "dataword_bits": dep.checker.bits,
    }
