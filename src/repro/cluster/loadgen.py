"""Closed-loop load generation through the cluster router.

Reuses the server loadgen's accumulator, issue path, and result shape
(:class:`~repro.server.loadgen.LoadgenResult`) so cluster numbers are
directly comparable with single-device bench rows: the
:class:`~repro.cluster.router.ClusterClient` duck-types the single
``StorageClient`` surface the issue path drives (``read``/``write``/
``trim`` plus ``last_trace_id``), and the op streams come from the same
workload registry, so an identical ``(workload, seed)`` replays the
identical op sequence against one device or a fleet.
"""

from __future__ import annotations

import asyncio
import time

from repro.cluster.router import ClusterClient
from repro.errors import ConfigurationError
from repro.obs.tracing import span as _span
from repro.server.client import DEFAULT_CONNECT_TIMEOUT
from repro.server.loadgen import LoadgenResult, _issue, _Tally
from repro.workload import make_workload

__all__ = ["run_cluster_closed_loop", "cluster_closed_loop"]


async def run_cluster_closed_loop(
    endpoints: dict[int, tuple[str, int]],
    *,
    redundancy: int = 1,
    clients: int = 4,
    ops_per_client: int = 100,
    workload: str = "uniform",
    seed: int = 0,
    connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
    router: ClusterClient | None = None,
    **workload_kwargs,
) -> LoadgenResult:
    """``clients`` generator tasks, one outstanding request each.

    All tasks share one router (pipelining happens per shard connection
    underneath), mirroring how an application would embed the cluster
    client.  Pass ``router`` to drive an existing connection — e.g. to
    keep benching through a failover the caller is orchestrating.
    """
    if clients < 1 or ops_per_client < 1:
        raise ConfigurationError("need at least one client and one op")
    owned = router is None
    if router is None:
        router = await ClusterClient.connect(
            endpoints, redundancy=redundancy, timeout=connect_timeout
        )
    try:
        logical_pages, bits = router.logical_pages, router.dataword_bits
        tally = _Tally()

        async def one_client(index: int) -> None:
            stream = make_workload(
                workload, logical_pages, seed=seed + index, **workload_kwargs
            )
            for _ in range(ops_per_client):
                if not await _issue(router, tally, next(stream), bits):
                    break

        with _span("cluster.loadgen.run", mode="closed", clients=clients,
                   shards=len(router.shard_states)):
            start = time.perf_counter()
            await asyncio.gather(*(one_client(i) for i in range(clients)))
            wall = time.perf_counter() - start
    finally:
        if owned:
            # Let in-flight rebuilds finish before tearing down: the run's
            # rebuild counters should reflect completed passes, and a
            # cancelled half-copy would be invisible in the report.
            await router.rebuild_done()
            await router.close()
    return tally.result("closed", clients, wall, offered=None)


def cluster_closed_loop(
    endpoints: dict[int, tuple[str, int]], **kwargs
) -> LoadgenResult:
    """Synchronous wrapper around :func:`run_cluster_closed_loop`."""
    return asyncio.run(run_cluster_closed_loop(endpoints, **kwargs))
