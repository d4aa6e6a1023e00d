"""Loopback server benchmarks as experiment cells.

A :class:`ServerBenchCell` packages one complete serving experiment —
device geometry + scheme, server knobs, loadgen discipline — as a frozen,
picklable cell, so the sweep fabric (:func:`repro.experiments.pool.run_cells`)
can fan a concurrency sweep out over worker processes (``--jobs``) exactly
like lifetime cells: each worker spins up its own in-process loopback
server, drives it, and ships the result back.

Caching follows the fabric's rule — only *deterministic* cells are
cacheable.  A closed loop with one client executes its requests in a
total order fixed by the seed, so the **device outcome** (host writes,
in-place rewrites, relocations, erases, end-of-life state) is a pure
function of the cell and may be served from the content-addressed result
cache.  Concurrent clients and open-loop schedules interleave
nondeterministically, so those cells always run live
(``cacheable == False``).  Latency numbers are wall-clock measurements
either way; a cache hit replays the numbers recorded when the cell first
ran (the cache key includes the code fingerprint, so they were produced
by the same code).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.flash.geometry import FlashGeometry
from repro.server.loadgen import LoadgenResult, run_closed_loop, run_open_loop
from repro.server.service import ServerConfig, StorageService
from repro.ssd.device import SSD
from repro.workload import WorkloadSpec

__all__ = ["ServerBenchCell", "ServerBenchResult"]


@dataclass(frozen=True)
class ServerBenchResult:
    """One cell's outcome: loadgen measurements + device end state."""

    loadgen: LoadgenResult
    #: Deterministic device outcome (for cacheable cells).
    host_writes: int
    in_place_rewrites: int
    relocations: int
    block_erases: int
    lifetime_state: str
    #: Server-side accounting (batch split depends on timing).
    batches: int
    max_batch_size: int
    coalesced_writes: int

    def device_outcome(self) -> dict[str, object]:
        """The fields that are a pure function of a deterministic cell."""
        return {
            "host_writes": self.host_writes,
            "in_place_rewrites": self.in_place_rewrites,
            "relocations": self.relocations,
            "block_erases": self.block_erases,
            "lifetime_state": self.lifetime_state,
        }


@dataclass(frozen=True)
class ServerBenchCell:
    """One self-contained loopback serving experiment.

    Implements the sweep fabric's generic cell protocol
    (:meth:`key_payload` / :meth:`run` / :attr:`cacheable`), so it slots
    straight into :func:`repro.experiments.pool.run_cells`.
    """

    scheme: str = "mfc-1/2-1bpc"
    page_bits: int = 4096
    blocks: int = 16
    pages_per_block: int = 16
    erase_limit: int = 10_000
    utilization: float = 0.5
    mode: str = "closed"          # "closed" or "open"
    clients: int = 1
    ops_per_client: int = 100
    rate: float | None = None     # open loop: offered ops/second
    workload: str = "uniform"
    #: Workload parameters as sorted pairs (trace path, zipf theta, ...).
    workload_params: tuple[tuple[str, object], ...] = ()
    tenants: int = 1
    seed: int = 2016
    max_batch: int = 32
    queue_depth: int = 256
    credit_window: int = 64
    tenant_credit_window: int | None = None
    admission: str = "block"
    #: Extra ``make_scheme`` kwargs as sorted pairs (same idiom as SweepCell).
    kwargs: tuple[tuple[str, object], ...] = ()

    @property
    def workload_spec(self) -> WorkloadSpec:
        """The cell's workload as a registry spec (shared cache-key idiom)."""
        return WorkloadSpec(self.workload, self.workload_params)

    @property
    def cacheable(self) -> bool:
        """Only single-client closed loops have a deterministic outcome."""
        return self.mode == "closed" and self.clients == 1

    def key_payload(self) -> dict[str, object]:
        """Cache-key payload (the fabric appends the code fingerprint)."""
        return {
            "kind": "server-bench-cell",
            "scheme": self.scheme,
            "page_bits": self.page_bits,
            "blocks": self.blocks,
            "pages_per_block": self.pages_per_block,
            "erase_limit": self.erase_limit,
            "utilization": self.utilization,
            "mode": self.mode,
            "clients": self.clients,
            "ops_per_client": self.ops_per_client,
            "rate": self.rate,
            "workload": self.workload_spec.key_payload(),
            "tenants": self.tenants,
            "seed": self.seed,
            "max_batch": self.max_batch,
            "queue_depth": self.queue_depth,
            "credit_window": self.credit_window,
            "tenant_credit_window": self.tenant_credit_window,
            "admission": self.admission,
            "kwargs": [[key, value] for key, value in self.kwargs],
        }

    def make_ssd(self) -> SSD:
        """The device under test (fresh instance, deterministic seeds)."""
        geometry = FlashGeometry(
            blocks=self.blocks,
            pages_per_block=self.pages_per_block,
            page_bits=self.page_bits,
            erase_limit=self.erase_limit,
        )
        return SSD(
            geometry=geometry,
            scheme=self.scheme,
            utilization=self.utilization,
            **dict(self.kwargs),
        )

    def run(self) -> ServerBenchResult:
        """Serve on a loopback ephemeral port and drive the loadgen."""
        return asyncio.run(self._run())

    async def _run(self) -> ServerBenchResult:
        ssd = self.make_ssd()
        service = StorageService(
            ssd,
            ServerConfig(
                max_batch=self.max_batch,
                queue_depth=self.queue_depth,
                credit_window=self.credit_window,
                admission=self.admission,
                tenant_credit_window=self.tenant_credit_window,
            ),
        )
        await service.start(port=0)
        params = dict(self.workload_params)
        try:
            if self.mode == "open":
                rate = self.rate if self.rate is not None else 1000.0
                result = await run_open_loop(
                    "127.0.0.1", service.port,
                    rate=rate,
                    total_ops=self.clients * self.ops_per_client,
                    workload=self.workload,
                    seed=self.seed,
                    tenants=self.tenants,
                    **params,
                )
            else:
                result = await run_closed_loop(
                    "127.0.0.1", service.port,
                    clients=self.clients,
                    ops_per_client=self.ops_per_client,
                    workload=self.workload,
                    seed=self.seed,
                    tenants=self.tenants,
                    **params,
                )
        finally:
            await service.stop()
        stats = ssd.ftl.stats
        return ServerBenchResult(
            loadgen=result,
            host_writes=stats.host_writes,
            in_place_rewrites=stats.in_place_rewrites,
            relocations=stats.relocations,
            block_erases=ssd.chip.stats.block_erases,
            lifetime_state=ssd.lifetime_state,
            batches=service.stats.batches,
            max_batch_size=service.stats.max_batch_size,
            coalesced_writes=service.stats.coalesced_writes,
        )
