"""Cluster-wide telemetry: shard-labelled ``/metrics`` and fleet health.

Every shard worker already runs its own
:class:`~repro.obs.http.ObsHttpServer` sidecar.  This module rolls the
fleet up into one scrape surface: :class:`ClusterObsServer` periodically
pulls each shard's ``/debug/vars`` (whose ``registry`` entry is the
shard's registry snapshot as JSON) and ``/healthz``, and renders its
``/metrics`` with :func:`~repro.obs.export.to_prometheus` over the router
process's own registry (unlabelled) plus every shard snapshot labelled
``shard="N"`` — so ``repro_server_requests{shard="2"}`` distinguishes
workers the way tenant labels distinguish tenants, with one ``# TYPE``
line per family.  No exposition text is parsed anywhere.

The scrape cache refreshes on a background task, not per request: the
sidecar's request handlers are synchronous by design (they must never
block the event loop on a slow shard), so ``/metrics`` serves the most
recent completed sweep and ``/healthz`` reports each shard's last known
state plus how stale it is.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.errors import ClusterError
from repro.obs import registry as _metrics
from repro.obs.export import to_prometheus
from repro.obs.http import ObsHttpServer
from repro.obs.registry import RegistrySnapshot

__all__ = ["ClusterObsServer", "fetch"]

_SCRAPE_ERRORS = _metrics.counter("cluster.obs.scrape_errors")


async def fetch(
    host: str, port: int, path: str, timeout: float = 5.0
) -> tuple[int, bytes]:
    """Minimal HTTP GET against a shard sidecar; (status, body)."""
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
    except (asyncio.TimeoutError, OSError) as exc:
        raise ClusterError(
            f"cannot reach http://{host}:{port}{path}: {exc}"
        ) from None
    try:
        writer.write(
            f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n".encode("latin-1")
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
        raise ClusterError(
            f"scrape of http://{host}:{port}{path} failed: {exc}"
        ) from None
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b"\r\n", 1)[0].split()[1])
    except (IndexError, ValueError):
        raise ClusterError(
            f"malformed HTTP reply from http://{host}:{port}{path}"
        ) from None
    return status, body


class ClusterObsServer(ObsHttpServer):
    """Fleet-wide scrape/health sidecar over per-shard obs endpoints.

    ``targets`` maps shard id -> its sidecar ``(host, port)``.  The
    local process registry (the router's ``cluster.*`` instruments) is
    always exported live and unlabelled; shard snapshots come from the
    latest background sweep, each series tagged ``shard="N"``.
    """

    def __init__(
        self,
        targets: dict[int, tuple[str, int]],
        *,
        refresh_seconds: float = 2.0,
        scrape_timeout: float = 5.0,
        debug_vars=None,
    ) -> None:
        super().__init__(debug_vars=debug_vars)
        self.targets = dict(targets)
        self.refresh_seconds = refresh_seconds
        self.scrape_timeout = scrape_timeout
        self._shard_snapshots: dict[int, RegistrySnapshot] = {}
        self._shard_health: dict[int, dict] = {}
        self._last_sweep = 0.0
        self._refresh_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        await super().start(host=host, port=port)
        await self.refresh()  # serve real data from the first request on
        self._refresh_task = asyncio.ensure_future(self._refresh_loop())

    async def stop(self) -> None:
        if self._refresh_task is not None:
            self._refresh_task.cancel()
            try:
                await self._refresh_task
            except asyncio.CancelledError:
                pass
            self._refresh_task = None
        await super().stop()

    async def _refresh_loop(self) -> None:
        while True:
            await asyncio.sleep(self.refresh_seconds)
            await self.refresh()

    async def refresh(self) -> None:
        """One sweep: fetch every shard's /debug/vars and /healthz."""
        for shard, (host, port) in self.targets.items():
            try:
                status, body = await fetch(
                    host, port, "/debug/vars", timeout=self.scrape_timeout
                )
                if status != 200:
                    raise ClusterError(f"/debug/vars returned {status}")
                try:
                    snapshot = RegistrySnapshot.from_dict(
                        json.loads(body)["registry"]
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    raise ClusterError(
                        f"/debug/vars carries no registry snapshot: {exc}"
                    ) from None
                self._shard_snapshots[shard] = snapshot
                status, body = await fetch(
                    host, port, "/healthz", timeout=self.scrape_timeout
                )
                health = json.loads(body) if status == 200 else {}
                health["reachable"] = True
                self._shard_health[shard] = health
            except ClusterError:
                _SCRAPE_ERRORS.inc()
                self._shard_health[shard] = {
                    "status": "unreachable", "reachable": False,
                }
        self._last_sweep = time.time()

    # -- endpoint overrides --------------------------------------------------

    def _metrics(self):
        sources = [({}, self._live_snapshot())] + [
            ({"shard": str(shard)}, self._shard_snapshots[shard])
            for shard in sorted(self._shard_snapshots)
        ]
        text = to_prometheus(sources)
        return 200, "text/plain; version=0.0.4", text.encode("utf-8")

    def _health_state(self) -> dict:
        shards = {
            str(shard): self._shard_health.get(
                shard, {"status": "unknown", "reachable": False}
            )
            for shard in self.targets
        }
        unreachable = [
            shard for shard, health in shards.items()
            if not health.get("reachable")
        ]
        read_only = [
            shard for shard, health in shards.items()
            if health.get("read_only")
        ]
        recovering = [
            shard for shard, health in shards.items()
            if health.get("recovering")
        ]
        status = "ok"
        if unreachable or read_only:
            status = "degraded"
        if len(unreachable) == len(self.targets) and self.targets:
            status = "down"
        return {
            "status": status,
            "shards": shards,
            "shards_total": len(self.targets),
            "shards_unreachable": len(unreachable),
            # /readyz folds these into the standard reason list.
            "recovering": bool(recovering),
            "read_only": bool(self.targets) and not any(
                health.get("reachable") and not health.get("read_only")
                for health in shards.values()
            ),
            "last_sweep_age_seconds": (
                time.time() - self._last_sweep if self._last_sweep else None
            ),
        }
