"""Cluster telemetry: shard-labelled snapshot merge plus a live scrape."""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.cluster.obs import ClusterObsServer, fetch
from repro.errors import ClusterError
from repro.flash.geometry import FlashGeometry
from repro.obs import registry as _metrics
from repro.obs.export import to_prometheus
from repro.obs.http import ObsHttpServer
from repro.obs.registry import TIME_BUCKETS, MetricsRegistry, RegistrySnapshot
from repro.server.client import StorageClient
from repro.server.service import ServerConfig, StorageService
from repro.ssd.device import SSD

from tests.obs.test_export import check_exposition


def _shard_snapshot(requests: int) -> RegistrySnapshot:
    registry = MetricsRegistry(enabled=True)
    registry.counter("server.requests").inc(requests)
    registry.gauge("server.queue_depth").set(requests + 1)
    registry.histogram("server.latency_seconds", TIME_BUCKETS).observe(0.002)
    registry.counter("server.tenant3.requests").inc(7)
    return registry.snapshot(include_events=False)


def _merged() -> str:
    return to_prometheus([
        ({"shard": "0"}, _shard_snapshot(1)),
        ({"shard": "1"}, _shard_snapshot(2)),
    ])


class TestRelabel:
    def test_plain_sample_gains_shard_label(self) -> None:
        out = _merged()
        assert 'repro_server_requests{shard="0"} 1' in out
        assert 'repro_server_requests{shard="1"} 2' in out
        assert 'repro_server_queue_depth{shard="1"} 3' in out

    def test_existing_labels_are_preserved(self) -> None:
        assert (
            'repro_server_tenant_requests{shard="1",tenant="3"} 7'
            in _merged().splitlines()
        )

    def test_histogram_series_labelled(self) -> None:
        out = _merged().splitlines()
        assert (
            'repro_server_latency_seconds_bucket{le="0.01",shard="1"} 1'
            in out
        )
        assert 'repro_server_latency_seconds_sum{shard="1"} 0.002' in out
        assert 'repro_server_latency_seconds_count{shard="0"} 1' in out


class TestMerge:
    def test_one_type_line_per_family(self) -> None:
        lines = _merged().splitlines()
        assert lines.count("# TYPE repro_server_requests counter") == 1
        # All samples of the family sit directly under its TYPE line.
        at = lines.index("# TYPE repro_server_requests counter")
        assert lines[at + 1:at + 3] == [
            'repro_server_requests{shard="0"} 1',
            'repro_server_requests{shard="1"} 2',
        ]

    def test_histogram_suffixes_fold_into_family(self) -> None:
        text = _merged()
        assert text.count("# TYPE repro_server_latency_seconds histogram") == 1
        assert 'repro_server_latency_seconds_sum{shard="0"} 0.002' in text

    def test_two_labelled_sources_are_well_formed(self) -> None:
        """Counters, gauges, histograms and tenant series from two shards
        plus an unlabelled local source render as valid exposition."""
        local = MetricsRegistry(enabled=True)
        local.counter("cluster.writes").inc(5)
        text = to_prometheus([({}, local.snapshot())] + [
            ({"shard": str(n)}, _shard_snapshot(n + 1)) for n in (0, 1)
        ])
        check_exposition(text)
        assert "repro_cluster_writes 5" in text.splitlines()
        for kind in ("counter", "gauge", "histogram"):
            assert f" {kind}\n" in text


def _make_service() -> StorageService:
    geometry = FlashGeometry(
        blocks=8, pages_per_block=8, page_bits=256, erase_limit=200
    )
    ssd = SSD(
        geometry=geometry, scheme="mfc-1/2-1bpc", utilization=0.5,
        constraint_length=4,
    )
    return StorageService(ssd, ServerConfig())


class TestClusterObsServer:
    def test_scrapes_merge_and_health_aggregates(self) -> None:
        _metrics.set_enabled(True)

        async def go() -> tuple[str, dict, dict]:
            services = [_make_service() for _ in range(2)]
            sidecars = []
            for service in services:
                await service.start(port=0)
                sidecar = ObsHttpServer(service=service)
                await sidecar.start(port=0)
                sidecars.append(sidecar)
                # One served write, so the shard has histograms to export.
                async with await StorageClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    await client.write(0, np.zeros(
                        service.ssd.logical_page_bits, dtype=np.uint8
                    ))
            targets = {
                index: ("127.0.0.1", sidecar.port)
                for index, sidecar in enumerate(sidecars)
            }
            cluster_obs = ClusterObsServer(targets, refresh_seconds=60.0)
            await cluster_obs.start(port=0)
            try:
                status, body = await fetch(
                    "127.0.0.1", cluster_obs.port, "/metrics"
                )
                assert status == 200
                status, health_body = await fetch(
                    "127.0.0.1", cluster_obs.port, "/healthz"
                )
                assert status == 200
                healthy = json.loads(health_body)
                # Kill one sidecar and resweep: health must degrade.
                await sidecars[0].stop()
                await cluster_obs.refresh()
                _status, degraded_body = await fetch(
                    "127.0.0.1", cluster_obs.port, "/healthz"
                )
                return (
                    body.decode(), healthy, json.loads(degraded_body)
                )
            finally:
                await cluster_obs.stop()
                for sidecar in sidecars[1:]:
                    await sidecar.stop()
                for service in services:
                    await service.stop()

        metrics, healthy, degraded = asyncio.run(go())
        assert 'shard="0"' in metrics and 'shard="1"' in metrics
        check_exposition(metrics)
        # Every shard's histogram families arrive with their shard label.
        histograms = [
            line.split()[2] for line in metrics.splitlines()
            if line.startswith("# TYPE") and line.endswith(" histogram")
        ]
        assert "repro_server_request_seconds" in histograms
        for family in histograms:
            for shard in ("0", "1"):
                assert (
                    f'{family}_bucket{{le="+Inf",shard="{shard}"}}' in metrics
                ), family
        # The local (router-process) registry is exported unlabelled —
        # the /metrics requests this test itself made are counted there.
        assert "\nrepro_obs_http_requests " in "\n" + metrics
        assert healthy["status"] == "ok"
        assert healthy["shards_unreachable"] == 0
        assert degraded["status"] == "degraded"
        assert degraded["shards"]["0"]["reachable"] is False
        assert degraded["shards"]["1"]["reachable"] is True

    def test_fetch_unreachable_raises_cluster_error(self) -> None:
        async def go() -> None:
            with pytest.raises(ClusterError):
                await fetch("127.0.0.1", 1, "/metrics", timeout=0.5)

        asyncio.run(go())
