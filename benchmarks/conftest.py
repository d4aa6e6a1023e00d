"""Shared configuration for the benchmark suite.

Benchmarks default to a reduced page size so the whole suite finishes in a
few minutes; set ``REPRO_PAGE_BYTES=4096`` (and ``REPRO_CYCLES=5``) for a
full-fidelity run matching the paper's setup.  Every bench prints the
regenerated rows (visible with ``pytest -s`` or in the benchmark logs) and
asserts the paper's qualitative shape.

The session-scoped :func:`perf_recorder` fixture collects named throughput
records (writes/sec, cells/sec, speedups) from any bench that opts in and
writes them to ``BENCH_coding.json`` at the repo root when the session
ends — CI uploads that file as an artifact so coding-path performance is
tracked per commit.  Each record carries the name of the Viterbi kernel
backend (``c`` or ``numpy``) that was resolved when it was taken.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import pytest

from repro.coding.kernels import resolve_backend
from repro.experiments.config import ExperimentConfig

#: Repo root — conftest lives in <root>/benchmarks/.
REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_coding.json"
BENCH_SERVER_JSON = REPO_ROOT / "BENCH_server.json"


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return ExperimentConfig.from_env()


class PerfRecorder:
    """Collects throughput records and serializes them at session end."""

    def __init__(self) -> None:
        self.records: dict[str, dict] = {}

    def record(self, name: str, **metrics) -> None:
        """Store one named measurement (overwrites a same-named record),
        stamped with the Viterbi kernel backend it ran on."""
        self.records[name] = {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in metrics.items()
        }
        self.records[name]["viterbi_backend"] = resolve_backend().name

    def flush(self, path: Path = BENCH_JSON) -> None:
        if not self.records:
            return
        payload = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "records": self.records,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def perf_recorder():
    """Session-wide throughput collector backing ``BENCH_coding.json``."""
    recorder = PerfRecorder()
    yield recorder
    recorder.flush()


@pytest.fixture(scope="session")
def server_perf_recorder():
    """Serving-layer collector backing ``BENCH_server.json``."""
    recorder = PerfRecorder()
    yield recorder
    recorder.flush(BENCH_SERVER_JSON)
