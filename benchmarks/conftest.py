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
backend (``c`` or ``numpy``) that was resolved when it was taken, the
machine's CPU count, and the git commit when the tree is a checkout.
Flushing merges by record name into the existing file, so a session that
runs a subset of the benches keeps the other benches' records.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
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


@functools.lru_cache(maxsize=1)
def _git_commit() -> str | None:
    """HEAD of the repo checkout, or None outside a git checkout."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip() or None


class PerfRecorder:
    """Collects throughput records and serializes them at session end."""

    def __init__(self) -> None:
        self.records: dict[str, dict] = {}

    def record(self, name: str, **metrics) -> None:
        """Store one named measurement (overwrites a same-named record),
        stamped with the Viterbi kernel backend, CPU count and commit."""
        record = {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in metrics.items()
        }
        record["viterbi_backend"] = resolve_backend().name
        record["cpus"] = os.cpu_count()
        commit = _git_commit()
        if commit is not None:
            record["commit"] = commit
        self.records[name] = record

    def flush(self, path: Path = BENCH_JSON) -> None:
        """Merge this session's records into ``path`` by record name."""
        if not self.records:
            return
        try:
            records = json.loads(path.read_text())["records"]
        except (OSError, ValueError, KeyError, TypeError):
            records = {}
        records.update(self.records)
        payload = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "records": records,
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
