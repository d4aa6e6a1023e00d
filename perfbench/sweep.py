"""The ``sim-table1`` workload: the paper's Table I sweep.

The sweep goes through ``repro.experiments.table1.run_table1``, the call
behind ``python -m repro.experiments table1``, with the result cache
off and the default single lane.  Set-up builds every scheme and spawns
the warm worker pool; the runner sets up afresh before every sweep.
Under ``fork`` the workers inherit the built schemes, so every timed
sweep does the same work.

The lifetime engine is seeded by the experiment config, not by the
benchmark's ``--seed``: the rows are compared with the values pinned in
``table1_pinned.json``, and those are the paper configuration's rows.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments import engine, pool
from repro.experiments.config import ExperimentConfig
from repro.experiments.table1 import TABLE1_SCHEMES, run_table1

PINNED = Path(__file__).resolve().parent / "table1_pinned.json"

#: Row fields compared with the pinned values.
FIELDS = ("name", "rate", "lifetime_gain", "aggregate_gain")


def config_for(workload) -> ExperimentConfig:
    return ExperimentConfig(
        page_bytes=workload.page_bytes,
        cycles=workload.cycles,
        seed=workload.seed,
        constraint_length=workload.constraint_length,
        lanes=1,
        jobs=workload.jobs,
        cache=False,
    )


def setup(config: ExperimentConfig) -> float:
    """Cold start to a warm pool: build every scheme, spawn the workers.

    Returns the seconds it took.  The pool is spawned by running one
    throwaway single-cycle uncoded cell per worker.
    """
    pool.shutdown()
    engine.clear_scheme_memo()
    start = time.monotonic()
    build_schemes(config)
    spawn = replace(config, cycles=1)
    pool.run_cells([pool.cell_for("uncoded", spawn)] * config.jobs, spawn,
                   cache=False)
    return time.monotonic() - start


def build_schemes(config: ExperimentConfig) -> None:
    """Build (and memoize) every Table I scheme in this process, with the
    cell parameters ``run_table1`` gives them."""
    for name in TABLE1_SCHEMES:
        kwargs = ({"constraint_length": config.constraint_length}
                  if name.startswith("mfc") else {})
        cell = pool.cell_for(name, config, **kwargs)
        engine.scheme_for(cell.scheme, cell.page_bits, cell.kwargs)


def sweep(config: ExperimentConfig) -> tuple[float, list[dict]]:
    """One Table I sweep; returns its wall time and rows."""
    start = time.monotonic()
    summaries = run_table1(config)
    wall = time.monotonic() - start
    rows = [{f: getattr(s, f) for f in FIELDS} for s in summaries]
    return wall, rows


def row_mismatches(rows: list[dict], pinned: list[dict]) -> int:
    """Rows that differ from the pinned ones (a missing row counts)."""
    bad = abs(len(rows) - len(pinned))
    for got, want in zip(rows, pinned):
        if any(
            got[f] != want[f] if f == "name" else abs(got[f] - want[f]) > 1e-9
            for f in FIELDS
        ):
            bad += 1
    return bad


def pinned_rows() -> list[dict]:
    return json.loads(PINNED.read_text())["rows"]


def writes_of(rows: list[dict], cycles: int) -> int:
    """Simulated page writes behind the rows (lifetime gain x cycles)."""
    return sum(round(r["lifetime_gain"] * cycles) for r in rows)
