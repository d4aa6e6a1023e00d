"""Benchmark runner for the served stack and the Table I sweep.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-write-mfc --seed 1 \\
        --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes one untraced pass and one traced pass, and reports
the per-layer metrics, the self-time table and the tracing overhead.
The last line of standard output is the result as one JSON object.
Every run is also appended, with its stamp, to
``perfbench/.runs/history.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / ".runs"


def metric_units(kind: str) -> dict:
    """``end_to_end`` or ``per_layer`` metric name -> unit, as
    ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


#: Server launches per untraced run; ``setup_s`` is their median.
SETUPS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: error: the program's sources (src/repro) are "
              "missing from this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ.pop("REPRO_METRICS", None)
    # One BLAS thread per program process, set before numpy loads here or
    # in any server, shard or pool worker.  By default every process runs
    # nproc BLAS threads, so --jobs 2 ran four spinning threads on two
    # cores and measured the scheduler, not the program.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    # Unwind on SIGTERM too, so the servers and pool workers this run
    # started are stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    from perfbench.workloads import SweepWorkload, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    run_dir = RUNS / f"{workload.name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    stamp = make_stamp(args)
    try:
        if isinstance(workload, SweepWorkload):
            result, lines, figures = run_sweep(workload, args)
        else:
            result, lines, figures = run_served_workload(
                workload, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    with open(RUNS / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**stamp, "result": result,
                             "untraced_figures": figures}) + "\n")
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


# -- stamping ------------------------------------------------------------------


def make_stamp(args) -> dict:
    import numpy

    from repro.cache import code_fingerprint
    from repro.coding.kernels import resolve_backend

    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None  # a plain checkout; the code fingerprint still pins it
    return {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "commit": commit,
        "code_fingerprint": code_fingerprint(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "viterbi_backend": resolve_backend().name,
    }


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child process that has ended: the server,
    shard or pool-worker processes this run started and waited for."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def result_json(metrics: dict, units: dict, attempted: int, failed: int,
                correct: bool) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def describe(metrics: dict, units: dict, counts: dict | None = None) -> list[str]:
    counts = counts or {}
    lines = []
    for name, unit in units.items():
        extra = f"  (n={counts[name]})" if name in counts else ""
        lines.append(f"  {name:<42}{metrics[name]:>14.6g} {unit}{extra}")
    return lines


# -- served workloads ----------------------------------------------------------


def _stat_delta(before, after, section: str, key: str) -> int:
    return sum(a[section][key] - b[section][key] for b, a in zip(before, after))


def served_end_to_end(res: dict, workload) -> tuple[dict, dict, dict]:
    """End-to-end metrics, check counts and untraced per-layer figures of
    one pass.

    ``latency_p50_ms`` is the open-loop median of the workload's most
    common op type: the latencies of different types form separate
    modes, and the median of the mixture would sit in the tail of one.
    """
    from perfbench import stats
    from perfbench.loadgen import (
        READ, WRITE, generator_lateness, open_latencies)

    run = res["run"]
    checker = run.checker
    counts = checker.counts(checker.records)
    closed = checker.phase("closed")
    open_records = checker.phase("open")
    majority = workload.majority
    extra = {}
    for kind in (WRITE, READ):
        summary = stats.summarize(
            [v * 1e3 for v in open_latencies(open_records, kind)])
        extra[f"{kind}_p50_ms"] = summary["p50"]
        extra[f"{kind}_p99_ms"] = summary["p99"]
        extra[f"{kind}_n"] = summary["n"]
    err = stats.error_frac(counts["attempted"], counts["error"],
                           counts["busy"], counts["mismatch"])
    metrics = {
        "setup_s": statistics.median(res["setup_times"]),
        "throughput_iops": sum(1 for r in closed if r.status == "ok")
        / max(run.closed_s, 1e-9),
        "latency_p50_ms": extra[f"{majority}_p50_ms"],
        "ok_frac": 1.0 - err,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra["latency_p99_ms"] = extra[f"{majority}_p99_ms"]
    extra["latency_n"] = extra[f"{majority}_n"]
    extra["latency_kind"] = majority
    extra["error_frac"] = err
    extra["loadgen.late_ms_p99"] = stats.percentile(
        [v * 1e3 for v in generator_lateness(open_records)], 0.99)
    before, after = run.stat_before, run.stat_after
    writes = _stat_delta(before, after, "server", "writes")
    batches = _stat_delta(before, after, "server", "batches")
    requests = _stat_delta(before, after, "server", "requests")
    host_writes = _stat_delta(before, after, "ftl", "host_writes")
    extra["server.batch_size_mean"] = writes / batches if batches else 0.0
    extra["server.flushes_per_kop"] = 1e3 * batches / requests if requests else 0.0
    extra["ftl.in_place_ratio"] = (
        _stat_delta(before, after, "ftl", "in_place_rewrites") / host_writes
        if host_writes else 0.0)
    extra["ftl.relocations_per_kwrite"] = (
        1e3 * _stat_delta(before, after, "ftl", "relocations") / host_writes
        if host_writes else 0.0)
    extra["ftl.gc_runs_per_kwrite"] = (
        1e3 * _stat_delta(before, after, "ftl", "gc_runs") / host_writes
        if host_writes else 0.0)
    extra["host_writes"] = host_writes
    return metrics, counts, extra


def run_served_workload(workload, args, run_dir: Path):
    from perfbench import layers, tracer
    from perfbench.served import ROUNDS, run_served

    untraced = asyncio.run(run_served(
        workload, args.seed, args.seconds, run_dir, trace_servers=False,
        setups=1 if args.trace else SETUPS,
    ))
    untraced["peak_rss_mb"] = children_peak_rss_mb()
    metrics, counts, extra = served_end_to_end(untraced, workload)
    lines = [f"workload {workload.name}: seed {args.seed}, "
             f"{args.seconds:g} s, {ROUNDS} rounds of open loop "
             f"{workload.rate:g}/s then {workload.outstanding} outstanding",
             f"  checks: {counts['attempted']} ops, {counts['error']} typed "
             f"errors, {counts['busy']} busy, {counts['mismatch']} "
             f"mismatches"]
    lines += [f"    {message}" for message in untraced["run"].checker.errors[:5]]
    lines += describe(metrics, metric_units("end_to_end"),
                      {"latency_p50_ms": extra["latency_n"]})
    lines.append(f"  (latency_* are of {extra['latency_kind']}s, the most "
                 f"common op; untraced per-layer figures follow)")
    lines += describe(extra, {
        "latency_p99_ms": "ms", "write_p50_ms": "ms", "write_p99_ms": "ms",
        "read_p50_ms": "ms", "read_p99_ms": "ms",
        "error_frac": "frac", "loadgen.late_ms_p99": "ms",
    }, {"latency_p99_ms": extra["latency_n"],
        "write_p50_ms": extra["write_n"], "write_p99_ms": extra["write_n"],
        "read_p50_ms": extra["read_n"], "read_p99_ms": extra["read_n"]})
    failed = counts["attempted"] - counts["ok"]
    if not args.trace:
        return (result_json(metrics, metric_units("end_to_end"),
                            counts["attempted"], failed, failed == 0),
                lines, extra)

    # Traced pass.
    cluster = workload.shards > 1
    recorder = None
    if cluster:
        recorder = tracer.Tracer()
        tracer.install(recorder, layers.ROUTER_TARGETS)
    try:
        traced = asyncio.run(run_served(
            workload, args.seed, args.seconds, run_dir,
            trace_servers=not cluster, setups=1,
        ))
    finally:
        if recorder is not None:
            recorder.uninstall()
    traced["peak_rss_mb"] = children_peak_rss_mb()
    t_metrics, t_counts, t_extra = served_end_to_end(traced, workload)
    per_layer = {name: 0.0 for name in metric_units("per_layer")}
    for name in per_layer:
        if name in extra:
            per_layer[name] = extra[name]
    run = traced["run"]
    if cluster:
        spans = layers.Spans(recorder.as_rows())
        span_metrics, layer_self, busy = layers.router_metrics(
            spans, run.window, workload.redundancy)
        label, exclude = "router op time", ()
    else:
        spans = layers.Spans(traced["spans"][0])
        span_metrics, layer_self, busy = layers.served_metrics(
            spans, run, t_extra["host_writes"], traced["dataword_bits"])
        label, exclude = "device-thread busy time", (
            "server (device-thread glue)",)
    per_layer.update(span_metrics)
    table, coverage = layers.format_table(layer_self, busy, label, exclude)
    per_layer["trace.coverage"] = coverage
    per_layer["trace.overhead_ratio"] = (
        t_metrics["throughput_iops"] / metrics["throughput_iops"])
    lines.append(f"traced pass: throughput {t_metrics['throughput_iops']:.1f}"
                 f"/s vs untraced {metrics['throughput_iops']:.1f}/s "
                 f"(overhead ratio {per_layer['trace.overhead_ratio']:.3f})")
    lines.append(f"self-time shares ({label}):")
    lines.append(table)
    units = metric_units("per_layer")
    lines += describe(per_layer, units)
    # The router figures of cluster-mixed-k2, which BENCHMARK.json does not
    # list, are printed but not part of the result.
    lines += [f"  {name:<42}{value:>14.6g}"
              for name, value in span_metrics.items() if name not in units]
    attempted = counts["attempted"] + t_counts["attempted"]
    failed += t_counts["attempted"] - t_counts["ok"]
    return (result_json(per_layer, metric_units("per_layer"), attempted,
                        failed, failed == 0), lines, extra)


# -- the Table I sweep ---------------------------------------------------------


def run_sweep(workload, args):
    from dataclasses import replace

    from perfbench import layers, stats, sweep, tracer
    from repro.experiments import engine, pool

    config = sweep.config_for(workload)
    pinned = sweep.pinned_rows()
    # A fresh warm pool before every sweep, so setup_s is the median of
    # many cold starts and each sweep samples a new spawn.  The first
    # set-up and sweep warm the process up and are checked, not timed.
    setups, walls, mismatched, rows_seen = [], [], 0, 0
    try:
        sweep.setup(config)
        _, rows = sweep.sweep(config)
        mismatched += sweep.row_mismatches(rows, pinned)
        rows_seen += len(pinned)
        start = time.monotonic()
        while True:
            setups.append(sweep.setup(config))
            wall, rows = sweep.sweep(config)
            walls.append(wall)
            mismatched += sweep.row_mismatches(rows, pinned)
            rows_seen += len(pinned)
            if args.trace or time.monotonic() - start >= args.seconds:
                break
    finally:
        pool.shutdown()
    peak = children_peak_rss_mb()
    writes = sweep.writes_of(pinned, config.cycles)
    median_wall = statistics.median(walls)
    err = mismatched / rows_seen
    gain = next(r["lifetime_gain"] for r in rows if r["name"] == "MFC-1/2-1BPC")
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_iops": writes / median_wall,
        "latency_p50_ms": median_wall * 1e3,
        "ok_frac": 1.0 - err,
        "peak_rss_mb": peak,
    }
    lines = [f"workload {workload.name}: Table I at {workload.page_bytes} B, "
             f"K={workload.constraint_length}, {workload.cycles} cycles, "
             f"--jobs {workload.jobs}; {len(walls)} sweeps",
             f"  checks: {rows_seen} rows, {mismatched} differ from "
             f"{sweep.PINNED.name}"]
    lines += describe(metrics, metric_units("end_to_end"),
                      {"latency_p50_ms": len(walls)})
    extra = {"latency_p99_ms": stats.percentile(walls, 0.99) * 1e3,
             "sweep_wall_s": median_wall, "mfc_lifetime_gain": gain,
             "error_frac": err}
    lines.append("  untraced per-layer figures:")
    lines += describe(extra, {"latency_p99_ms": "ms", "sweep_wall_s": "s",
                              "mfc_lifetime_gain": "count",
                              "error_frac": "frac"},
                      {"latency_p99_ms": len(walls)})
    if not args.trace:
        return (result_json(metrics, metric_units("end_to_end"), rows_seen,
                            mismatched, mismatched == 0), lines, extra)

    # Untraced and traced serial sweeps in this process.
    serial = replace(config, jobs=1)
    serial_wall, rows = sweep.sweep(serial)
    mismatched += sweep.row_mismatches(rows, pinned)
    recorder = tracer.Tracer()
    layers.install_sweep(recorder)
    try:
        # Rebuild the schemes so their CosetViterbi picks the traced
        # kernel backend, then drop the spans of the build.
        engine.clear_scheme_memo()
        sweep.build_schemes(serial)
        recorder.clear()
        traced_wall, rows = sweep.sweep(serial)
    finally:
        recorder.uninstall()
    mismatched += sweep.row_mismatches(rows, pinned)
    rows_seen += 2 * len(pinned)
    spans = layers.Spans(recorder.as_rows())
    span_metrics, layer_self, wall = layers.sweep_metrics(spans)
    per_layer = {name: 0.0 for name in metric_units("per_layer")}
    per_layer.update(extra)
    per_layer.update(span_metrics)
    per_layer["experiments.pool_efficiency"] = (
        per_layer["experiments.cell_s_sum"] / (config.jobs * median_wall))
    per_layer["trace.overhead_ratio"] = serial_wall / traced_wall
    table, coverage = layers.format_table(
        layer_self, wall, "serial sweep wall", ("experiments.pool",))
    per_layer["trace.coverage"] = coverage
    lines.append(f"serial sweep: untraced {serial_wall:.3f} s, traced "
                 f"{traced_wall:.3f} s (overhead ratio "
                 f"{per_layer['trace.overhead_ratio']:.3f})")
    lines.append("self-time shares (serial sweep wall):")
    lines.append(table)
    lines += describe(per_layer, metric_units("per_layer"))
    return (result_json(per_layer, metric_units("per_layer"), rows_seen,
                        mismatched, mismatched == 0), lines, extra)


if __name__ == "__main__":
    sys.exit(main())
