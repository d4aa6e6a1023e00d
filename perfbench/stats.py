"""Arithmetic shared by the benchmark runner: percentiles, failure
fractions, due-time latency and span self time.

Everything here is pure and small so ``perfbench/tests`` can pin it.
"""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank sample percentile (``q`` in (0, 1]); 0.0 when empty.

    The same rule as ``repro.server.loadgen``: the smallest sample with at
    least ``q`` of the samples at or below it, so the value is always one
    that was measured.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def summarize(values) -> dict:
    """Median, p99 and the sample count behind them."""
    values = list(values)
    return {
        "p50": percentile(values, 0.50),
        "p99": percentile(values, 0.99),
        "n": len(values),
    }


def due_latency(due: float, done: float) -> float:
    """Open-loop latency of one request, measured from when it was due.

    Timing from the scheduled send time rather than the actual one counts
    every delay a stalled generator imposed on the requests behind it.
    """
    return done - due


def lateness(due: float, sent: float) -> float:
    """How far behind its schedule the generator handed a request over."""
    return max(0.0, sent - due)


def error_frac(attempted: int, errors: int, busy: int, mismatches: int) -> float:
    """Typed failures, BUSY refusals and read-back mismatches per op tried."""
    if attempted <= 0:
        raise ValueError("error_frac needs at least one attempted op")
    return (errors + busy + mismatches) / attempted


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    ``spans`` is a sequence of ``(start, end, parent_index)`` with
    ``parent_index`` -1 for a root.  Children of one parent may overlap
    (an asynchronous fan-out), so their covered time is a union, not a sum.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = union_length(
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        )
        result.append((end - start) - covered)
    return result


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median (the run-to-run
    spread measure: ``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
