"""The workload definitions; the reason for each one ``BENCHMARK.json``
lists is its ``why`` entry there (a test checks that the two agree).

``serve-mixed-wom`` is defined but not listed: over ten seeds on a
shared 2-vCPU Xeon VM its closed-phase throughput spread 0.45 and its
median latency 0.33 of their medians, beyond any bound the benchmark
may set.  It is also the workload on which the
``RewritingFTL.write_batch`` stale-address defect fires (typed errors
and read-back mismatches in most runs), so it stays runnable by hand:
``python3 perfbench/run.py --workload serve-mixed-wom ...``.

``cluster-mixed-k2`` is defined but not listed either: its two shards
and the router share two cores, and in two sets of ten runs its
closed-phase throughput spread 0.27 and 0.29 of the median and its
median read latency 0.30 and 0.12, against bounds of 0.25.  It runs by
hand the same way; a traced run prints its router figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workload import make_workload

#: Shared device geometry of the served workloads: 4096-bit pages,
#: 16 blocks x 16 pages.
GEOMETRY = ("--page-bytes", "512", "--blocks", "16", "--pages-per-block", "16")

#: Every served run journals with one group commit per flush.
DURABLE = ("--fsync-policy", "batch")


@dataclass(frozen=True)
class ServedWorkload:
    """Load against ``repro.server serve`` processes.

    The timed ops come from the ``repro.workload`` stream ``distribution``
    (with ``params``), with ``read_fraction`` and ``trim_fraction`` of
    them turned into reads and trims.  The timed load
    is an open-loop phase at ``rate`` requests/s for latency, then a
    closed phase holding ``outstanding`` requests in flight for
    throughput.  ``shards`` > 1 serves through ``repro.cluster``'s router
    with ``redundancy`` replicas per LPN.
    """

    name: str
    serve_args: tuple[str, ...]
    distribution: str
    params: tuple[tuple[str, float], ...]
    read_fraction: float
    trim_fraction: float
    rate: float
    outstanding: int = 32
    shards: int = 1
    redundancy: int = 1

    def stream(self, logical_pages: int, seed: int):
        """The seeded op stream of the timed phases."""
        return make_workload(
            self.distribution, logical_pages, seed=seed,
            read_fraction=self.read_fraction,
            trim_fraction=self.trim_fraction, **dict(self.params),
        )

    @property
    def majority(self) -> str:
        """The most common op type of the timed load."""
        shares = {"read": self.read_fraction, "trim": self.trim_fraction,
                  "write": 1.0 - self.read_fraction - self.trim_fraction}
        return max(shares, key=shares.get)


@dataclass(frozen=True)
class SweepWorkload:
    """The paper's Table I sweep through ``repro.experiments``."""

    name: str
    page_bytes: int
    cycles: int
    constraint_length: int
    jobs: int
    seed: int = 2016


WORKLOADS = {
    w.name: w
    for w in (
        ServedWorkload(
            name="serve-write-mfc",
            serve_args=(
                "--scheme", "mfc-1/2-1bpc", "--constraint-length", "4",
                "--utilization", "0.5", "--max-batch", "32",
                "--checkpoint-every", "0",
                *GEOMETRY, *DURABLE,
            ),
            distribution="uniform",
            params=(),
            read_fraction=0.0,
            trim_fraction=0.0,
            rate=70.0,
        ),
        ServedWorkload(
            name="serve-mixed-wom",
            serve_args=(
                "--scheme", "wom", "--utilization", "0.85",
                "--max-batch", "32", "--checkpoint-every", "1024",
                *GEOMETRY, *DURABLE,
            ),
            distribution="zipf",
            params=(("skew", 1.0),),
            read_fraction=0.60,
            trim_fraction=0.05,
            rate=120.0,
        ),
        SweepWorkload(
            name="sim-table1",
            page_bytes=4096,
            cycles=3,
            constraint_length=7,
            jobs=2,
        ),
        ServedWorkload(
            name="cluster-mixed-k2",
            serve_args=(
                "--scheme", "uncoded", "--utilization", "0.85",
                "--max-batch", "32", *GEOMETRY, *DURABLE,
            ),
            distribution="zipf",
            params=(("skew", 1.0),),
            read_fraction=0.70,
            trim_fraction=0.0,
            rate=120.0,
            shards=2,
            redundancy=2,
        ),
    )
}
