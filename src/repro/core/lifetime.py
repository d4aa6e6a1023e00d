"""Page lifetime simulation — the paper's methodology (Section VII).

A single flash page is repeatedly programmed with pseudo-random datawords
(the coset scrambling makes results input-independent, so random data is
representative).  The number of writes accepted before the scheme demands an
erase, averaged over erase cycles, is the *lifetime gain* relative to
uncoded flash (which accepts exactly one).

One engine implements the methodology.  :class:`BatchLifetimeSimulator`
runs ``B`` independent pages in lockstep through the schemes' batched write
path.  Each lane owns its own seeded generator, and a lane whose page
demands an erase is recycled in place, so a lane's results depend only on
its seed, never on the batch size.  :class:`LifetimeSimulator` — the
paper's literal procedure of streaming datawords into one page — is the
``B = 1`` view of that engine.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.analysis import UpdateTrace
from repro.core.scheme import RewritingScheme
from repro.errors import ConfigurationError, DecodingError
from repro.obs import registry as _metrics
from repro.obs.tracing import span as _span

__all__ = [
    "LifetimeSimulator",
    "LifetimeResult",
    "BatchLifetimeSimulator",
    "BatchLifetimeResult",
]


@dataclass(frozen=True)
class LifetimeResult:
    """Outcome of a lifetime simulation.

    ``lifetime_gain`` is the average number of writes per erase cycle;
    ``aggregate_gain`` multiplies it by the scheme's rate (the paper's key
    metric — the area of a Fig. 1 rectangle).
    """

    scheme_name: str
    rate: float
    writes_per_cycle: tuple[int, ...]
    trace: UpdateTrace = field(repr=False)

    @property
    def lifetime_gain(self) -> float:
        return float(np.mean(self.writes_per_cycle))

    @property
    def lifetime_std(self) -> float:
        return float(np.std(self.writes_per_cycle))

    @property
    def aggregate_gain(self) -> float:
        return self.lifetime_gain * self.rate

    def __str__(self) -> str:
        return (
            f"{self.scheme_name}: rate {self.rate:.4f}, lifetime gain "
            f"{self.lifetime_gain:.2f}, aggregate gain {self.aggregate_gain:.2f}"
        )


@dataclass(frozen=True)
class BatchLifetimeResult:
    """Outcome of a batched lifetime simulation over ``lanes`` pages.

    ``writes_per_cycle_by_lane[i]`` holds lane ``i``'s per-cycle write
    counts, identical to what a scalar run with that lane's seed produces.
    The trace aggregates every lane (per-update and at-erase statistics are
    averages, so pooling lanes is exact).
    """

    scheme_name: str
    rate: float
    writes_per_cycle_by_lane: tuple[tuple[int, ...], ...]
    trace: UpdateTrace = field(repr=False)

    @property
    def lanes(self) -> int:
        return len(self.writes_per_cycle_by_lane)

    @property
    def writes_per_cycle(self) -> tuple[int, ...]:
        """All cycles, lane-major (lane 0's cycles first)."""
        return tuple(
            count for lane in self.writes_per_cycle_by_lane for count in lane
        )

    @property
    def lifetime_gain(self) -> float:
        return float(np.mean(self.writes_per_cycle))

    @property
    def lifetime_std(self) -> float:
        return float(np.std(self.writes_per_cycle))

    @property
    def aggregate_gain(self) -> float:
        return self.lifetime_gain * self.rate

    def lane_result(self, lane: int) -> LifetimeResult:
        """Lane ``lane``'s cycles as a scalar-shaped result (shared trace)."""
        return LifetimeResult(
            scheme_name=self.scheme_name,
            rate=self.rate,
            writes_per_cycle=self.writes_per_cycle_by_lane[lane],
            trace=self.trace,
        )

    def merged(self) -> LifetimeResult:
        """All lanes pooled into one scalar-shaped result."""
        return LifetimeResult(
            scheme_name=self.scheme_name,
            rate=self.rate,
            writes_per_cycle=self.writes_per_cycle,
            trace=self.trace,
        )

    def __str__(self) -> str:
        return (
            f"{self.scheme_name}: rate {self.rate:.4f}, lifetime gain "
            f"{self.lifetime_gain:.2f} over {self.lanes} lanes, aggregate "
            f"gain {self.aggregate_gain:.2f}"
        )


#: Erase cycles completed across all lifetime simulations in this process.
#: Lane-deterministic (a ``cycles x lanes`` run always completes exactly
#: ``cycles * lanes``), so jobs=1 and jobs=N sweeps agree exactly.
_CYCLES = _metrics.counter("lifetime.cycles")


def _as_rng(seed) -> np.random.Generator:
    """Accept an int seed or an already-built Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _inject_defects(varray, rng: np.random.Generator, state, fraction):
    """Pin a random subset of v-cells at the saturated level."""
    stuck = rng.random(varray.num_cells) < fraction
    targets = varray.levels(state)
    targets[stuck] = varray.spec.max_level
    return varray.program_levels(state, targets)


def _validate_defects(scheme, varray, defect_fraction: float) -> None:
    if not 0 <= defect_fraction < 1:
        raise ConfigurationError("defect_fraction must lie in [0, 1)")
    if defect_fraction and varray is None:
        raise ConfigurationError(
            f"{scheme.name} is not cell-based; defects unsupported"
        )


class LifetimeSimulator:
    """Streams random datawords into one simulated page until it wears out.

    A ``B = 1`` view of :class:`BatchLifetimeSimulator`: the single lane
    runs the same lockstep engine, seeded with ``seed``.

    Parameters
    ----------
    scheme:
        The rewriting scheme under test.
    seed:
        RNG seed, or an injected :class:`numpy.random.Generator` (so batched
        and scalar runs can share RNG streams); simulations are fully
        deterministic given a seed.
    verify_reads:
        When True, every write is read back and compared (slower; used by
        integration tests to prove end-to-end correctness during the whole
        life of the page).
    num_levels:
        Cell level count for histogram bucketing; inferred from the scheme's
        code when not given.
    defect_fraction:
        Fraction of v-cells stuck at the top level from the start of every
        erase cycle (manufacturing defects / early wearout — Grupp et al.,
        cited in the paper's related work).  Only supported for cell-based
        schemes; codes that can route around saturated cells (MFCs) degrade
        gracefully, codes that cannot collapse.
    """

    def __init__(
        self,
        scheme: RewritingScheme,
        seed: int | np.random.Generator = 0,
        verify_reads: bool = False,
        num_levels: int | None = None,
        defect_fraction: float = 0.0,
    ) -> None:
        self.scheme = scheme
        self._lane = BatchLifetimeSimulator(
            scheme,
            seeds=[seed],
            verify_reads=verify_reads,
            num_levels=num_levels,
            defect_fraction=defect_fraction,
        )

    def run(
        self, cycles: int = 5, max_writes_per_cycle: int = 100_000
    ) -> LifetimeResult:
        """Simulate ``cycles`` erase cycles; return gains and traces."""
        return self._lane.run(cycles, max_writes_per_cycle).lane_result(0)


class BatchLifetimeSimulator:
    """Runs ``lanes`` independent page lifetimes in lockstep.

    Every iteration draws one dataword per active lane (from that lane's own
    generator) and pushes the whole batch through the scheme's
    ``write_batch``.  Lanes whose page demands an erase are recycled in
    place: the cycle's write count is recorded, the lane gets a fresh
    (defect-injected) state, and the batch keeps going until every lane has
    completed ``cycles`` erase cycles.  Per-lane seeding makes lane ``i``
    independent of the batch size: it reproduces
    ``LifetimeSimulator(scheme, seed=<lane i's seed>)`` bit for bit.

    Parameters
    ----------
    scheme:
        The rewriting scheme under test.
    lanes:
        Number of concurrent simulated pages (ignored when ``seeds`` is
        given).
    seed:
        Base seed; lane ``i`` uses ``seed + i`` unless ``seeds`` overrides.
    seeds:
        Optional explicit per-lane seeds — ints or injected
        :class:`numpy.random.Generator` instances, one per lane.
    collect_trace:
        Record the Fig. 15/16 instrumentation (per-update increment
        fractions and at-erase level histograms).  Disable for pure
        throughput runs.
    verify_reads / num_levels / defect_fraction:
        As in :class:`LifetimeSimulator`.
    """

    def __init__(
        self,
        scheme: RewritingScheme,
        lanes: int = 1,
        seed: int = 0,
        seeds: Sequence[int | np.random.Generator] | None = None,
        verify_reads: bool = False,
        num_levels: int | None = None,
        defect_fraction: float = 0.0,
        collect_trace: bool = True,
    ) -> None:
        self.scheme = scheme
        if seeds is not None:
            self._rngs = [_as_rng(lane_seed) for lane_seed in seeds]
        else:
            if lanes < 1:
                raise ConfigurationError("need at least one lane")
            self._rngs = [_as_rng(seed + lane) for lane in range(lanes)]
        self.lanes = len(self._rngs)
        if self.lanes < 1:
            raise ConfigurationError("need at least one lane")
        self.verify_reads = verify_reads
        varray = getattr(getattr(scheme, "code", None), "varray", None)
        if num_levels is None:
            num_levels = varray.spec.levels if varray is not None else 4
        self.num_levels = num_levels
        _validate_defects(scheme, varray, defect_fraction)
        self.defect_fraction = defect_fraction
        self._varray = varray
        self.collect_trace = collect_trace

    def _fresh_lane_state(self, lane: int):
        state = self.scheme.fresh_state()
        if self.defect_fraction:
            state = _inject_defects(
                self._varray, self._rngs[lane], state, self.defect_fraction
            )
        return state

    def run(
        self, cycles: int = 5, max_writes_per_cycle: int = 100_000
    ) -> BatchLifetimeResult:
        """Simulate ``cycles`` erase cycles on every lane."""
        if cycles < 1:
            raise ConfigurationError("need at least one erase cycle")
        with _span(
            "lifetime.run", scheme=self.scheme.name, lanes=self.lanes,
            cycles=cycles,
        ):
            return self._run(cycles, max_writes_per_cycle)

    def _run(self, cycles: int, max_writes_per_cycle: int) -> BatchLifetimeResult:
        scheme = self.scheme
        lanes = self.lanes
        states = scheme.fresh_states(lanes)
        array_states = isinstance(states, np.ndarray)
        if self.defect_fraction:
            for lane in range(lanes):
                states[lane] = self._fresh_lane_state(lane)
        writes = np.zeros(lanes, dtype=np.int64)
        cycles_done = np.zeros(lanes, dtype=np.int64)
        counts: list[list[int]] = [[] for _ in range(lanes)]
        active = np.ones(lanes, dtype=bool)
        trace = UpdateTrace()
        levels = (
            scheme.cell_levels_batch(states) if self.collect_trace else None
        )
        while active.any():
            idx = np.flatnonzero(active)
            datawords = np.stack(
                [
                    self._rngs[lane].integers(
                        0, 2, scheme.dataword_bits, dtype=np.uint8
                    )
                    for lane in idx
                ]
            )
            if array_states:
                sub_states = states[idx]
            else:
                sub_states = [states[lane] for lane in idx]
            new_states, writable = scheme.write_batch(sub_states, datawords)
            ok_lanes = idx[writable]
            # Commit successful lanes.
            if array_states:
                states[ok_lanes] = np.asarray(new_states)[writable]
            else:
                for j, lane in enumerate(idx):
                    if writable[j]:
                        states[lane] = new_states[j]
            writes[ok_lanes] += 1
            if (writes[ok_lanes] >= max_writes_per_cycle).any():
                raise ConfigurationError(
                    f"{scheme.name} accepted {max_writes_per_cycle} writes "
                    "without needing an erase; raise max_writes_per_cycle if "
                    "this is intended"
                )
            if self.verify_reads and len(ok_lanes):
                if array_states:
                    stored = scheme.read_batch(states[ok_lanes])
                else:
                    stored = scheme.read_batch(
                        [states[lane] for lane in ok_lanes]
                    )
                mismatches = np.flatnonzero(
                    (stored != datawords[writable]).any(axis=1)
                )
                if len(mismatches):
                    lane = int(ok_lanes[mismatches[0]])
                    raise DecodingError(
                        f"{scheme.name}: read-back mismatch on lane {lane}, "
                        f"update {int(writes[lane])}"
                    )
            if levels is not None and len(ok_lanes):
                if array_states:
                    new_levels = scheme.cell_levels_batch(states[ok_lanes])
                else:
                    new_levels = scheme.cell_levels_batch(
                        [states[lane] for lane in ok_lanes]
                    )
                for j, lane in enumerate(ok_lanes):
                    trace.record_update(
                        int(writes[lane]), levels[lane], new_levels[j]
                    )
                    levels[lane] = new_levels[j]
            # Recycle exhausted lanes in place.
            for lane in idx[~writable]:
                lane = int(lane)
                counts[lane].append(int(writes[lane]))
                writes[lane] = 0
                cycles_done[lane] += 1
                _CYCLES.inc()
                if levels is not None:
                    trace.record_erase(levels[lane], self.num_levels)
                if cycles_done[lane] >= cycles:
                    active[lane] = False
                    continue
                fresh = self._fresh_lane_state(lane)
                states[lane] = fresh
                if levels is not None:
                    levels[lane] = scheme.cell_levels(fresh)
        return BatchLifetimeResult(
            scheme_name=scheme.name,
            rate=scheme.rate,
            writes_per_cycle_by_lane=tuple(
                tuple(lane_counts) for lane_counts in counts
            ),
            trace=trace,
        )
