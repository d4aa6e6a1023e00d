"""The baseline log-structured FTL (out-of-place updates, GC, wear leveling)."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import (
    BlockWornOutError,
    CodingError,
    FTLError,
    OutOfSpaceError,
    ProgramFailedError,
    UncorrectableReadError,
)
from repro.flash.chip import FlashChip
from repro.ftl.gc import GreedyVictimPolicy, VictimPolicy
from repro.ftl.mapping import PageMapping, PhysicalPageState
from repro.ftl.wear_leveling import DynamicWearLeveling, WearLevelingPolicy
from repro.obs import registry as _metrics
from repro.obs.tracing import span as _span

__all__ = ["BasicFTL", "FTLStats"]

_GC_RUNS = _metrics.counter("ftl.gc_runs")
_SCRUB_PASSES = _metrics.counter("ftl.scrub_passes")


@dataclass
class FTLStats:
    """Host-visible operation accounting for an FTL.

    The reliability counters record graceful degradation at work:
    ``program_failures`` are chip-reported failed programs the FTL absorbed
    by retrying elsewhere, ``read_retries`` are extra reads in the
    read-recovery ladder, ``uncorrectable_reads`` are reads that exhausted
    the ladder, ``scrub_relocations`` are pages moved by background
    scrubbing, and ``data_loss_events`` counts host-visible losses (every
    uncorrectable read is one).
    """

    host_writes: int = 0
    host_reads: int = 0
    in_place_rewrites: int = 0
    relocations: int = 0
    gc_relocations: int = 0
    gc_runs: int = 0
    migrations: int = 0
    retired_blocks: int = 0
    program_failures: int = 0
    read_retries: int = 0
    uncorrectable_reads: int = 0
    scrub_relocations: int = 0
    data_loss_events: int = 0

    def summary(self) -> dict[str, int]:
        """Flat dict of all counters, for printing or logging."""
        return dict(self.__dict__)

    def snapshot(self) -> "FTLStats":
        """An independent copy safe to ship across processes."""
        return FTLStats(**self.__dict__)

    def merge(self, other: "FTLStats") -> None:
        """Fold another FTL's (or process's) counts into this one."""
        for name, value in other.__dict__.items():
            setattr(self, name, getattr(self, name) + value)


class BasicFTL:
    """A classic page-mapped FTL over a :class:`~repro.flash.chip.FlashChip`.

    Every host write of a logical page consumes one fresh physical page (no
    program-without-erase).  Subclasses override :meth:`_store` /
    :meth:`_load` to insert coding layers.

    Parameters
    ----------
    chip:
        The flash chip to manage.
    logical_pages:
        Host-visible address space; must fit within the chip minus
        ``reserve_blocks`` of over-provisioning.
    victim_policy / wear_leveling:
        Pluggable GC and allocation policies.
    reserve_blocks:
        Blocks withheld from the logical capacity so GC always has room.
    wl_check_interval:
        Host writes between static wear-leveling checks (policies whose
        ``wants_migration`` returns True get cold data migrated off the
        least-worn block so it rejoins the allocation rotation).
    max_program_retries:
        Failed page programs are retried on fresh pages this many times
        (permanent failures also early-retire the block) before the error
        is surfaced to the caller.
    max_read_retries:
        Extra noisy re-reads the read-recovery ladder attempts when a read
        is detectably corrupt, before declaring it uncorrectable.
    """

    def __init__(
        self,
        chip: FlashChip,
        logical_pages: int,
        victim_policy: VictimPolicy | None = None,
        wear_leveling: WearLevelingPolicy | None = None,
        reserve_blocks: int = 1,
        wl_check_interval: int = 32,
        max_program_retries: int = 4,
        max_read_retries: int = 4,
    ) -> None:
        geometry = chip.geometry
        if reserve_blocks < 1:
            raise FTLError("need at least one reserve block for GC")
        usable_pages = (geometry.blocks - reserve_blocks) * geometry.pages_per_block
        if logical_pages > usable_pages:
            raise FTLError(
                f"{logical_pages} logical pages exceed usable capacity "
                f"{usable_pages} ({reserve_blocks} blocks reserved)"
            )
        self.chip = chip
        self.mapping = PageMapping(
            logical_pages, geometry.blocks, geometry.pages_per_block
        )
        self.victim_policy = victim_policy or GreedyVictimPolicy()
        self.wear_leveling = wear_leveling or DynamicWearLeveling()
        self.reserve_blocks = reserve_blocks
        self.stats = FTLStats()
        self._free_blocks: set[int] = set(range(geometry.blocks))
        self._retired: set[int] = set()
        self._reclaiming: set[int] = set()
        self._open_block: int | None = None
        self._next_page: int = 0
        self._in_gc = False
        self.wl_check_interval = wl_check_interval
        self._writes_since_wl_check = 0
        if max_program_retries < 0 or max_read_retries < 0:
            raise FTLError("retry budgets must be non-negative")
        self.max_program_retries = max_program_retries
        self.max_read_retries = max_read_retries
        #: Optional observer for internal state transitions (GC reclaims,
        #: block retirements, wear-leveling migrations).  The durability
        #: layer subscribes here so those transitions reach the write-ahead
        #: journal; ``None`` costs one attribute check per event.
        self.event_sink: Callable[[str, dict], None] | None = None

    def _emit(self, kind: str, **info) -> None:
        """Publish one internal transition to the attached event sink."""
        if self.event_sink is not None:
            self.event_sink(kind, info)

    # -- storage hooks (overridden by coding FTLs) ---------------------------

    @property
    def dataword_bits(self) -> int:
        """Host-visible bits per logical page."""
        return self.chip.geometry.page_bits

    def _store(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data`` for storage on a fresh page."""
        return np.asarray(data, dtype=np.uint8)

    def _load(self, raw: np.ndarray) -> np.ndarray:
        """Decode stored page bits back to host data."""
        return raw

    def _load_checked(self, raw: np.ndarray) -> tuple[np.ndarray, bool]:
        """Decode with error detection: returns ``(data, ok)``.

        The base FTL stores raw bits with no redundancy, so corruption is
        undetectable and every read reports ``ok`` — coding FTLs override
        this with their scheme's ECC verdict.
        """
        return self._load(raw), True

    # -- host interface ------------------------------------------------------

    def write(self, lpn: int, data: np.ndarray) -> None:
        """Write one logical page."""
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.dataword_bits,):
            raise CodingError(
                f"logical pages hold {self.dataword_bits} bits, got {data.shape}"
            )
        self._write_out_of_place(lpn, data, count_relocation=False)
        self.stats.host_writes += 1
        self._maybe_static_migration()

    def write_batch(self, lpns, datawords: np.ndarray) -> None:
        """Write several logical pages, in order, one :meth:`write` each."""
        for lpn, data in zip(lpns, self._check_batch(lpns, datawords)):
            self.write(lpn, data)

    def _check_batch(self, lpns, datawords: np.ndarray) -> np.ndarray:
        data = np.asarray(datawords, dtype=np.uint8)
        if data.shape != (len(lpns), self.dataword_bits):
            raise CodingError(
                f"expected ({len(lpns)}, {self.dataword_bits}) dataword "
                f"bits, got {data.shape}"
            )
        return data

    def read(self, lpn: int) -> np.ndarray:
        """Read one logical page (zeros if never written).

        Detectably corrupt reads climb a bounded recovery ladder — up to
        ``max_read_retries`` re-reads (each a fresh sensing attempt, the
        read-retry feature of real controllers) — before the FTL gives up
        and raises :class:`~repro.errors.UncorrectableReadError`.
        """
        addr = self.mapping.lookup(lpn)
        self.stats.host_reads += 1
        if addr is None:
            return np.zeros(self.dataword_bits, dtype=np.uint8)
        data, ok = self._load_checked(self.chip.read_page(*addr))
        retries = 0
        while not ok and retries < self.max_read_retries:
            retries += 1
            self.stats.read_retries += 1
            data, ok = self._load_checked(self.chip.read_page(*addr))
        if not ok:
            self.stats.uncorrectable_reads += 1
            self.stats.data_loss_events += 1
            raise UncorrectableReadError(
                f"logical page {lpn} at {addr} unrecoverable after "
                f"{retries} read retries"
            )
        return data

    def trim(self, lpn: int) -> None:
        """Discard a logical page (the host's TRIM/deallocate command).

        The physical page becomes garbage immediately, so GC can reclaim
        its block without relocating it — the write-amplification benefit
        TRIM exists for.  Reading a trimmed page returns zeros.
        """
        addr = self.mapping.lookup(lpn)
        if addr is not None:
            self.mapping.invalidate(addr)

    # -- internals -----------------------------------------------------------

    def _write_out_of_place(
        self, lpn: int, data: np.ndarray, count_relocation: bool
    ) -> None:
        encoded = self._store(data)
        addr = self._program_encoded(encoded)
        self.mapping.map(lpn, addr)
        if count_relocation:
            self.stats.relocations += 1

    def _program_encoded(self, encoded: np.ndarray) -> tuple[int, int]:
        """Program ``encoded`` onto a fresh page, riding out chip failures.

        Failed programs are retried on newly allocated pages (the failed
        page is simply left unmapped); permanent failures additionally
        early-retire the block so the allocator stops trusting it.  The
        mapping is only updated by the caller after success, so a failure
        never strands or corrupts live data.
        """
        failures = 0
        while True:
            addr = self._allocate_page()
            try:
                self.chip.program_page(addr[0], addr[1], encoded)
            except ProgramFailedError as exc:
                failures += 1
                self.stats.program_failures += 1
                # The failed page held no data but is spent until the next
                # erase; mark it garbage so GC still reclaims its block.
                self.mapping.discard(addr)
                if exc.permanent:
                    self._retire_block(addr[0])
                if failures > self.max_program_retries:
                    raise
                continue
            return addr

    def _retire_block(self, block: int) -> None:
        """Take a block out of service (wear-out or grown defect).

        Live pages already on the block stay readable; :meth:`scrub`
        relocates them to healthy blocks.
        """
        if block in self._retired:
            return
        self._retired.add(block)
        self.stats.retired_blocks += 1
        self._free_blocks.discard(block)
        if self._open_block == block:
            self._open_block = None
            self._next_page = 0
        self._emit("block_retired", block=block)

    def _allocate_page(self) -> tuple[int, int]:
        geometry = self.chip.geometry
        if self._open_block is not None and self._next_page < geometry.pages_per_block:
            if not self._in_gc and len(self._free_blocks) < self.reserve_blocks:
                # Replenish while the open block still has spare pages —
                # they are the relocation headroom that lets GC make
                # progress even when no whole block is free.  Run BEFORE
                # reserving the page: GC must never run with an allocated-
                # but-unprogrammed page outstanding (a nested reclaim
                # could erase the block under the reservation).
                self._garbage_collect(target_free=self.reserve_blocks)
            if (
                self._open_block is not None
                and self._next_page < geometry.pages_per_block
            ):
                addr = (self._open_block, self._next_page)
                self._next_page += 1
                return addr
        self._open_block = None
        if not self._in_gc and len(self._free_blocks) <= self.reserve_blocks:
            # Top up free blocks BEFORE opening a new one (proactively, so
            # GC relocations always have headroom).  Ordering matters: GC
            # must never run between reserving a page on a fresh block and
            # returning it — a relocation that fails transiently can turn
            # the fresh block into a GC candidate, and a nested reclaim
            # would erase it with the reservation outstanding, handing the
            # same physical page out twice.
            self._garbage_collect(target_free=self.reserve_blocks + 1)
            if (
                self._open_block is not None
                and self._next_page < geometry.pages_per_block
            ):
                # GC opened a fresh block for its relocations and left
                # spare pages on it.  Keep writing there — opening yet
                # another block would strand those pages in a closed
                # block with no invalid pages, invisible to GC forever.
                addr = (self._open_block, self._next_page)
                self._next_page += 1
                return addr
        if not self._free_blocks:
            raise OutOfSpaceError(
                "no free blocks remain (device worn out or over-full)"
            )
        erase_counts = self.chip.block_erase_counts()
        block = self.wear_leveling.choose_block(
            sorted(self._free_blocks), erase_counts
        )
        self._free_blocks.discard(block)
        self._open_block = block
        self._next_page = 1
        return (block, 0)

    def _gc_candidates(self) -> list[int]:
        """Closed blocks that hold at least one invalid page."""
        return [
            block
            for block in range(self.chip.geometry.blocks)
            if block not in self._free_blocks
            and block not in self._retired
            and block not in self._reclaiming
            and block != self._open_block
            and self.mapping.invalid_pages_in_block(block) > 0
        ]

    def _relocation_headroom(self) -> int:
        """Free pages reachable without reclaiming anything further."""
        geometry = self.chip.geometry
        open_pages = 0
        if self._open_block is not None:
            open_pages = geometry.pages_per_block - self._next_page
        return open_pages + len(self._free_blocks) * geometry.pages_per_block

    def _can_reclaim(self, block: int) -> bool:
        """True when every live page of ``block`` provably fits elsewhere.

        Reclaiming a block we cannot finish would abort mid-relocation;
        checking headroom up front keeps `_reclaim_block` all-or-nothing.
        """
        live = len(self.mapping.live_pages_in_block(block))
        return live <= self._relocation_headroom()

    def _garbage_collect(self, target_free: int = 1) -> None:
        self._in_gc = True
        try:
            while len(self._free_blocks) < target_free:
                candidates = [
                    block
                    for block in self._gc_candidates()
                    if self._can_reclaim(block)
                ]
                erase_counts = self.chip.block_erase_counts()
                victim = self.victim_policy.choose(
                    candidates, self.mapping, erase_counts
                )
                if victim is None:
                    return
                self.stats.gc_runs += 1
                _GC_RUNS.inc()
                try:
                    with _span("ftl.gc.reclaim", victim=victim):
                        self._reclaim_block(victim)
                except (OutOfSpaceError, ProgramFailedError):
                    # Relocation burned more pages than the headroom
                    # estimate promised (failed programs consume pages
                    # without storing data).  The reclaim stopped partway,
                    # but map-then-invalidate kept every live page intact;
                    # stop this GC round instead of killing the caller —
                    # the allocator decides whether the device is truly
                    # full.
                    return
        finally:
            self._in_gc = False

    def _reclaim_block(self, victim: int) -> None:
        """Relocate live pages off ``victim`` and erase (or retire) it."""
        if victim in self._reclaiming:
            return
        # Guard against re-entry: a relocation below can trigger a nested
        # GC pass (when called outside GC, e.g. static migration), and that
        # pass must not pick the half-reclaimed victim again.
        self._reclaiming.add(victim)
        try:
            relocated = 0
            for addr in self.mapping.live_pages_in_block(victim):
                if self.mapping.state(addr) is not PhysicalPageState.LIVE:
                    # A nested pass relocated this page meanwhile.
                    continue
                lpn = self.mapping.owner(addr)
                # Internal relocation read: precise sensing, never noisy.
                data = self._load(self.chip.read_page(*addr, noisy=False))
                # Map-then-invalidate: mapping.map atomically supersedes the
                # old location, so an allocation failure here never strands
                # data.
                self._write_out_of_place(lpn, data, count_relocation=True)
                self.stats.gc_relocations += 1
                relocated += 1
            try:
                self.chip.erase_block(victim)
            except BlockWornOutError:
                self._retire_block(victim)
                return
            self.mapping.release_block(victim)
            self._emit("gc_reclaim", block=victim, relocated=relocated)
            if self.chip.blocks[victim].worn_out:
                # That was the block's final permitted cycle; retire it
                # rather than hand out pages that can no longer be
                # programmed.
                self._retire_block(victim)
                return
            self._free_blocks.add(victim)
        finally:
            self._reclaiming.discard(victim)

    def _maybe_static_migration(self) -> None:
        """Periodically let the wear-leveling policy force cold data moving.

        Blocks full of cold (never-rewritten) data are invisible to GC —
        their pages stay valid, so their erase counts stall while hot
        blocks cycle.  Static wear leveling reclaims the least-worn closed
        block when the policy reports the wear spread is too wide, pulling
        it back into the allocation rotation.
        """
        self._writes_since_wl_check += 1
        if self._writes_since_wl_check < self.wl_check_interval:
            return
        self._writes_since_wl_check = 0
        erase_counts = self.chip.block_erase_counts()
        candidates = [
            block
            for block in range(self.chip.geometry.blocks)
            if block not in self._free_blocks
            and block not in self._retired
            and block not in self._reclaiming
            and block != self._open_block
        ]
        active = [erase_counts[b] for b in candidates] + [
            erase_counts[b] for b in self._free_blocks
        ]
        if not candidates or not self.wear_leveling.wants_migration(active):
            return
        coldest = min(candidates, key=lambda block: erase_counts[block])
        if not self._can_reclaim(coldest):
            return  # not enough headroom to migrate safely; try again later
        self.stats.migrations += 1
        self._emit("wear_migration", block=coldest)
        self._reclaim_block(coldest)

    # -- background scrub ----------------------------------------------------

    def scrub(self, max_relocations: int | None = None) -> int:
        """One background scrub pass; returns the number of pages moved.

        Two jobs, in priority order:

        1. rescue live data stranded on retired blocks (blocks taken out
           of service while still holding current data), and
        2. refresh live pages whose host-path read is detectably degraded
           (only coding FTLs can detect this), rewriting them to healthy
           pages before the damage grows past what ECC can absorb.

        Scrubbing is best-effort: it stops quietly when the device runs
        out of room rather than killing the host workload, and the
        map-then-invalidate relocation keeps the mapping consistent at
        every step.
        """
        budget = max_relocations if max_relocations is not None else float("inf")
        moved = 0
        _SCRUB_PASSES.inc()
        with _span("ftl.scrub") as event:
            try:
                for block in sorted(self._retired):
                    for addr in self.mapping.live_pages_in_block(block):
                        if moved >= budget:
                            return moved
                        moved += self._scrub_relocate(addr)
                for block in range(self.chip.geometry.blocks):
                    if block in self._retired or block == self._open_block:
                        continue
                    for addr in self.mapping.live_pages_in_block(block):
                        if moved >= budget:
                            return moved
                        if not self._scrub_page_ok(self.chip.read_page(*addr)):
                            moved += self._scrub_relocate(addr)
            except (OutOfSpaceError, ProgramFailedError):
                pass  # scrub never escalates; the remaining pages wait
            finally:
                if event is not None:
                    event["attrs"]["moved"] = moved
        return moved

    def _scrub_page_ok(self, raw: np.ndarray) -> bool:
        """Does a host-path read of these bits come back healthy?"""
        _, ok = self._load_checked(raw)
        return ok

    def _scrub_relocate(self, addr: tuple[int, int]) -> int:
        lpn = self.mapping.owner(addr)
        if lpn is None:
            return 0
        # Precise internal sensing recovers the committed bits; the rewrite
        # lands them on a fresh, healthy page.
        data = self._load(self.chip.read_page(*addr, noisy=False))
        self._write_out_of_place(lpn, data, count_relocation=False)
        self.stats.scrub_relocations += 1
        return 1

    @property
    def live_capacity_pages(self) -> int:
        """Physical pages still usable (excludes retired blocks)."""
        geometry = self.chip.geometry
        return (geometry.blocks - len(self._retired)) * geometry.pages_per_block

    @property
    def retired_blocks(self) -> frozenset[int]:
        """Blocks taken out of service after exhausting their erase budget."""
        return frozenset(self._retired)

    # -- durability hooks ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """Picklable capture of all mutable FTL state.

        Taken between host operations, so the transient GC fields
        (``_in_gc``, ``_reclaiming``) are always at rest and are not
        captured.  Chip state is snapshotted separately by the chip.
        """
        return {
            "mapping": self.mapping.snapshot_state(),
            "free_blocks": sorted(self._free_blocks),
            "retired": sorted(self._retired),
            "open_block": self._open_block,
            "next_page": self._next_page,
            "writes_since_wl_check": self._writes_since_wl_check,
            "stats": dict(self.stats.__dict__),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite the FTL with a previously captured snapshot."""
        self.mapping.restore_state(state["mapping"])
        self._free_blocks = set(state["free_blocks"])
        self._retired = set(state["retired"])
        self._reclaiming = set()
        self._in_gc = False
        open_block = state["open_block"]
        self._open_block = None if open_block is None else int(open_block)
        self._next_page = int(state["next_page"])
        self._writes_since_wl_check = int(state["writes_since_wl_check"])
        self.stats = FTLStats(**state["stats"])
