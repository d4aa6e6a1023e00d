"""The paper's rewriting FTL (Fig. 5): coding modules inside the FTL.

A :class:`RewritingFTL` pairs each logical page with a rewriting scheme.
Host updates are first attempted *in place* with program-without-erase; only
when the page code reports the page exhausted does the FTL fall back to the
classic out-of-place path (new page + invalidate old).  With MFC-1/2-1BPC
that turns ~12 host writes into one page relocation, which is exactly how
the lifetime gain reaches the device level.

There is one write path: :meth:`RewritingFTL.write_batch`, with
:meth:`~RewritingFTL.write` its ``B = 1`` view.  It encodes every mapped
page of a batch in one lockstep call, then applies the lanes in order.
Before programming a lane it re-checks the lane's address: an in-place
encode is sound only against the bits actually programmed (the
monotone-level rewrite model), so a lane whose page an earlier lane moved
or rewrote is re-encoded alone.

None of this is visible to the host: the FTL simply exposes smaller logical
pages (``scheme.dataword_bits`` instead of ``page_bits`` — the rate cost).
"""

from __future__ import annotations

import numpy as np

from repro.core.scheme import RewritingScheme
from repro.errors import (
    BlockWornOutError,
    ConfigurationError,
    DecodingError,
    PartialProgramLimitError,
    ProgramFailedError,
)
from repro.flash.chip import FlashChip
from repro.ftl.ftl import BasicFTL
from repro.ftl.gc import VictimPolicy
from repro.ftl.wear_leveling import WearLevelingPolicy

__all__ = ["RewritingFTL"]


class RewritingFTL(BasicFTL):
    """A page-mapped FTL with a v-cell/coding stack between map and chip."""

    def __init__(
        self,
        chip: FlashChip,
        scheme: RewritingScheme,
        logical_pages: int,
        victim_policy: VictimPolicy | None = None,
        wear_leveling: WearLevelingPolicy | None = None,
        reserve_blocks: int = 1,
        max_program_retries: int = 4,
        max_read_retries: int = 4,
    ) -> None:
        state = scheme.fresh_state()
        if not isinstance(state, np.ndarray) or state.shape != (
            chip.geometry.page_bits,
        ):
            raise ConfigurationError(
                f"{scheme.name} does not operate on single "
                f"{chip.geometry.page_bits}-bit pages; the rewriting FTL "
                "needs a page-granularity scheme"
            )
        self.scheme = scheme
        super().__init__(
            chip,
            logical_pages,
            victim_policy=victim_policy,
            wear_leveling=wear_leveling,
            reserve_blocks=reserve_blocks,
            max_program_retries=max_program_retries,
            max_read_retries=max_read_retries,
        )

    @property
    def dataword_bits(self) -> int:
        """Host-visible bits per logical page (the scheme's rate cost)."""
        return self.scheme.dataword_bits

    def _store(self, data: np.ndarray) -> np.ndarray:
        return self.scheme.write(self.scheme.fresh_state(), data)

    def _load(self, raw: np.ndarray) -> np.ndarray:
        return self.scheme.read(raw)

    def _load_checked(self, raw: np.ndarray) -> tuple[np.ndarray, bool]:
        """Decode with the scheme's error detection, when it has any.

        ECC-integrated schemes report uncorrectable damage explicitly;
        other schemes can at least convert a decoder blow-up into a clean
        "corrupt" verdict for the read-recovery ladder.
        """
        code = getattr(self.scheme, "code", None)
        if code is not None and hasattr(code, "decode_with_report"):
            report = code.decode_with_report(raw)
            return report.data, report.detected_uncorrectable == 0
        try:
            return self.scheme.read(raw), True
        except DecodingError:
            return np.zeros(self.dataword_bits, dtype=np.uint8), False

    def _scrub_page_ok(self, raw: np.ndarray) -> bool:
        """Scrub refreshes at the first *correctable* error, preventively."""
        code = getattr(self.scheme, "code", None)
        if code is not None and hasattr(code, "decode_with_report"):
            return code.decode_with_report(raw).clean
        return super()._scrub_page_ok(raw)

    def write(self, lpn: int, data: np.ndarray) -> None:
        """Write one logical page — a ``B = 1`` view of :meth:`write_batch`."""
        self.write_batch([lpn], np.asarray(data, dtype=np.uint8)[None])

    def write_batch(self, lpns, datawords: np.ndarray) -> None:
        """Write several logical pages in order: in-place PWE first,
        relocation as fallback.

        The first write to every mapped logical page is encoded up front in
        one ``scheme.write_batch`` call (a single lockstep Viterbi search for
        MFCs).  A lane whose page an earlier lane moved — by relocation, GC
        or static migration — or rewrote is re-encoded alone, so the result
        is the same as one :meth:`write` per lane.
        """
        data = self._check_batch(lpns, datawords)
        # Pre-encode the first write to each mapped LPN in one call; a later
        # write to the same LPN depends on it, so it is encoded alone.
        first_lane = {lpn: lane for lane, lpn in reversed(list(enumerate(lpns)))}
        mapped = {
            lane: addr
            for lpn, lane in first_lane.items()
            if (addr := self.mapping.lookup(lpn)) is not None
        }
        encoded = {}
        if mapped:
            states, writable = self._encode_in_place(
                list(mapped.values()), data[list(mapped)]
            )
            encoded = {
                lane: (self._page_key(addr), states[j], writable[j])
                for j, (lane, addr) in enumerate(mapped.items())
            }
        for lane, lpn in enumerate(lpns):
            addr = self.mapping.lookup(lpn)
            in_place = False
            if addr is not None:
                key, state, ok = encoded.get(lane, (None, None, False))
                if key != self._page_key(addr):
                    # Not pre-encoded, or an earlier lane's relocation, GC
                    # or static migration moved the page since.
                    states, writable = self._encode_in_place(
                        [addr], data[lane][None]
                    )
                    state, ok = states[0], writable[0]
                in_place = ok and self._program_in_place(addr, state)
            if in_place:
                self.stats.in_place_rewrites += 1
            else:
                self._write_out_of_place(
                    lpn, data[lane], count_relocation=addr is not None
                )
            self.stats.host_writes += 1
            self._maybe_static_migration()

    def _page_key(self, addr: tuple[int, int]) -> tuple:
        """``addr`` and its block's erase count: a moved page can come back
        to the same address only after an erase, so an unchanged key means
        the page has not moved."""
        return addr, self.chip.blocks[addr[0]].erase_count

    def _encode_in_place(self, addrs, datawords: np.ndarray):
        """Encode ``datawords`` onto the current bits of ``addrs``.

        Read-modify-write uses the controller's precise internal sensing;
        host reads stay on the noisy path.
        """
        current = np.stack(
            [self.chip.read_page(*addr, noisy=False) for addr in addrs]
        )
        states, writable = self.scheme.write_batch(current, datawords)
        return np.asarray(states), writable

    def _program_in_place(self, addr: tuple[int, int], state) -> bool:
        """Program-without-erase; False means the page must relocate."""
        try:
            self.chip.program_page(addr[0], addr[1], state)
        except (PartialProgramLimitError, BlockWornOutError):
            # The chip's NOP budget is spent.  mapping.map will invalidate
            # the exhausted page once the new location is secured, so a
            # full device never strands the previous data.
            return False
        except ProgramFailedError as exc:
            # The chip refused the in-place program.  The page keeps its
            # previous (still-decodable) contents, so treat this like an
            # exhausted page: count it, retire the block on a permanent
            # defect, and relocate.
            self.stats.program_failures += 1
            if exc.permanent:
                self._retire_block(addr[0])
            return False
        return True
