"""Vectorized virtual-cell views over page-sized bit arrays.

The coding layers never loop over cells in Python; they convert whole pages
between bit and level domains through this module's numpy operations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CellSaturatedError, VCellError
from repro.obs import registry as _metrics
from repro.vcell.vcell import VCellSpec

__all__ = ["VCellArray"]

#: Level-domain programming telemetry: pages pushed through
#: ``program_levels*`` and the total level increments applied (the v-cell
#: wear currency of the paper's cost model).
_PROGRAMS = _metrics.counter("vcell.programs")
_LEVEL_INCREMENTS = _metrics.counter("vcell.level_increments")


class VCellArray:
    """Interprets a page's bits as an array of ``L``-level v-cells.

    The view is stateless with respect to the page: every method takes and
    returns plain numpy arrays, so the same instance can serve many pages.
    A page of ``page_bits`` bits holds ``page_bits // (levels - 1)`` v-cells;
    leftover bits (when ``levels - 1`` does not divide the page) are ignored,
    mirroring how a real FTL would leave them unused.
    """

    def __init__(self, spec: VCellSpec, page_bits: int) -> None:
        self.spec = spec
        self.page_bits = int(page_bits)
        self.bits_per_cell = spec.bits_per_cell
        self.num_cells = self.page_bits // self.bits_per_cell
        if self.num_cells == 0:
            raise VCellError(
                f"a {self.page_bits}-bit page cannot hold any "
                f"{spec.levels}-level v-cells ({self.bits_per_cell} bits each)"
            )
        self.used_bits = self.num_cells * self.bits_per_cell

    def _cell_matrix_batch(self, pages: np.ndarray) -> np.ndarray:
        """Reshape ``(B, page_bits)`` pages into ``(B, num_cells, bits_per_cell)``."""
        bits = np.asarray(pages, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.page_bits:
            raise VCellError(
                f"expected (lanes, {self.page_bits}) pages, got shape {bits.shape}"
            )
        return bits[:, : self.used_bits].reshape(
            len(bits), self.num_cells, self.bits_per_cell
        )

    def levels(self, page_bits: np.ndarray) -> np.ndarray:
        """Per-cell levels of one page — a ``B = 1`` view of
        :meth:`levels_batch`."""
        return self.levels_batch(np.asarray(page_bits, dtype=np.uint8)[None])[0]

    def levels_batch(self, pages: np.ndarray) -> np.ndarray:
        """Per-cell levels for ``B`` pages at once: ``(B, num_cells)``."""
        return self._cell_matrix_batch(pages).sum(axis=2, dtype=np.int64)

    def erased_page(self) -> np.ndarray:
        """A fresh all-zero page buffer."""
        return np.zeros(self.page_bits, dtype=np.uint8)

    def program_levels(self, page_bits: np.ndarray, target_levels: np.ndarray) -> np.ndarray:
        """New bits of one page realizing ``target_levels`` — a ``B = 1``
        view of :meth:`program_levels_batch`."""
        return self.program_levels_batch(
            np.asarray(page_bits, dtype=np.uint8)[None],
            np.asarray(target_levels)[None],
        )[0]

    def program_levels_batch(
        self, pages: np.ndarray, target_levels: np.ndarray
    ) -> np.ndarray:
        """Return new ``(B, page_bits)`` bits realizing ``(B, num_cells)``
        target levels.

        For each cell the lowest-index unset bits are set until the cell
        reaches its target level.  Within a level all bit representations are
        interchangeable for popcount v-cells (any superset pattern of any
        higher weight stays reachable), so the lowest-bit-first choice loses
        no future flexibility.

        Raises
        ------
        VCellError
            If any target is below the cell's current level.
        CellSaturatedError
            If any target exceeds the maximum level.
        """
        targets = np.asarray(target_levels)
        cells = self._cell_matrix_batch(pages)
        lanes = len(cells)
        if targets.shape != (lanes, self.num_cells):
            raise VCellError(
                f"expected ({lanes}, {self.num_cells}) target levels, got "
                f"shape {targets.shape}"
            )
        if targets.max(initial=0) > self.spec.max_level:
            lane, cell = (arr[0] for arr in np.nonzero(targets > self.spec.max_level))
            raise CellSaturatedError(
                f"lane {lane}, cell {cell}: target level "
                f"{targets[lane, cell]} exceeds L{self.spec.max_level}"
            )
        current = cells.sum(axis=2, dtype=np.int64)
        deficits = targets - current
        if (deficits < 0).any():
            lane, cell = (arr[0] for arr in np.nonzero(deficits < 0))
            raise VCellError(
                f"lane {lane}, cell {cell}: cannot lower level from "
                f"L{current[lane, cell]} to L{targets[lane, cell]} without "
                "an erase"
            )
        # Rank each unset bit within its cell; set those ranked below the
        # deficit.  ranks[..., j] = number of unset bits strictly before j.
        unset = cells == 0
        ranks = np.cumsum(unset, axis=2) - unset
        to_set = unset & (ranks < deficits[:, :, None])
        new_cells = cells | to_set.astype(np.uint8)
        new_pages = np.asarray(pages, dtype=np.uint8).copy()
        new_pages[:, : self.used_bits] = new_cells.reshape(lanes, -1)
        if _metrics.is_enabled():
            _PROGRAMS.inc(lanes)
            _LEVEL_INCREMENTS.inc(int(deficits.sum()))
        return new_pages

    def saturated(self, page_bits: np.ndarray) -> np.ndarray:
        """Boolean mask of cells at the maximum level."""
        return self.levels(page_bits) == self.spec.max_level

    def headroom(self, page_bits: np.ndarray) -> int:
        """Total level increments still available across the page."""
        return int(self.num_cells * self.spec.max_level - self.levels(page_bits).sum())

    def level_histogram(self, page_bits: np.ndarray) -> np.ndarray:
        """Count of cells at each level (length ``levels`` array)."""
        return np.bincount(self.levels(page_bits), minlength=self.spec.levels)
