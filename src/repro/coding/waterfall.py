"""Plain waterfall coding (paper Fig. 3).

One data bit per ``L``-level v-cell, stored as the level's parity.  Updating
a cell's bit raises its level by one; a cell at the top level can no longer
flip.  Without coset freedom this collapses quickly at page granularity —
the scheme exists as a baseline/ablation showing why MFCs pair waterfall
cells with coset selection.
"""

from __future__ import annotations

import numpy as np

from repro.coding.page_code import PageCode
from repro.vcell import VCellArray, VCellSpec

__all__ = ["WaterfallCode"]


class WaterfallCode(PageCode):
    """Uncoded waterfall storage: dataword bit ``i`` lives in v-cell ``i``."""

    def __init__(self, page_bits: int, vcell_levels: int = 4) -> None:
        self.varray = VCellArray(VCellSpec(vcell_levels), page_bits)
        self.page_bits = int(page_bits)
        self.dataword_bits = self.varray.num_cells

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raise every cell whose parity differs from its data bit by one
        level; a lane needing a saturated cell flipped is unwritable."""
        data = self._check_datawords(datawords)
        levels = self.varray.levels_batch(pages)
        targets = levels + ((levels % 2) != data)
        writable = ~(targets > self.varray.spec.max_level).any(axis=1)
        targets = np.where(writable[:, None], targets, levels)
        return self.varray.program_levels_batch(pages, targets), writable

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        return (self.varray.levels_batch(pages) % 2).astype(np.uint8)
