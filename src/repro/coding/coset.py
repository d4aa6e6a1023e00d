"""The complete Methuselah rewriting coset code over one page.

Composition (paper Sections III-V):

1. the page's bits are viewed as 4-level v-cells (:mod:`repro.vcell`),
2. each v-cell stores 1 or 2 codeword bits via a
   :class:`~repro.coding.cost.CellCodebook` (Fig. 10),
3. the dataword is the syndrome of the stored codeword under a rate ``1/m``
   convolutional code; writing picks the minimum-wear coset member with the
   Viterbi search (Section V.A).
"""

from __future__ import annotations

import numpy as np

from repro.coding.bitops import pack_values_axis, unpack_values_axis
from repro.coding.convolutional import ConvolutionalCode
from repro.coding.cost import CellCodebook, make_codebook
from repro.coding.page_code import PageCode
from repro.coding.registry import get_code
from repro.coding.syndrome import SyndromeFormer
from repro.coding.viterbi import CosetViterbi
from repro.errors import CodingError, ConfigurationError
from repro.obs.tracing import span as _span
from repro.vcell import VCellArray, VCellSpec

__all__ = ["ConvolutionalCosetCode"]


class ConvolutionalCosetCode(PageCode):
    """A rewriting coset code bound to a concrete page size.

    Parameters
    ----------
    code:
        The rate ``1/m`` convolutional code generating the cosets, or None
        to pull one from the registry via ``rate_denominator``.
    page_bits:
        Raw physical bits per page (the paper's 4 KB page is 32768).
    bits_per_cell:
        1 (waterfall mapping) or 2 (direct mapping) — Fig. 10.
    vcell_levels:
        Levels of the virtual cells (the paper uses 4 throughout).
    codebook:
        Optional custom codebook (e.g. ablation metrics); overrides
        ``bits_per_cell``/``vcell_levels`` defaults.
    """

    def __init__(
        self,
        page_bits: int,
        code: ConvolutionalCode | None = None,
        *,
        rate_denominator: int = 2,
        constraint_length: int | None = None,
        bits_per_cell: int = 1,
        vcell_levels: int = 4,
        codebook: CellCodebook | None = None,
    ) -> None:
        if code is None:
            if constraint_length is None:
                code = get_code(rate_denominator)
            else:
                code = get_code(rate_denominator, constraint_length)
        self.code = code
        self.codebook = codebook or make_codebook(bits_per_cell, vcell_levels)
        if self.codebook.num_levels != vcell_levels and codebook is None:
            raise ConfigurationError("codebook level count mismatch")
        self.varray = VCellArray(VCellSpec(self.codebook.num_levels), page_bits)
        self.page_bits = int(page_bits)
        m = code.num_outputs
        if m % self.codebook.bits_per_cell != 0:
            raise ConfigurationError(
                f"rate-1/{m} outputs do not divide into "
                f"{self.codebook.bits_per_cell}-bit symbols"
            )
        self.cells_per_step = m // self.codebook.bits_per_cell
        self.steps = self.varray.num_cells // self.cells_per_step
        if self.steps == 0:
            raise ConfigurationError(
                f"page of {page_bits} bits too small for one trellis step"
            )
        self.used_cells = self.steps * self.cells_per_step
        # The Viterbi search leaves the initial trellis state free, which
        # perturbs the syndrome of the first 2*memory steps; those steps
        # carry no data ("guard" region).  This is the small rate cost of
        # extra states the paper mentions in Section III.
        self.guard_steps = 2 * code.memory
        if self.steps <= self.guard_steps:
            raise ConfigurationError(
                f"page too small: {self.steps} trellis steps do not exceed "
                f"the {self.guard_steps}-step guard region"
            )
        self.dataword_bits = (self.steps - self.guard_steps) * (m - 1)
        self.former = SyndromeFormer(code)
        self.viterbi = CosetViterbi(code.build_trellis(), self.codebook)
        self._last_cost = float("nan")
        self._last_costs = np.full(0, np.nan)

    @property
    def coset_rate(self) -> float:
        """Rate of the coset code itself: ``(m-1)/m``."""
        m = self.code.num_outputs
        return (m - 1) / m

    @property
    def ideal_rate(self) -> float:
        """Implementation rate ignoring page-boundary rounding.

        ``coset_rate * bits_per_cell / (vcell_levels - 1)`` — e.g. 1/6 for
        MFC-1/2-1BPC on 4-level v-cells.
        """
        return (
            self.coset_rate
            * self.codebook.bits_per_cell
            / (self.codebook.num_levels - 1)
        )

    @property
    def last_write_cost(self) -> float:
        """Metric cost of the most recent successful encode (the last
        writable lane of a batched one)."""
        return self._last_cost

    @property
    def last_write_costs(self) -> np.ndarray:
        """Per-lane Viterbi costs of the most recent batched encode.

        Unwritable lanes hold ``inf``.
        """
        return self._last_costs.copy()

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``B`` independent pages in lockstep.

        ``datawords`` is ``(B, dataword_bits)``, ``pages`` is
        ``(B, page_bits)``.  Returns ``(new_pages, writable)``; lanes whose
        coset has no writable member keep their previous bits and come back
        False in the mask.
        """
        data = self._check_datawords(datawords)
        pages = np.asarray(pages, dtype=np.uint8)
        lanes = len(data)
        if len(pages) != lanes:
            raise CodingError(
                f"{lanes} datawords but {len(pages)} pages"
            )
        m = self.code.num_outputs
        with _span("coset.encode_batch", lanes=lanes, steps=self.steps):
            syndrome = np.zeros((lanes, self.steps, m - 1), dtype=np.uint8)
            syndrome[:, self.guard_steps :] = data.reshape(
                lanes, self.steps - self.guard_steps, m - 1
            )
            representative = self.former.representative_batch(syndrome)
            rep_values = pack_values_axis(representative.reshape(lanes, -1), m)
            all_levels = self.varray.levels_batch(pages)
            step_levels = all_levels[:, : self.used_cells].reshape(
                lanes, self.steps, self.cells_per_step
            )
            result = self.viterbi.search_batch(rep_values, step_levels)
            self._last_costs = result.total_costs
            if result.writable.any():
                self._last_cost = float(
                    result.total_costs[result.writable][-1]
                )
            # Unwritable lanes are reprogrammed to their current levels (a
            # no-op) so their bits pass through unchanged.
            targets = all_levels.copy()
            targets[:, : self.used_cells] = np.where(
                result.writable[:, None],
                result.target_levels.reshape(lanes, -1),
                all_levels[:, : self.used_cells],
            )
            new_pages = self.varray.program_levels_batch(pages, targets)
            return new_pages, result.writable

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        """Decode ``B`` pages to their ``(B, dataword_bits)`` datawords."""
        pages = np.asarray(pages, dtype=np.uint8)
        lanes = len(pages)
        with _span("coset.decode_batch", lanes=lanes):
            levels = self.varray.levels_batch(pages)[:, : self.used_cells]
            symbols = self.codebook.read_table[levels]
            codeword_bits = unpack_values_axis(
                symbols, self.codebook.bits_per_cell
            )
            streams = codeword_bits.reshape(
                lanes, self.steps, self.code.num_outputs
            )
            syndrome = self.former.syndrome_batch(streams)
            return syndrome[:, self.guard_steps :].reshape(lanes, -1)

    def __str__(self) -> str:
        return (
            f"coset code [{self.code}] x {self.codebook.name} on "
            f"{self.varray.num_cells} v-cells ({self.page_bits}-bit page), "
            f"dataword {self.dataword_bits} bits"
        )
