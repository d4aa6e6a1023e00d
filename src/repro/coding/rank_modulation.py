"""Rank modulation (Jiang, Mateescu, Schwartz, Bruck — cited as [1]).

Rank modulation stores data in the *relative order* of cell charges rather
than in absolute levels: a group of ``n`` cells encodes one of ``n!``
permutations, and rewriting uses "push-to-top" operations that only ever
add charge.  It is a classic ideal-cell endurance code: it needs cells with
many levels and arbitrary increments, which real 4-level MLC does not offer
— but the paper's virtual cells do, so this module runs it on v-cells of
any level count (Fig. 7's 8-level cells make a natural home).

Encoding uses the factoradic (Lehmer) index of the permutation, so a group
of ``n`` v-cells stores ``floor(log2(n!))`` bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.coding.page_code import PageCode
from repro.errors import CodingError, ConfigurationError
from repro.vcell import VCellArray, VCellSpec

__all__ = ["RankModulationCode", "permutation_from_index", "index_from_permutation"]


def permutation_from_index(index: int, n: int) -> tuple[int, ...]:
    """The ``index``-th permutation of ``range(n)`` in Lehmer order."""
    if not 0 <= index < math.factorial(n):
        raise CodingError(f"permutation index {index} out of range for n={n}")
    items = list(range(n))
    result = []
    for position in range(n, 0, -1):
        block = math.factorial(position - 1)
        digit, index = divmod(index, block)
        result.append(items.pop(digit))
    return tuple(result)


def index_from_permutation(permutation: tuple[int, ...]) -> int:
    """Inverse of :func:`permutation_from_index`."""
    n = len(permutation)
    items = list(range(n))
    index = 0
    for position, value in enumerate(permutation):
        digit = items.index(value)
        index += digit * math.factorial(n - position - 1)
        items.pop(digit)
    return index


class RankModulationCode(PageCode):
    """Rank modulation over groups of v-cells.

    Parameters
    ----------
    page_bits:
        Raw page size in bits.
    group_cells:
        Cells per rank-modulation group (``n``); each group stores
        ``floor(log2(n!))`` bits.
    vcell_levels:
        Levels per v-cell; rank modulation wants headroom, so 8+ levels
        (7+ bits per cell) is the intended configuration.

    The permutation is "charge rank": the cell holding the *bottom* of the
    permutation has the lowest level.  A group with all-equal charges (the
    erased state) represents the identity permutation.
    """

    def __init__(
        self,
        page_bits: int,
        group_cells: int = 4,
        vcell_levels: int = 8,
    ) -> None:
        if group_cells < 2:
            raise ConfigurationError("rank modulation needs >= 2 cells per group")
        self.varray = VCellArray(VCellSpec(vcell_levels), page_bits)
        self.page_bits = int(page_bits)
        self.group_cells = group_cells
        self.num_groups = self.varray.num_cells // group_cells
        if self.num_groups == 0:
            raise ConfigurationError(
                f"page holds {self.varray.num_cells} v-cells, fewer than one "
                f"group of {group_cells}"
            )
        self.bits_per_group = int(math.floor(math.log2(math.factorial(group_cells))))
        self.dataword_bits = self.num_groups * self.bits_per_group
        self._max_level = vcell_levels - 1

    # -- permutation <-> charges ------------------------------------------------
    #
    # Every step below runs over all groups of all lanes at once; the only
    # Python loops walk the ``group_cells`` rank positions.

    def _group_charges(self, pages: np.ndarray) -> np.ndarray:
        """Charges ``([B,] num_groups, group_cells)`` of one page or a
        ``(B, page_bits)`` batch."""
        pages = np.asarray(pages, dtype=np.uint8)
        levels = self.varray.levels_batch(np.atleast_2d(pages))
        used = self.num_groups * self.group_cells
        return levels[:, :used].reshape(
            pages.shape[:-1] + (self.num_groups, self.group_cells)
        )

    def _permutations(self, indices: np.ndarray) -> np.ndarray:
        """:func:`permutation_from_index` over an array of indices."""
        n = self.group_cells
        remaining = np.ones(indices.shape + (n,), dtype=bool)
        permutations = np.empty(indices.shape + (n,), dtype=np.int64)
        for position in range(n):
            digit, indices = np.divmod(indices, math.factorial(n - position - 1))
            # The digit-th cell not yet placed (cells stay in index order).
            unused_rank = np.cumsum(remaining, axis=-1) - 1
            cell = np.argmax(remaining & (unused_rank == digit[..., None]), axis=-1)
            permutations[..., position] = cell
            np.put_along_axis(remaining, cell[..., None], False, axis=-1)
        return permutations

    def _push_to_order(
        self, charges: np.ndarray, permutations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Minimal monotone charge updates realizing ``permutations``.

        Walk each target permutation bottom-to-top; every cell whose charge
        does not already exceed the running floor is pushed just above it
        (the push-to-top primitive generalized to push-above).  Returns the
        new charges and each group's top charge.
        """
        new_charges = charges.copy()
        floor = np.full(charges.shape[:-1], -1, dtype=np.int64)
        for rank in range(self.group_cells):
            cell = permutations[..., rank, None]
            charge = np.take_along_axis(new_charges, cell, axis=-1)[..., 0]
            floor = np.where(charge > floor, charge, floor + 1)
            np.put_along_axis(new_charges, cell, floor[..., None], axis=-1)
        return new_charges, floor

    # -- PageCode interface ------------------------------------------------------

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Push every group to the permutation its bits index; a lane whose
        push would exceed the top level is unwritable."""
        data = self._check_datawords(datawords)
        pages = np.asarray(pages, dtype=np.uint8)
        lanes = len(data)
        levels = self.varray.levels_batch(pages)
        used = self.num_groups * self.group_cells
        charges = levels[:, :used].reshape(
            lanes, self.num_groups, self.group_cells
        )
        weights = 1 << np.arange(self.bits_per_group, dtype=np.int64)
        indices = (
            data.reshape(lanes, self.num_groups, self.bits_per_group).astype(
                np.int64
            )
            @ weights
        )
        new_charges, top = self._push_to_order(
            charges, self._permutations(indices)
        )
        writable = (top <= self._max_level).all(axis=1)
        targets = levels.copy()
        targets[:, :used] = np.where(
            writable[:, None], new_charges.reshape(lanes, -1), levels[:, :used]
        )
        return self.varray.program_levels_batch(pages, targets), writable

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        """Read each group's charge ranking back as its Lehmer index.

        Ties break by cell index, so the erased state is the identity.
        Indices >= 2^bits cannot be produced by encode (every stored
        permutation comes from a ``bits_per_group``-bit value).
        """
        charges = self._group_charges(pages)
        n = self.group_cells
        # order[..., r] is the cell occupying rank r (bottom first).
        order = np.argsort(charges, axis=-1, kind="stable")
        # Lehmer digit of position p: later positions holding smaller cells.
        later_smaller = (order[..., None, :] < order[..., :, None]) & np.triu(
            np.ones((n, n), dtype=bool), k=1
        )
        factorials = np.array(
            [math.factorial(n - p - 1) for p in range(n)], dtype=np.int64
        )
        indices = later_smaller.sum(axis=-1) @ factorials
        bits = (indices[..., None] >> np.arange(self.bits_per_group)) & 1
        return bits.reshape(len(charges), -1).astype(np.uint8)
