"""Common interface for page-level rewriting codes.

A *page code* turns a fixed-size dataword into the next full contents of one
physical page, given the page's current contents, such that the update obeys
the flash interface (bits only set).  Codes implement the batched pair
(:meth:`PageCode.encode_batch` / :meth:`PageCode.decode_batch`) over ``B``
independent pages; the single-page :meth:`~PageCode.encode` and
:meth:`~PageCode.decode` are ``B = 1`` views of them.  When no legal update
exists the single-page encode raises :class:`~repro.errors.UnwritableError`
and the page must be erased.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import CodingError, UnwritableError

__all__ = ["PageCode"]


class PageCode(abc.ABC):
    """Abstract rewriting code over one page of bits."""

    #: Number of physical bits in the page this code was sized for.
    page_bits: int
    #: Dataword size in bits accepted by :meth:`encode`.
    dataword_bits: int

    @property
    def rate(self) -> float:
        """Host-visible bits per raw page bit actually achieved."""
        return self.dataword_bits / self.page_bits

    @abc.abstractmethod
    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``B`` independent pages; return ``(new_pages, writable)``.

        ``datawords`` is ``(B, dataword_bits)`` and ``pages`` is
        ``(B, page_bits)``.  Every new page is bit-monotone w.r.t. its old
        one (only sets bits).  Lanes whose page cannot absorb the update
        keep their previous bits and are reported as False in the
        ``writable`` mask — no exception, so one saturated page never
        aborts a batch.
        """

    @abc.abstractmethod
    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        """Decode ``B`` pages to ``(B, dataword_bits)`` datawords."""

    def encode(self, dataword: np.ndarray, page: np.ndarray) -> np.ndarray:
        """Return the page's next bits storing ``dataword`` — a ``B = 1``
        view of :meth:`encode_batch`.

        Raises :class:`~repro.errors.UnwritableError` when the dataword
        cannot be stored without an erase.
        """
        data = np.asarray(dataword, dtype=np.uint8)
        if data.shape != (self.dataword_bits,):
            raise CodingError(
                f"dataword must be {self.dataword_bits} bits, got {data.shape}"
            )
        new_pages, writable = self.encode_batch(
            data[None, :], np.asarray(page, dtype=np.uint8)[None, :]
        )
        if not writable[0]:
            raise UnwritableError(
                f"{type(self).__name__}: no legal update stores the dataword "
                "on the current page; erase required"
            )
        return new_pages[0]

    def decode(self, page: np.ndarray) -> np.ndarray:
        """Recover the most recently stored dataword — a ``B = 1`` view of
        :meth:`decode_batch`."""
        return self.decode_batch(np.asarray(page, dtype=np.uint8)[None, :])[0]

    def _check_datawords(self, datawords: np.ndarray) -> np.ndarray:
        """``datawords`` as a ``(B, dataword_bits)`` uint8 array."""
        data = np.asarray(datawords, dtype=np.uint8)
        if data.ndim != 2 or data.shape[1] != self.dataword_bits:
            raise CodingError(
                f"datawords must be (lanes, {self.dataword_bits}) bits, "
                f"got {data.shape}"
            )
        return data
