"""ECC-integrated coset codes (paper Section V.B).

The paper's requirement: error protection must be *integrated* with the
coset code — "ensure that cosets consist solely of valid ECC-protected
codewords" — rather than appended as dedicated parity cells, which would
wear out faster than the cells they protect (Schechter et al.).

Construction.  A plain coset code maps a dataword to the *syndrome* of the
stored page.  We restrict the usable syndromes to codewords of an
interleaved SECDED Hamming code: the host dataword is Hamming-encoded,
interleaved, and the result becomes the syndrome handed to the coset
encoder.  Consequences:

* every coset the writer can select consists solely of pages whose
  syndrome is a valid (interleaved) ECC codeword — the integration the
  paper describes;
* the ECC redundancy lives in the syndrome domain, which the coset code
  scrambles uniformly over all v-cells, so there are **no dedicated parity
  cells** and all of the MFC balancing heuristics keep working;
* a single corrupted cell perturbs the decoded syndrome only in a burst of
  at most ``(memory + 1) * (m - 1)`` consecutive bits (the syndrome former
  is a sliding window); block interleaving of depth >= that burst places at
  most one corrupted bit in each Hamming block, so SECDED corrects it.

The storage cost is the Hamming rate on top of the coset rate, exactly the
"larger value of c" cost Section V.B predicts.
"""

from __future__ import annotations

import numpy as np

from repro.coding.coset import ConvolutionalCosetCode
from repro.coding.hamming import HammingSecded
from repro.coding.page_code import PageCode
from repro.errors import ConfigurationError

__all__ = ["EccIntegratedCosetCode", "EccDecodeResult"]


from dataclasses import dataclass


@dataclass(frozen=True)
class EccDecodeResult:
    """Decoded data plus error accounting for one page read."""

    data: np.ndarray
    corrected_bits: int
    detected_uncorrectable: int

    @property
    def clean(self) -> bool:
        return self.corrected_bits == 0 and self.detected_uncorrectable == 0


class EccIntegratedCosetCode(PageCode):
    """A rewriting coset code whose cosets are all ECC-valid.

    Parameters mirror :class:`~repro.coding.coset.ConvolutionalCosetCode`,
    plus ``hamming_r`` selecting the SECDED block size (r=3 gives (8,4),
    r=4 gives (16,11) with lower overhead).
    """

    def __init__(
        self,
        page_bits: int,
        rate_denominator: int = 2,
        constraint_length: int = 4,
        bits_per_cell: int = 1,
        vcell_levels: int = 4,
        hamming_r: int = 3,
    ) -> None:
        self.inner = ConvolutionalCosetCode(
            page_bits=page_bits,
            rate_denominator=rate_denominator,
            constraint_length=constraint_length,
            bits_per_cell=bits_per_cell,
            vcell_levels=vcell_levels,
        )
        self.hamming = HammingSecded(hamming_r)
        self.page_bits = int(page_bits)
        inner_bits = self.inner.dataword_bits
        self.num_blocks = inner_bits // self.hamming.block_bits
        burst = (self.inner.code.memory + 1) * (rate_denominator - 1)
        if self.num_blocks < burst:
            raise ConfigurationError(
                f"page too small for integration: a cell error can smear "
                f"over {burst} syndrome bits but only {self.num_blocks} "
                f"Hamming blocks fit; single-error correction would not be "
                "guaranteed"
            )
        self.dataword_bits = self.num_blocks * self.hamming.data_bits
        self._used_inner_bits = self.num_blocks * self.hamming.block_bits

    # -- interleaving ---------------------------------------------------------

    def _interleave_batch(self, coded: np.ndarray) -> np.ndarray:
        """Spread Hamming blocks so syndrome bursts hit each block once.

        ``coded`` is ``(B, blocks * block_bits)``.  Bit ``i`` of block ``b``
        goes to inner position ``i * num_blocks + b``: any run of
        ``num_blocks`` consecutive inner bits touches each block at most
        once.
        """
        lanes = len(coded)
        matrix = coded.reshape(lanes, self.num_blocks, self.hamming.block_bits)
        inner = np.zeros((lanes, self.inner.dataword_bits), dtype=np.uint8)
        inner[:, : self._used_inner_bits] = matrix.transpose(0, 2, 1).reshape(
            lanes, -1
        )
        return inner

    def _deinterleave_batch(self, inner: np.ndarray) -> np.ndarray:
        lanes = len(inner)
        matrix = inner[:, : self._used_inner_bits].reshape(
            lanes, self.hamming.block_bits, self.num_blocks
        )
        return matrix.transpose(0, 2, 1).reshape(lanes, -1)

    # -- PageCode interface ----------------------------------------------------

    def encode_batch(
        self, datawords: np.ndarray, pages: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Hamming-protect and coset-encode ``B`` pages in lockstep."""
        data = self._check_datawords(datawords)
        lanes = len(data)
        coded = self.hamming.encode_blocks(
            data.reshape(lanes, self.num_blocks, self.hamming.data_bits)
        ).reshape(lanes, -1)
        return self.inner.encode_batch(self._interleave_batch(coded), pages)

    def _decode_blocks(self, pages: np.ndarray):
        """Per-lane ``(data, corrected, uncorrectable)`` of ``B`` pages."""
        pages = np.asarray(pages, dtype=np.uint8)
        lanes = len(pages)
        coded = self._deinterleave_batch(self.inner.decode_batch(pages))
        data, corrected, uncorrectable = self.hamming.decode_blocks(
            coded.reshape(lanes, self.num_blocks, self.hamming.block_bits)
        )
        return data.reshape(lanes, -1), corrected, uncorrectable

    def decode_batch(self, pages: np.ndarray) -> np.ndarray:
        """Decode ``B`` pages, applying single-error correction per block."""
        return self._decode_blocks(pages)[0]

    def decode_with_report(self, page: np.ndarray) -> EccDecodeResult:
        """Decode one page with full ECC accounting.

        One corrupted v-cell anywhere on the page is corrected; wider
        corruption is reported via ``detected_uncorrectable``.
        """
        data, corrected, uncorrectable = self._decode_blocks(
            np.asarray(page, dtype=np.uint8)[None, :]
        )
        return EccDecodeResult(
            data=data[0],
            corrected_bits=int(corrected.sum()),
            detected_uncorrectable=int(uncorrectable.sum()),
        )

    def check(self, page: np.ndarray) -> bool:
        """True when the page reads back with no corrections needed."""
        return self.decode_with_report(page).clean

    @property
    def ecc_overhead(self) -> float:
        """Fraction of the coset code's payload spent on error correction."""
        return 1 - self.hamming.rate
