"""Extended Hamming (SECDED) block codes.

Flash standards require correcting at least one error per 1024 cells
(paper Section V.B); SSDs do this with ECC.  This module provides the
classic single-error-correcting, double-error-detecting extended Hamming
code with configurable size, applied blockwise over numpy bit arrays.

The module also exists to demonstrate the Schechter et al. pitfall the
paper cites: *appending* ECC parity to a rewriting code concentrates wear
on the parity cells, whereas the integrated construction in
:mod:`repro.coding.ecc_coset` preserves the coset code's balancing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, DecodingError

__all__ = ["HammingSecded", "DecodeReport"]


@dataclass(frozen=True)
class DecodeReport:
    """Outcome of decoding one buffer: data plus error accounting."""

    data: np.ndarray
    corrected_bits: int
    detected_uncorrectable: int


class HammingSecded:
    """Extended Hamming code Ham(2^r - 1, 2^r - r - 1) plus overall parity.

    ``r=3`` gives the familiar (8,4) SECDED code.  Encoding is systematic:
    data bits first, then ``r`` Hamming parity bits, then the overall parity
    bit.
    """

    def __init__(self, r: int = 3) -> None:
        if r < 2:
            raise ConfigurationError("Hamming codes need r >= 2")
        self.r = r
        self.data_bits = (1 << r) - r - 1
        self.block_bits = (1 << r)  # shortened layout: data + r parity + overall
        # Parity-check structure: column j of H (r x (2^r - 1)) is the
        # binary expansion of j+1.  We order columns so data positions come
        # first (non powers of two), parity positions last (powers of two).
        n = (1 << r) - 1
        columns = np.array(
            [[(j >> bit) & 1 for bit in range(r)] for j in range(1, n + 1)],
            dtype=np.uint8,
        )  # (n, r)
        powers = {1 << bit for bit in range(r)}
        data_positions = [j for j in range(1, n + 1) if j not in powers]
        parity_positions = [j for j in range(1, n + 1) if j in powers]
        self._order = np.array(data_positions + parity_positions) - 1
        self._columns = columns[self._order]  # reordered H columns, (n, r)
        # For encoding: parity p (r bits) solves H * codeword = 0 where the
        # parity columns form an identity-like set (each a distinct power).
        self._data_cols = self._columns[: self.data_bits]  # (k, r)
        # Inverse permutation: syndrome value v (1..n) -> reordered position.
        self._position_of = np.empty(n, dtype=np.int64)
        self._position_of[self._order] = np.arange(n)

    def encode_block(self, data: np.ndarray) -> np.ndarray:
        """Encode ``data_bits`` bits into one ``block_bits`` codeword."""
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.data_bits,):
            raise ConfigurationError(
                f"blocks hold {self.data_bits} data bits, got {data.shape}"
            )
        return self.encode_blocks(data)

    def decode_block(self, block: np.ndarray) -> DecodeReport:
        """Decode one codeword, correcting single and flagging double errors."""
        block = np.asarray(block, dtype=np.uint8)
        if block.shape != (self.block_bits,):
            raise ConfigurationError(
                f"blocks are {self.block_bits} bits, got {block.shape}"
            )
        data, corrected, uncorrectable = self.decode_blocks(block)
        return DecodeReport(
            data=data,
            corrected_bits=int(corrected),
            detected_uncorrectable=int(uncorrectable),
        )

    # -- array-wise helpers ---------------------------------------------------

    def encode_blocks(self, data: np.ndarray) -> np.ndarray:
        """Encode blocks over any leading axes.

        ``data`` is ``(..., data_bits)``; the result is
        ``(..., block_bits)``.
        """
        data = np.asarray(data, dtype=np.uint8)
        if data.shape[-1] != self.data_bits:
            raise ConfigurationError(
                f"blocks hold {self.data_bits} data bits, got {data.shape}"
            )
        parity = (data.astype(np.int64) @ self._data_cols.astype(np.int64)) % 2
        word = np.concatenate([data, parity.astype(np.uint8)], axis=-1)
        overall = word.sum(axis=-1, keepdims=True) % 2
        return np.concatenate([word, overall.astype(np.uint8)], axis=-1)

    def decode_blocks(
        self, blocks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode blocks over any leading axes, correcting single and
        flagging double errors.

        ``blocks`` is ``(..., block_bits)``.  Returns ``(data, corrected,
        uncorrectable)`` where ``data`` is ``(..., data_bits)`` and the two
        masks are ``(...,)`` bool arrays (one entry per block).
        """
        blocks = np.asarray(blocks, dtype=np.uint8)
        if blocks.shape[-1] != self.block_bits:
            raise ConfigurationError(
                f"blocks are {self.block_bits} bits, got {blocks.shape}"
            )
        word = blocks[..., :-1].copy()
        overall_ok = blocks.sum(axis=-1) % 2 == 0
        syndrome = (word.astype(np.int64) @ self._columns.astype(np.int64)) % 2
        weights = 1 << np.arange(self.r, dtype=np.int64)
        syndrome_value = syndrome @ weights  # (...,)
        nonzero = syndrome_value != 0
        single = nonzero & ~overall_ok
        uncorrectable = nonzero & overall_ok
        overall_flip = ~nonzero & ~overall_ok
        # Flip the erroneous bit of every single-error block in one scatter.
        position = self._position_of[np.where(nonzero, syndrome_value, 1) - 1]
        flips = np.zeros_like(word)
        np.put_along_axis(
            flips, position[..., None], single[..., None].astype(np.uint8), axis=-1
        )
        word ^= flips
        corrected = single | overall_flip
        return word[..., : self.data_bits], corrected, uncorrectable

    def blocks_for(self, data_bits: int) -> int:
        """Blocks needed to protect ``data_bits`` bits (zero padded)."""
        return -(-data_bits // self.data_bits)

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Encode an arbitrary-length bit array blockwise (zero padded)."""
        data = np.asarray(data, dtype=np.uint8)
        blocks = self.blocks_for(len(data))
        padded = np.zeros(blocks * self.data_bits, dtype=np.uint8)
        padded[: len(data)] = data
        return self.encode_blocks(padded.reshape(blocks, self.data_bits)).reshape(-1)

    def decode(self, coded: np.ndarray, data_bits: int) -> DecodeReport:
        """Decode a blockwise-encoded array back to ``data_bits`` bits."""
        coded = np.asarray(coded, dtype=np.uint8)
        blocks = self.blocks_for(data_bits)
        if len(coded) != blocks * self.block_bits:
            raise DecodingError(
                f"expected {blocks * self.block_bits} coded bits for "
                f"{data_bits} data bits, got {len(coded)}"
            )
        data, corrected, uncorrectable = self.decode_blocks(
            coded.reshape(blocks, self.block_bits)
        )
        return DecodeReport(
            data=data.reshape(-1)[:data_bits],
            corrected_bits=int(corrected.sum()),
            detected_uncorrectable=int(uncorrectable.sum()),
        )

    @property
    def rate(self) -> float:
        return self.data_bits / self.block_bits
