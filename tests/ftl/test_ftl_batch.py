"""Batched FTL writes must be indistinguishable from sequential writes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import make_scheme
from repro.errors import CodingError
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import RewritingFTL
from repro.ssd import SSD


def make_ftl(scheme_name="wom", page_bits=96, **scheme_kw):
    chip = FlashChip(
        FlashGeometry(
            blocks=6, pages_per_block=4, page_bits=page_bits, erase_limit=50
        )
    )
    scheme = make_scheme(scheme_name, page_bits, **scheme_kw)
    return RewritingFTL(chip, scheme, logical_pages=8)


def rand_batch(rng, lanes, bits):
    return rng.integers(0, 2, (lanes, bits), dtype=np.uint8)


@pytest.mark.parametrize(
    "scheme_name,kwargs",
    [("wom", {}), ("mfc-1/2-1bpc", {"constraint_length": 4})],
)
class TestWriteBatchEqualsSequential:
    def test_interleaved_histories_converge(self, scheme_name, kwargs) -> None:
        """Same write stream via write() and write_batch(): same device."""
        sequential = make_ftl(scheme_name, **kwargs)
        batched = make_ftl(scheme_name, **kwargs)
        rng = np.random.default_rng(0)
        bits = sequential.dataword_bits
        for _ in range(30):
            lpns = [int(lpn) for lpn in rng.integers(0, 8, 4)]
            words = rand_batch(rng, 4, bits)
            for lpn, word in zip(lpns, words):
                sequential.write(lpn, word)
            batched.write_batch(lpns, words)
        for lpn in range(8):
            assert np.array_equal(sequential.read(lpn), batched.read(lpn))
        assert sequential.stats.host_writes == batched.stats.host_writes
        assert (
            sequential.stats.in_place_rewrites
            == batched.stats.in_place_rewrites
        )
        assert sequential.stats.relocations == batched.stats.relocations

    def test_duplicate_lpns_keep_write_order(self, scheme_name, kwargs) -> None:
        """Repeated LPNs in one batch apply in order (last write wins)."""
        ftl = make_ftl(scheme_name, **kwargs)
        rng = np.random.default_rng(1)
        bits = ftl.dataword_bits
        first, second = rand_batch(rng, 2, bits)
        ftl.write_batch([3, 3], np.stack([first, second]))
        assert np.array_equal(ftl.read(3), second)

    def test_batch_exercises_in_place_path(self, scheme_name, kwargs) -> None:
        ftl = make_ftl(scheme_name, **kwargs)
        rng = np.random.default_rng(2)
        bits = ftl.dataword_bits
        lpns = [0, 1, 2, 3]
        ftl.write_batch(lpns, rand_batch(rng, 4, bits))  # maps the pages
        assert ftl.stats.in_place_rewrites == 0
        ftl.write_batch(lpns, rand_batch(rng, 4, bits))  # now all in place
        assert ftl.stats.in_place_rewrites == 4


class TestWriteBatchValidation:
    def test_rejects_wrong_width(self) -> None:
        ftl = make_ftl("wom")
        with pytest.raises(CodingError):
            ftl.write_batch([0, 1], np.zeros((2, 5), dtype=np.uint8))

    def test_rejects_mismatched_lane_count(self) -> None:
        ftl = make_ftl("wom")
        with pytest.raises(CodingError):
            ftl.write_batch(
                [0], np.zeros((2, ftl.dataword_bits), dtype=np.uint8)
            )


def _zipf_batches(logical_pages, writes, seed):
    """Batches of 1-32 LPNs drawn with p proportional to 1/rank."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, logical_pages + 1)
    weights /= weights.sum()
    batches, total = [], 0
    while total < writes:
        size = int(rng.integers(1, 33))
        batches.append([int(lpn) for lpn in rng.choice(
            logical_pages, size=size, p=weights)])
        total += size
    return batches, rng


def _chip_image(ssd):
    return [
        [page.snapshot_state() for page in block.pages]
        for block in ssd.chip.blocks
    ]


@pytest.mark.parametrize(
    "scheme_name,kwargs,utilization,writes",
    [
        ("wom", {}, 0.85, 3000),
        ("mfc-1/2-1bpc", {"constraint_length": 4}, 0.5, 600),
    ],
)
@pytest.mark.parametrize("seed", range(4))
def test_batched_device_matches_sequential_under_relocation(
    scheme_name, kwargs, utilization, writes, seed
) -> None:
    """Lanes whose page an earlier lane's GC, relocation or migration moved
    must be encoded against the page actually programmed.

    A batch that programmed such a lane at the address read at batch start
    either cleared bits (``PageProgramError``) or diverged from the same
    stream written one page at a time.
    """
    geometry = FlashGeometry(blocks=16, pages_per_block=16, page_bits=4096)
    batched = SSD(geometry, scheme=scheme_name, utilization=utilization,
                  **kwargs)
    sequential = SSD(geometry, scheme=scheme_name, utilization=utilization,
                     **kwargs)
    batches, rng = _zipf_batches(batched.logical_pages, writes, seed)
    bits = batched.logical_page_bits
    for lpns in batches:
        words = rng.integers(0, 2, (len(lpns), bits), dtype=np.uint8)
        batched.write_batch(lpns, words)
        for lpn, word in zip(lpns, words):
            sequential.write(lpn, word)
    assert batched.ftl.stats.relocations > 0
    for lpn in range(batched.logical_pages):
        assert np.array_equal(batched.read(lpn), sequential.read(lpn))
    assert batched.ftl.stats.summary() == sequential.ftl.stats.summary()
    assert _chip_image(batched) == _chip_image(sequential)
    assert (
        batched.chip.block_erase_counts()
        == sequential.chip.block_erase_counts()
    )
