"""Golden pins for the scalar write paths.

``golden_write_paths.json`` was recorded from the implementation in which
``LifetimeSimulator`` and the WOM, waterfall, rank-modulation and
ECC-coset page codes still had their own scalar bodies, before those
bodies became ``B = 1`` views of the batched paths.  These tests pin the
views to the exact numbers the scalar code produced:

* ``lifetime``: per-cycle write counts and a digest of the
  :class:`~repro.core.analysis.UpdateTrace` for every case below;
* ``encode``: a digest of the page after every write of a seeded stream
  fed one ``encode`` at a time, up to the first unwritable write.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.coding.coset import ConvolutionalCosetCode
from repro.coding.ecc_coset import EccIntegratedCosetCode
from repro.coding.rank_modulation import RankModulationCode
from repro.coding.waterfall import WaterfallCode
from repro.coding.wom import WomVCellCode
from repro.core import LifetimeSimulator, make_scheme
from repro.errors import UnwritableError

FIXTURE = Path(__file__).parent / "golden_write_paths.json"

#: key -> (scheme name, scheme kwargs, page bits, seed, cycles, simulator kwargs)
LIFETIME_CASES = {
    "uncoded": ("uncoded", {}, 256, 0, 3, {}),
    "redundancy-1/3": ("redundancy-1/3", {}, 256, 0, 3, {}),
    "wom": ("wom", {}, 480, 9, 3, {}),
    "wom-defects": ("wom", {}, 480, 3, 2, {"defect_fraction": 0.05}),
    "waterfall": ("waterfall", {}, 480, 7, 3, {}),
    "rank-modulation": ("rank-modulation", {}, 480, 1, 2, {}),
    "mfc-1/2-1bpc": ("mfc-1/2-1bpc", {"constraint_length": 3}, 480, 50, 3, {}),
    "mfc-1/2-1bpc-defects": (
        "mfc-1/2-1bpc", {"constraint_length": 3}, 480, 4, 2,
        {"defect_fraction": 0.03, "verify_reads": True},
    ),
    "mfc-1/2-2bpc": ("mfc-1/2-2bpc", {"constraint_length": 3}, 480, 2, 2, {}),
    "mfc-2/3": ("mfc-2/3", {"constraint_length": 4}, 480, 9, 2, {}),
    "mfc-4/5": ("mfc-4/5", {"constraint_length": 3}, 480, 51, 3, {}),
    "mfc-ecc": ("mfc-ecc", {"constraint_length": 3}, 960, 6, 2, {}),
}

#: key -> (code factory, seed)
ENCODE_CASES = {
    "wom": (lambda: WomVCellCode(480), 0),
    "waterfall": (lambda: WaterfallCode(480), 1),
    "waterfall-8L": (lambda: WaterfallCode(490, vcell_levels=8), 2),
    "rank-modulation": (lambda: RankModulationCode(480, vcell_levels=16), 3),
    "ecc-coset": (lambda: EccIntegratedCosetCode(960, constraint_length=3), 4),
    "coset": (lambda: ConvolutionalCosetCode(480, constraint_length=3), 5),
}


def _digest(payload) -> str:
    if isinstance(payload, np.ndarray):
        data = np.ascontiguousarray(payload, dtype=np.uint8).tobytes()
    else:
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def lifetime_record(key: str) -> dict:
    name, kwargs, page_bits, seed, cycles, sim_kwargs = LIFETIME_CASES[key]
    scheme = make_scheme(name, page_bits, **kwargs)
    result = LifetimeSimulator(scheme, seed=seed, **sim_kwargs).run(cycles=cycles)
    trace = result.trace
    return {
        "writes_per_cycle": list(result.writes_per_cycle),
        "trace": _digest(
            {
                "fractions": {
                    str(update): values
                    for update, values in sorted(trace._fractions.items())
                },
                "histogram": trace.level_histogram(normalize=False).tolist(),
            }
        ),
    }


def encode_record(key: str) -> list[str]:
    """Page digests after each scalar write; the list ends at the first
    write the page cannot absorb."""
    factory, seed = ENCODE_CASES[key]
    code = factory()
    rng = np.random.default_rng(seed)
    page = np.zeros(code.page_bits, dtype=np.uint8)
    digests = []
    while True:
        data = rng.integers(0, 2, code.dataword_bits, dtype=np.uint8)
        try:
            page = code.encode(data, page)
        except UnwritableError:
            return digests
        assert np.array_equal(code.decode(page), data)
        digests.append(_digest(page))


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", sorted(LIFETIME_CASES))
def test_lifetime_matches_scalar_golden(key: str) -> None:
    assert lifetime_record(key) == _golden()["lifetime"][key]


@pytest.mark.parametrize("key", sorted(ENCODE_CASES))
def test_scalar_encode_matches_golden(key: str) -> None:
    expected = _golden()["encode"][key]
    assert len(expected) >= 1
    assert encode_record(key) == expected
