"""Bit-identity of the radix-4 Viterbi kernel against the historical kernel.

``_reference_search_batch`` is a faithful port of the pre-optimization
add-compare-select loop (per-step gather, ``inc1 < inc0`` tie-break, argmin
end state).  The production kernel folds two steps per ACS pass, runs on
float32 metrics where exact, and backtracks through packed boolean
backpointers — every case here asserts it still returns byte-identical
codewords, total costs, and writability masks across all MFC rates.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.coding import kernels
from repro.coding.coset import ConvolutionalCosetCode
from repro.coding.viterbi import CosetViterbi
from repro.errors import ConfigurationError
from repro.core.mfc import MFC_VARIANTS


def _reference_search_batch(viterbi, reps, levels):
    """The PR 2 kernel, verbatim semantics: radix-2 float64 ACS + argmin."""
    trellis = viterbi.trellis
    lanes, steps = reps.shape
    step_costs = viterbi.step_cost_table(levels)  # (B, steps, 2**m)
    prev_state = trellis.prev_state
    prev_input = trellis.prev_input
    output_values = trellis.output_values
    xor_gather = viterbi._xor_gather
    lane_index = np.arange(lanes)
    lane_grid = lane_index[:, None, None]
    path = np.zeros((lanes, trellis.num_states))
    backptr = np.empty((lanes, steps, trellis.num_states), dtype=np.uint8)
    for t in range(steps):
        gather = xor_gather[reps[:, t]]  # (B, S, 2)
        branch = step_costs[:, t][lane_grid, gather]
        incoming = path[:, prev_state] + branch
        lower = incoming[:, :, 1] < incoming[:, :, 0]
        path = np.where(lower, incoming[:, :, 1], incoming[:, :, 0])
        backptr[:, t] = lower
    end_state = np.argmin(path, axis=1)
    total_costs = path[lane_index, end_state]
    writable = np.isfinite(total_costs)
    codeword_values = np.empty((lanes, steps), dtype=np.int64)
    state = end_state.astype(np.int64)
    for t in range(steps - 1, -1, -1):
        choice = backptr[lane_index, t, state]
        source = prev_state[state, choice].astype(np.int64)
        u = prev_input[state, choice]
        codeword_values[:, t] = output_values[source, u] ^ reps[:, t]
        state = source
    return codeword_values, total_costs, writable


def _make_code(variant: str, constraint_length: int, vcell_levels: int = 4):
    denominator, bits_per_cell = MFC_VARIANTS[variant]
    return ConvolutionalCosetCode(
        page_bits=1024,
        rate_denominator=denominator,
        constraint_length=constraint_length,
        bits_per_cell=bits_per_cell,
        vcell_levels=vcell_levels,
    )


def _random_case(viterbi, lanes, steps, seed, max_level):
    rng = np.random.default_rng(seed)
    reps = rng.integers(0, viterbi.num_values, (lanes, steps))
    levels = rng.integers(
        0, max_level + 1, (lanes, steps, viterbi.cells_per_step)
    )
    return reps, levels


def _assert_bit_identical(viterbi, reps, levels):
    ref_values, ref_costs, ref_writable = _reference_search_batch(
        viterbi, reps, levels
    )
    result = viterbi.search_batch(reps, levels)
    assert np.array_equal(result.writable, ref_writable)
    assert np.array_equal(result.total_costs, ref_costs)
    # Unwritable lanes carry no meaningful codeword; compare writable ones.
    assert np.array_equal(
        result.codeword_values[ref_writable], ref_values[ref_writable]
    )


@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
@pytest.mark.parametrize("constraint_length", [3, 5])
def test_all_mfc_rates_bit_identical(variant, constraint_length) -> None:
    code = _make_code(variant, constraint_length)
    viterbi = code.viterbi
    num_levels = viterbi.codebook.num_levels
    for seed, steps in ((0, 12), (1, 11), (2, 17)):  # odd steps hit the tail
        reps, levels = _random_case(viterbi, 5, steps, seed, num_levels - 2)
        _assert_bit_identical(viterbi, reps, levels)


@pytest.mark.parametrize("variant", sorted(MFC_VARIANTS))
def test_saturated_pages_bit_identical(variant) -> None:
    """Near-saturation levels (inf branches, unwritable lanes) still agree."""
    code = _make_code(variant, 4)
    viterbi = code.viterbi
    num_levels = viterbi.codebook.num_levels
    reps, levels = _random_case(viterbi, 8, 13, 42, num_levels - 1)
    _assert_bit_identical(viterbi, reps, levels)


def test_8_level_vcells_bit_identical() -> None:
    code = _make_code("mfc-1/2-1bpc", 4, vcell_levels=8)
    viterbi = code.viterbi
    reps, levels = _random_case(viterbi, 4, 15, 3, 6)
    _assert_bit_identical(viterbi, reps, levels)


def test_single_lane_scalar_backtrace() -> None:
    """Single-lane searches (every scalar write) walk the batch backtrace."""
    code = _make_code("mfc-1/2-1bpc", 5)
    viterbi = code.viterbi
    for steps in (11, 12):
        reps, levels = _random_case(viterbi, 1, steps, steps, 2)
        _assert_bit_identical(viterbi, reps, levels)


def test_generic_fallback_matches_fast_path() -> None:
    """Forcing the generic radix-2 path returns the same bits as radix-4."""
    code = _make_code("mfc-2/3", 4)
    viterbi = code.viterbi
    assert viterbi._integral_costs  # the fast path is live for MFC metrics
    reps, levels = _random_case(viterbi, 6, 14, 9, 2)
    fast = viterbi.search_batch(reps, levels)
    viterbi._integral_costs = False  # non-integral metrics take this path
    try:
        generic = viterbi.search_batch(reps, levels)
    finally:
        viterbi._integral_costs = True
    assert np.array_equal(fast.codeword_values, generic.codeword_values)
    assert np.array_equal(fast.total_costs, generic.total_costs)
    assert np.array_equal(fast.writable, generic.writable)


def test_float32_metric_bound_falls_back_to_float64() -> None:
    """Cost sums past the float32-exact bound must switch dtypes, not drift."""
    code = _make_code("mfc-1/2-1bpc", 3)
    viterbi = code.viterbi
    reps, levels = _random_case(viterbi, 2, 9, 5, 2)
    fast = viterbi.search_batch(reps, levels)
    original = viterbi._max_step_cost
    viterbi._max_step_cost = float(2**24)  # force the float64 branch
    try:
        wide = viterbi.search_batch(reps, levels)
    finally:
        viterbi._max_step_cost = original
    assert np.array_equal(fast.codeword_values, wide.codeword_values)
    assert np.array_equal(fast.total_costs, wide.total_costs)


# ---------------------------------------------------------------------------
# Pluggable ACS backends: every registered backend must be bit-identical.
# ---------------------------------------------------------------------------


def _swapped(variant, constraint_length, backend):
    reference = _make_code(variant, constraint_length).viterbi
    return CosetViterbi(reference.trellis, reference.codebook, backend=backend)


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("variant", ["mfc-1/2-1bpc", "mfc-2/3", "mfc-4/5"])
def test_every_available_backend_bit_identical(backend, variant) -> None:
    swapped = _swapped(variant, 4, backend)
    assert swapped.backend.name == backend
    num_levels = swapped.codebook.num_levels
    # Even and odd-tail trellises, down to a single radix-4 pair.
    for seed, steps in ((4, 12), (5, 13), (6, 3), (7, 31)):
        reps, levels = _random_case(swapped, 5, steps, seed, num_levels - 2)
        _assert_bit_identical(swapped, reps, levels)


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize("float64", [False, True])
def test_backend_cost_paths_bit_identical(backend, fused, float64) -> None:
    """Fused-table and per-chunk cost rows, float32 and float64 metrics."""
    viterbi = _swapped("mfc-2/3", 4, backend)
    if not fused:
        viterbi._fused_flat = None
    if float64:
        viterbi._max_step_cost = float(2**24)
    num_levels = viterbi.codebook.num_levels
    for seed, steps in ((11, 14), (12, 15)):
        reps, levels = _random_case(viterbi, 4, steps, seed, num_levels - 2)
        _assert_bit_identical(viterbi, reps, levels)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_backend_mixed_unwritable_lanes_bit_identical(backend) -> None:
    """Saturated lanes sit between writable ones in one batch."""
    viterbi = _swapped("mfc-1/2-1bpc", 4, backend)
    top = viterbi.codebook.num_levels - 1
    reps, levels = _random_case(viterbi, 6, 16, 21, 1)
    levels[1::2] = top
    ref_writable = _reference_search_batch(viterbi, reps, levels)[2]
    assert ref_writable.any() and not ref_writable.all()
    _assert_bit_identical(viterbi, reps, levels)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_backend_256_state_trellis_bit_identical(backend) -> None:
    """K=9: no scratch buffer may be sized for the paper's 64 states."""
    viterbi = _swapped("mfc-1/2-1bpc", 9, backend)
    assert viterbi.trellis.num_states == 256
    num_levels = viterbi.codebook.num_levels
    for seed, lanes, steps in ((31, 3, 18), (32, 1, 19)):
        reps, levels = _random_case(viterbi, lanes, steps, seed, num_levels - 2)
        _assert_bit_identical(viterbi, reps, levels)


def test_unknown_backend_raises() -> None:
    with pytest.raises(ConfigurationError, match="unknown Viterbi kernel"):
        kernels.resolve_backend("vectorblas")


def test_auto_selection_prefers_accelerator_else_numpy(monkeypatch) -> None:
    monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
    compiler_present = shutil.which(kernels._compiler()[0]) is not None
    expected = "c" if compiler_present else "numpy"
    assert kernels.resolve_backend("auto").name == expected
    assert kernels.resolve_backend(None).name == expected


def test_no_compiler_auto_falls_back_and_explicit_c_raises(
    tmp_path, monkeypatch
) -> None:
    """With no compiler and no cached library, ``auto`` is numpy and an
    explicit ``c`` is a configuration error, never a silent fallback."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "empty-cache"))
    monkeypatch.setattr(
        kernels, "_compiler", lambda: [str(tmp_path / "no-such-cc")]
    )
    monkeypatch.setattr(kernels, "_RESOLVED", {})
    monkeypatch.delenv(kernels.BACKEND_ENV, raising=False)
    assert kernels.resolve_backend("auto").name == "numpy"
    assert "c" not in kernels.available_backends()
    with pytest.raises(ConfigurationError, match="not available"):
        kernels.resolve_backend("c")


@pytest.mark.skipif(
    shutil.which(kernels._compiler()[0]) is None, reason="no C compiler"
)
def test_concurrent_builds_leave_one_loadable_library(tmp_path) -> None:
    """Two processes building into one empty cache at once: both succeed,
    one library remains, no temporary file is left, and it loads."""
    env = {**os.environ, "REPRO_CACHE_DIR": str(tmp_path)}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(kernels.__file__).parents[2]),
                      env.get("PYTHONPATH")])
    )
    script = (
        "from repro.coding import kernels; "
        "print(kernels.build_library())"
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    assert all(proc.returncode == 0 for proc in procs), outputs
    built = {out.strip() for out, _ in outputs}
    assert len(built) == 1
    assert sorted(p.name for p in (tmp_path / "kernels").iterdir()) == [
        Path(built.pop()).name
    ]
    library = ctypes.CDLL(str(next((tmp_path / "kernels").iterdir())))
    assert library.backtrace_radix4 is not None


def test_env_var_selects_backend(monkeypatch) -> None:
    monkeypatch.setenv(kernels.BACKEND_ENV, "numpy")
    assert kernels.resolve_backend().name == "numpy"
    code = _make_code("mfc-1/2-1bpc", 3)
    assert code.viterbi.backend.name == "numpy"
    # An explicit argument outranks the environment.
    monkeypatch.setenv(kernels.BACKEND_ENV, "vectorblas")
    assert kernels.resolve_backend("numpy").name == "numpy"
    with pytest.raises(ConfigurationError):
        kernels.resolve_backend()
