"""Pluggable kernel backends for the Viterbi radix-4 fast path.

The add-compare-select recursion inside
:meth:`~repro.coding.viterbi.CosetViterbi._forward_radix4` is the single
hottest loop in the repository — every page write runs it once per pair of
trellis steps — and the backtrace that follows it is the next one.  This
module isolates both behind a tiny backend registry so alternate
implementations can be dropped in without touching the search logic, and —
crucially — behind the reference-equivalence harness in
``tests/coding/test_viterbi_kernel.py``, which pins every registered
backend to byte-identical codewords, costs, and writability masks.

Backend contract
----------------
A backend supplies two in-place functions.  The first is::

    acs_radix4(path, costs, xg2_late, late_rep, late_off,
               xg2_early, early_rep, early_off, prev2_flat,
               sel, low01, low23, pair0)

which gathers the branch costs of ``pairs = late_rep.shape[0]`` radix-4
iterations and advances ``path`` (shape ``(B, S)``, float32 or float64)
through them.  The two-step branch cost of lane ``b`` reaching state ``s``
via choice pair ``kk`` at iteration ``i`` (``j = kk * S + s``) is::

    costs[late_off[i, b] + xg2_late[late_rep[i, b], j]]
        + costs[early_off[i, b] + xg2_early[early_rep[i, b], j]]

— the later step's branch plus the earlier step's, each read from that
step's cost row (offset ``*_off``) at the index the composed XOR/fold
table gives for the step's coset chunk (``*_rep``).  ``prev2_flat[j]`` is
the matching two-step predecessor state.  The new metric is
``path[b, prev2_flat[j]] + branch``, added in that order.  For each
iteration the backend writes three boolean backpointer planes at row
``pair0 + i``:

* ``low01`` — within the ``kk < 2`` pair, choice 1 was *strictly* lower;
* ``low23`` — within the ``kk >= 2`` pair, choice 3 was strictly lower;
* ``sel``   — the ``kk >= 2`` pair won strictly.

Strict-less comparisons are load-bearing: they reproduce ``argmin``'s
first-occurrence tie-breaking, which the historical radix-2 recursion
(and therefore every recorded result) depends on.  A backend that breaks
ties differently is *wrong* even if its total costs agree.

The second is::

    backtrace_radix4(before, end_state, sel, low01, low23, tail,
                     prev_src, mid_tab, src_tab)

which walks each lane back from ``end_state[b]`` and writes the state
entered before every step into ``before`` (``(B, steps)`` int64).
``tail`` is the radix-2 backpointer plane of an odd final step (or None);
``prev_src`` (``(S, 2)``) and ``mid_tab``/``src_tab`` (``(S, 4)``) are the
one- and two-step predecessor tables.  It defaults to the vectorized
numpy walk.

Backends
--------
``numpy`` is always registered: the vectorized ufunc loop the radix-4
kernel shipped with, doing the gather with two ``take`` calls.  It is the
reference and the fallback.

``c`` compiles ``viterbi_kernel.c`` (shipped next to this module) with the
local C compiler — ``sysconfig.get_config_var("CC")`` when that program
exists, else ``cc`` — at ``-O3 -shared -fPIC -ffp-contract=off``, never
``-ffast-math``, and loads it through :mod:`ctypes`.  Its ACS does the
branch-cost gather inside the loop, so the ``(pairs, B, 4S)`` folded
tensor is never built, and its backtrace walks the states in C.  The
library is cached under :func:`repro.cache.default_cache_dir` keyed by the
SHA-256 of the source, compiler and flags, and is written to a temporary
file then ``os.replace``-d into place, so concurrent builders (pool
workers, servers) never load a half-written file.  The build runs once per
cache directory; later processes only load it.

Selection
---------
:func:`resolve_backend` picks a backend by explicit name, the
``REPRO_VITERBI_BACKEND`` environment variable, or ``"auto"``: ``c`` when
it builds, else ``numpy``.  Naming ``c`` explicitly when it cannot build
raises :class:`~repro.errors.ConfigurationError`, so a broken toolchain
never degrades quietly.  Resolution is memoized per name — the build and
the library load happen at most once per process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.cache import default_cache_dir
from repro.errors import ConfigurationError

__all__ = [
    "KernelBackend",
    "available_backends",
    "backend_names",
    "build_library",
    "register_backend",
    "resolve_backend",
]

#: Environment variable naming the backend ("numpy", "c", "auto").
BACKEND_ENV = "REPRO_VITERBI_BACKEND"

#: Backends ``"auto"`` tries, in order of preference.
_AUTO_ORDER = ("c", "numpy")


def _backtrace_radix4_numpy(
    before, end_state, sel, low01, low23, tail, prev_src, mid_tab, src_tab
):
    """Vectorized state walk: one fancy-index gather per pair, all lanes."""
    lanes, steps = before.shape
    lane_index = np.arange(lanes)
    sel_u = sel.view(np.uint8)
    low01_u = low01.view(np.uint8)
    low23_u = low23.view(np.uint8)
    state = end_state.astype(np.int64)
    if tail is not None:
        choice = tail.view(np.uint8)[lane_index, state]
        before[:, steps - 1] = state = prev_src[state, choice]
    for pair in range(sel.shape[0] - 1, -1, -1):
        kk = np.where(
            sel_u[pair, lane_index, state],
            2 + low23_u[pair, lane_index, state],
            low01_u[pair, lane_index, state],
        )
        before[:, 2 * pair + 1] = mid_tab[state, kk]
        before[:, 2 * pair] = state = src_tab[state, kk]


@dataclass(frozen=True)
class KernelBackend:
    """One registered kernel implementation."""

    name: str
    acs_radix4: Callable
    description: str = ""
    backtrace_radix4: Callable = _backtrace_radix4_numpy


def _acs_radix4_numpy(
    path, costs, xg2_late, late_rep, late_off, xg2_early, early_rep,
    early_off, prev2_flat, sel, low01, low23, pair0,
):
    """The shipped radix-4 loop: elementwise ufuncs with ``out=`` targets.

    The two steps of each pair are folded at gather time — one ``take``
    per half-step slab — into a ``(pairs, B, 4S)`` branch tensor.
    ``argmin`` is an order of magnitude slower on these shapes at every
    axis layout, so the four-way compare-select is spelled as two pairwise
    minima plus a final one, with the comparisons writing the backpointer
    planes directly.
    """
    late = xg2_late[late_rep]
    early = xg2_early[early_rep]
    late += late_off[:, :, None]
    early += early_off[:, :, None]
    folded = costs.take(late)
    folded += costs.take(early)
    pairs, lanes, four_s = folded.shape
    num_states = four_s // 4
    inc4 = np.empty((lanes, 4, num_states), dtype=path.dtype)
    inc4_flat = inc4.reshape(lanes, four_s)
    cand0, cand1, cand2, cand3 = (inc4[:, kk, :] for kk in range(4))
    min01 = np.empty((lanes, num_states), dtype=path.dtype)
    min23 = np.empty((lanes, num_states), dtype=path.dtype)
    take_path = path.take
    for i in range(pairs):
        take_path(prev2_flat, axis=1, out=inc4_flat)
        inc4_flat += folded[i]
        row = pair0 + i
        np.less(cand1, cand0, out=low01[row])
        np.less(cand3, cand2, out=low23[row])
        np.minimum(cand0, cand1, out=min01)
        np.minimum(cand2, cand3, out=min23)
        np.less(min23, min01, out=sel[row])
        np.minimum(min01, min23, out=path)


def _make_numpy_backend() -> KernelBackend:
    return KernelBackend(
        name="numpy",
        acs_radix4=_acs_radix4_numpy,
        description="vectorized ufunc loop (always available; the reference)",
    )


# -- the compiled backend ----------------------------------------------------

#: The kernel source, shipped as package data next to this module.
C_SOURCE = Path(__file__).with_name("viterbi_kernel.c")
#: Exact IEEE arithmetic: no fused multiply-add, never -ffast-math.
C_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")


def _compiler() -> list[str]:
    """Python's configured C compiler when it exists here, else ``cc``."""
    configured = shlex.split(sysconfig.get_config_var("CC") or "")
    if configured and shutil.which(configured[0]):
        return configured
    return ["cc"]


def build_library() -> Path:
    """Compile the C kernel into the cache directory (once) and return it.

    Raises ``OSError`` when no compiler runs here and
    ``subprocess.CalledProcessError`` when compilation fails.
    """
    source = C_SOURCE.read_bytes()
    command = [*_compiler(), *C_FLAGS]
    digest = hashlib.sha256(
        source + b"\0" + "\0".join(command).encode()
    ).hexdigest()
    target = default_cache_dir() / "kernels" / f"viterbi-{digest[:16]}.so"
    if target.is_file():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix=".build-", suffix=".so"
    )
    os.close(handle)
    try:
        subprocess.run(
            [*command, "-o", temp_name, str(C_SOURCE)],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target


def _pointer(array: np.ndarray, dtype) -> int:
    """Address of a C-contiguous array of ``dtype``; anything else would
    hand the kernel memory it must not touch."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(
            f"C kernel needs a C-contiguous {np.dtype(dtype)} array, got "
            f"{array.dtype} (contiguous={array.flags.c_contiguous})"
        )
    return array.ctypes.data


def _make_c_backend() -> KernelBackend:
    """Build (or reuse) and load the compiled kernel (raises ImportError
    when that is impossible here)."""
    try:
        library = ctypes.CDLL(str(build_library()))
    except subprocess.CalledProcessError as exc:
        raise ImportError(
            f"the C kernel failed to compile: {exc.stderr.strip()}"
        ) from exc
    except OSError as exc:
        raise ImportError(f"the C kernel cannot be built or loaded: {exc}") from exc
    size = ctypes.c_int64
    pointer = ctypes.c_void_p
    acs_by_dtype = {}
    for dtype, symbol in (
        (np.float32, "acs_radix4_f32"),
        (np.float64, "acs_radix4_f64"),
    ):
        function = getattr(library, symbol)
        function.argtypes = [pointer] * 12 + [size] * 3
        function.restype = ctypes.c_int
        acs_by_dtype[np.dtype(dtype)] = function
    walk = library.backtrace_radix4
    walk.argtypes = [pointer] * 9 + [size] * 4
    walk.restype = None
    int32, int64 = np.int32, np.int64

    def acs_radix4(
        path, costs, xg2_late, late_rep, late_off, xg2_early, early_rep,
        early_off, prev2_flat, sel, low01, low23, pair0,
    ):
        pairs, lanes = late_rep.shape
        num_states = path.shape[1]
        if (
            path.shape[0] != lanes
            or sel.shape[0] < pair0 + pairs
            or not all(
                plane.shape[1:] == path.shape for plane in (sel, low01, low23)
            )
            or not all(
                a.shape == late_rep.shape
                for a in (late_off, early_rep, early_off)
            )
        ):
            raise ValueError("C kernel arguments disagree on their shapes")
        plane = pair0 * lanes * num_states
        # Named, so the contiguous copies outlive the call that reads them.
        late_rep = np.ascontiguousarray(late_rep, dtype=int64)
        late_off = np.ascontiguousarray(late_off, dtype=int32)
        early_rep = np.ascontiguousarray(early_rep, dtype=int64)
        early_off = np.ascontiguousarray(early_off, dtype=int32)
        status = acs_by_dtype[path.dtype](
            _pointer(path, path.dtype),
            _pointer(costs, path.dtype),
            _pointer(xg2_late, int32),
            _pointer(late_rep, int64),
            _pointer(late_off, int32),
            _pointer(xg2_early, int32),
            _pointer(early_rep, int64),
            _pointer(early_off, int32),
            _pointer(prev2_flat, int64),
            _pointer(sel, np.bool_) + plane,
            _pointer(low01, np.bool_) + plane,
            _pointer(low23, np.bool_) + plane,
            pairs,
            lanes,
            num_states,
        )
        if status:
            raise MemoryError("C kernel could not allocate its scratch row")

    def backtrace_radix4(
        before, end_state, sel, low01, low23, tail, prev_src, mid_tab, src_tab
    ):
        lanes, steps = before.shape
        if (
            sel.shape[:2] != (steps // 2, lanes)
            or not low01.shape == low23.shape == sel.shape
            or end_state.shape != (lanes,)
            or (tail is not None and tail.shape != (lanes, sel.shape[2]))
        ):
            raise ValueError("C backtrace arguments disagree on their shapes")
        end_state = np.ascontiguousarray(end_state, dtype=int64)
        walk(
            _pointer(before, int64),
            _pointer(end_state, int64),
            _pointer(sel, np.bool_),
            _pointer(low01, np.bool_),
            _pointer(low23, np.bool_),
            None if tail is None else _pointer(tail, np.bool_),
            _pointer(prev_src, int64),
            _pointer(mid_tab, int64),
            _pointer(src_tab, int64),
            sel.shape[0],
            lanes,
            sel.shape[2],
            steps,
        )

    return KernelBackend(
        name="c",
        acs_radix4=acs_radix4,
        description="compiled C gather+ACS and backtrace (needs a C compiler)",
        backtrace_radix4=backtrace_radix4,
    )


# -- registry ----------------------------------------------------------------

#: Factories run lazily so registering a backend never builds it.
_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
#: Memoized resolutions, including the "auto" alias.
_RESOLVED: dict[str, KernelBackend] = {}


def register_backend(name: str, factory: Callable[[], KernelBackend]) -> None:
    """Register a backend factory under ``name``.

    The factory runs at first resolution; raising ``ImportError`` marks
    the backend unavailable (``"auto"`` skips it, naming it explicitly is
    a :class:`~repro.errors.ConfigurationError`).
    """
    _FACTORIES[name] = factory
    _RESOLVED.pop(name, None)
    _RESOLVED.pop("auto", None)


register_backend("numpy", _make_numpy_backend)
register_backend("c", _make_c_backend)


def backend_names() -> list[str]:
    """Every registered backend name (available or not)."""
    return sorted(_FACTORIES)


def available_backends() -> list[str]:
    """Registered backends whose factories succeed here."""
    names = []
    for name in backend_names():
        try:
            _resolve_one(name)
        except (ImportError, ConfigurationError):
            continue
        names.append(name)
    return names


def _resolve_one(name: str) -> KernelBackend:
    backend = _RESOLVED.get(name)
    if backend is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown Viterbi kernel backend {name!r}; registered: "
                f"{backend_names()} (or 'auto')"
            )
        backend = factory()
        _RESOLVED[name] = backend
    return backend


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Pick the kernel backend for a new :class:`CosetViterbi`.

    Precedence: explicit ``name`` argument, then ``REPRO_VITERBI_BACKEND``,
    then ``"auto"``.  ``"auto"`` prefers ``c`` and falls back to numpy
    silently when it cannot build; asking for an unavailable backend by
    name raises so a missing compiler never degrades quietly.
    """
    requested = (name or os.environ.get(BACKEND_ENV) or "auto").lower()
    cached = _RESOLVED.get(requested)
    if cached is not None:
        return cached
    if requested == "auto":
        for candidate in _AUTO_ORDER:
            try:
                backend = _resolve_one(candidate)
            except (ImportError, ConfigurationError):
                continue
            _RESOLVED["auto"] = backend
            return backend
    try:
        return _resolve_one(requested)
    except ImportError as exc:
        raise ConfigurationError(
            f"Viterbi kernel backend {requested!r} is registered but not "
            f"available here ({exc}); use 'numpy' or 'auto'"
        ) from exc
