"""Which public calls the traced runs wrap, and the per-layer metrics and
self-time table computed from the spans they record."""

from __future__ import annotations

import os
import threading
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor

from repro.coding import kernels
from repro.coding.page_code import PageCode
from repro.ssd.performance import NandTimings

from perfbench import stats, tracer

#: ``REPRO_VITERBI_BACKEND`` value that selects the traced ACS kernel.
TRACED_BACKEND = "perfbench-traced"

#: Name prefix of the server's single device-worker thread.
DEVICE_THREAD = "repro-device"

# -- wrapped calls -------------------------------------------------------------


def _lpns(_ssd, lpns, *_args):
    return [int(lpn) for lpn in lpns]


def _lpn(_ssd, lpn, *_args):
    return [int(lpn)]


def _rows(_self, first, *_args, **_kwargs):
    return len(first)


def _unwritable(record, result):
    record[4] = [record[4], int(len(result.writable) - result.writable.sum())]


def _record_bytes(record, result):
    record[4] = len(result)


def _cell_writes(record, result):
    record[4] = int(sum(result.writes_per_cycle))


#: (module, class or None, attribute, span name, attrs, on_result)
CODING_TARGETS = [
    ("repro.core.scheme", "PageCodeScheme", "write", "scheme.write", None, None),
    ("repro.core.scheme", "PageCodeScheme", "write_batch", "scheme.write_batch",
     _rows, None),
    ("repro.core.scheme", "PageCodeScheme", "read", "scheme.read", None, None),
    ("repro.coding.syndrome", "SyndromeFormer", "representative_batch",
     "coding.syndrome.representative", _rows, None),
    ("repro.coding.syndrome", "SyndromeFormer", "syndrome_batch",
     "coding.syndrome.syndrome", _rows, None),
    ("repro.coding.viterbi", "CosetViterbi", "search_batch",
     "coding.viterbi.search", _rows, _unwritable),
    ("repro.vcell.varray", "VCellArray", "program_levels", "vcell.program",
     None, None),
    ("repro.vcell.varray", "VCellArray", "program_levels_batch",
     "vcell.program", _rows, None),
]

DEVICE_TARGETS = [
    ("repro.server.protocol", None, "decode_request", "protocol.decode_request",
     None, None),
    ("repro.server.protocol", None, "encode_response",
     "protocol.encode_response", None, None),
    ("repro.ssd.device", "SSD", "write_batch", "ssd.write_batch", _lpns, None),
    ("repro.ssd.device", "SSD", "read", "ssd.read", _lpn, None),
    ("repro.ssd.device", "SSD", "trim", "ssd.trim", _lpn, None),
    ("repro.ftl.rewriting_ftl", "RewritingFTL", "write_batch", "ftl.write_batch",
     None, None),
    ("repro.ftl.rewriting_ftl", "RewritingFTL", "write", "ftl.write", None, None),
    ("repro.ftl.ftl", "BasicFTL", "write", "ftl.write", None, None),
    ("repro.ftl.ftl", "BasicFTL", "read", "ftl.read", None, None),
    ("repro.ftl.ftl", "BasicFTL", "trim", "ftl.trim", None, None),
    *CODING_TARGETS,
    ("repro.flash.chip", "FlashChip", "program_page", "flash.program_page",
     None, None),
    ("repro.flash.chip", "FlashChip", "read_page", "flash.read_page", None, None),
    ("repro.flash.chip", "FlashChip", "erase_block", "flash.erase_block",
     None, None),
    ("repro.durability.store", "DurableStore", "journal_write",
     "durability.journal_write", None, None),
    ("repro.durability.store", "DurableStore", "journal_trim",
     "durability.journal_trim", None, None),
    ("repro.durability.store", "DurableStore", "commit", "durability.commit",
     None, None),
    ("repro.durability.store", "DurableStore", "checkpoint",
     "durability.checkpoint", None, None),
    ("repro.durability.journal", None, "encode_record",
     "durability.encode_record", None, _record_bytes),
]

ROUTER_TARGETS = [
    ("repro.cluster.router", "ClusterClient", "read", "cluster.read", None, None),
    ("repro.cluster.router", "ClusterClient", "write", "cluster.write", None, None),
    ("repro.server.client", "StorageClient", "read", "cluster.shard_read",
     None, None),
    ("repro.server.client", "StorageClient", "write", "cluster.shard_write",
     None, None),
]

SWEEP_TARGETS = [
    ("repro.experiments.table1", None, "run_cells", "experiments.run_cells",
     None, None),
    ("repro.experiments.pool", None, "simulate_lanes", "engine.simulate",
     None, _cell_writes),
    ("repro.core.lifetime", "LifetimeSimulator", "run", "core.lifetime.run",
     None, _cell_writes),
    ("repro.core.redundancy", "RedundancyScheme", "write", "scheme.write",
     None, None),
    ("repro.core.redundancy", "RedundancyScheme", "read", "scheme.read",
     None, None),
    ("repro.core.uncoded", "UncodedScheme", "write", "scheme.write", None, None),
    ("repro.core.uncoded", "UncodedScheme", "read", "scheme.read", None, None),
    *CODING_TARGETS,
]



def install_code_spans(recorder: tracer.Tracer) -> None:
    """Span every page code's own encode/decode methods.

    Codes override different subsets of the :class:`PageCode` interface,
    so each class's own definitions are wrapped, never an inherited one.
    """
    pending, seen = [PageCode], set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        for attr, name, attrs in (
            ("encode", "coding.encode", None),
            ("encode_batch", "coding.encode", _rows),
            ("decode", "coding.decode", None),
            ("decode_batch", "coding.decode", _rows),
        ):
            function = vars(cls).get(attr)
            if function is not None and not getattr(
                function, "__isabstractmethod__", False
            ):
                recorder.wrap(cls, attr, name, attrs)


def install_acs_backend(recorder: tracer.Tracer) -> None:
    """Time the Viterbi ACS kernel through the ``repro.coding.kernels``
    backend seam: a backend wrapping whichever one would have been
    resolved, selected through ``REPRO_VITERBI_BACKEND`` so every
    ``CosetViterbi`` built afterwards uses it."""
    base = kernels.resolve_backend()
    traced = kernels.KernelBackend(
        name=f"{base.name}+trace",
        acs_radix4=recorder.traced(base.acs_radix4, "coding.viterbi.acs"),
        description=f"{base.name} with a span around each call",
    )
    kernels.register_backend(TRACED_BACKEND, lambda: traced)
    os.environ[kernels.BACKEND_ENV] = TRACED_BACKEND


def install_device_job_span(recorder: tracer.Tracer) -> None:
    """Span every job the server's device thread runs.

    All device work runs as executor jobs on that one thread, so the
    jobs' spans are its busy time, measured apart from the layer spans
    nested inside them.
    """
    original = ThreadPoolExecutor.submit

    def submit(self, fn, /, *args, **kwargs):
        traced = recorder.traced(fn, "server.device_job")

        def job(*job_args, **job_kwargs):
            if threading.current_thread().name.startswith(DEVICE_THREAD):
                return traced(*job_args, **job_kwargs)
            return fn(*job_args, **job_kwargs)

        return original(self, job, *args, **kwargs)

    recorder.replace(ThreadPoolExecutor, "submit", submit)


def install_server(recorder: tracer.Tracer) -> None:
    """Every span of a traced server process."""
    tracer.install(recorder, DEVICE_TARGETS)
    install_code_spans(recorder)
    install_acs_backend(recorder)
    install_device_job_span(recorder)


def install_sweep(recorder: tracer.Tracer) -> None:
    """Every span of a traced serial Table I sweep."""
    tracer.install(recorder, SWEEP_TARGETS)
    install_code_spans(recorder)
    install_acs_backend(recorder)


#: Span-name prefix -> layer row of the self-time table (first match).
LAYERS = [
    ("server.", "server (device-thread glue)"),
    ("protocol.", "protocol"),
    ("ssd.", "ssd"),
    ("ftl.", "ftl"),
    ("scheme.", "core.scheme"),
    ("coding.viterbi.acs", "coding.viterbi ACS kernel"),
    ("coding.viterbi.", "coding.viterbi gathers+backtrace"),
    ("coding.syndrome.", "coding.syndrome"),
    ("coding.", "coding (page code)"),
    ("vcell.", "vcell"),
    ("flash.", "flash"),
    ("durability.", "durability"),
    ("experiments.", "experiments.pool"),
    ("engine.", "experiments.engine"),
    ("core.lifetime.", "core.lifetime"),
]


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return name


# -- span arithmetic -----------------------------------------------------------


class Spans:
    """Indexed view of dumped span rows ``[name, start, end, parent, attrs,
    ok]`` with self times and root ancestors precomputed."""

    def __init__(self, rows) -> None:
        self.rows = rows
        self.self = stats.self_times([(r[1], r[2], r[3]) for r in rows])
        self.root = []
        for i, row in enumerate(rows):
            self.root.append(i if row[3] < 0 else self.root[row[3]])
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, row in enumerate(rows):
            if row[3] >= 0:
                self.children[row[3]].append(i)

    def within(self, window) -> list[int]:
        lo, hi = window
        return [i for i, r in enumerate(self.rows) if lo <= r[1] <= hi]

    def named(self, indexes, *names) -> list[int]:
        return [i for i in indexes if self.rows[i][0] in names]

    def duration(self, i: int) -> float:
        return self.rows[i][2] - self.rows[i][1]

    def total(self, indexes) -> float:
        return sum(self.duration(i) for i in indexes)

    def outermost(self, indexes, name_prefix: str) -> list[int]:
        """Spans of ``name_prefix`` not nested inside another one."""
        out = []
        for i in indexes:
            if not self.rows[i][0].startswith(name_prefix):
                continue
            parent = self.rows[i][3]
            while parent >= 0 and not self.rows[parent][0].startswith(name_prefix):
                parent = self.rows[parent][3]
            if parent < 0:
                out.append(i)
        return out

    def layer_self(self, indexes) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for i in indexes:
            out[layer_of(self.rows[i][0])] += self.self[i]
        return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pages(spans: Spans, indexes) -> int:
    return sum(spans.rows[i][4] if isinstance(spans.rows[i][4], int) else 1
               for i in indexes)


def coding_metrics(spans: Spans, idx, host_writes: int) -> dict:
    """Viterbi, syndrome, decode and v-cell metrics of the spans ``idx``."""
    out = {}
    searches = spans.named(idx, "coding.viterbi.search")
    lanes = sum(spans.rows[i][4][0] for i in searches)
    unwritable = sum(spans.rows[i][4][1] for i in searches)
    search_s = spans.total(searches)
    out["coding.viterbi.ms_per_lane"] = _ratio(search_s * 1e3, lanes)
    out["coding.viterbi.lanes_per_search"] = _ratio(lanes, len(searches))
    out["coding.viterbi.unwritable_ratio"] = _ratio(unwritable, lanes)
    out["coding.viterbi.acs_share"] = _ratio(
        spans.total(spans.named(idx, "coding.viterbi.acs")), search_s
    )
    reps = spans.named(idx, "coding.syndrome.representative")
    out["coding.syndrome.us_per_page"] = _ratio(
        spans.total(reps) * 1e6, _pages(spans, reps)
    )
    decodes = spans.outermost(idx, "coding.decode")
    out["coding.decode.us_per_page"] = _ratio(
        spans.total(decodes) * 1e6, _pages(spans, decodes)
    )
    programs = spans.outermost(idx, "vcell.program")
    out["vcell.program.us_per_page"] = _ratio(
        spans.total(programs) * 1e6, _pages(spans, programs)
    )
    out["ftl.batch_fallback_ratio"] = _ratio(
        len(spans.named(idx, "scheme.write")), host_writes
    )
    return out


def queue_waits(records, spans: Spans) -> list[float]:
    """Open-loop client latency minus the device call that served it.

    The server executes each LPN's ops in arrival order, and every LPN is
    pinned to one connection, so the k-th op a client issued on an LPN is
    served by the k-th SSD call that touched that LPN.
    """
    served: dict[int, deque] = defaultdict(deque)
    calls = [i for i, r in enumerate(spans.rows)
             if r[0] in ("ssd.write_batch", "ssd.read", "ssd.trim")]
    calls.sort(key=lambda i: spans.rows[i][1])
    for i in calls:
        for lpn in spans.rows[i][4]:
            served[lpn].append(spans.duration(i))
    waits = []
    for record in sorted(records, key=lambda r: r.seq):
        queue = served.get(record.lpn)
        if not queue:
            continue
        device = queue.popleft()
        if record.phase == "open" and record.status == "ok":
            waits.append((record.done - record.sent) - device)
    return waits


def served_metrics(spans: Spans, run, host_writes: int,
                   dataword_bits: int) -> tuple[dict, dict, float]:
    """Span metrics of one traced server; returns (metrics, layer self
    times, device-thread busy seconds)."""
    idx = spans.within(run.window)
    wall = run.window[1] - run.window[0]
    jobs = spans.named(idx, "server.device_job")
    busy = spans.total(jobs)
    device_idx = [i for i in idx if spans.rows[spans.root[i]][0]
                  == "server.device_job"]
    layer_self = spans.layer_self(device_idx)
    out = {}
    ssd_calls = spans.named(idx, "ssd.write_batch", "ssd.read", "ssd.trim")
    out["server.device_busy_frac"] = _ratio(spans.total(ssd_calls), wall)
    out["server.queue_wait_ms_p99"] = stats.percentile(
        queue_waits(run.checker.records, spans), 0.99) * 1e3
    proto = spans.named(idx, "protocol.decode_request",
                        "protocol.encode_response")
    requests = len(spans.named(idx, "protocol.decode_request"))
    out["protocol.us_per_op"] = _ratio(spans.total(proto) * 1e6, requests)
    batches = [spans.duration(i) * 1e3
               for i in spans.named(idx, "ssd.write_batch")]
    out["ssd.write_batch.ms_p50"] = stats.percentile(batches, 0.50)
    out["ssd.write_batch.ms_p99"] = stats.percentile(batches, 0.99)
    out["ssd.read.us_p50"] = stats.percentile(
        [spans.duration(i) * 1e6 for i in spans.named(idx, "ssd.read")], 0.50)
    out["ftl.self_share"] = _ratio(layer_self.get("ftl", 0.0), busy)
    out["flash.share"] = _ratio(layer_self.get("flash", 0.0), busy)
    out.update(coding_metrics(spans, idx, host_writes))
    programs = spans.named(idx, "flash.program_page")
    reads = spans.named(idx, "flash.read_page")
    erases = spans.named(idx, "flash.erase_block")
    out["flash.program_page.us_p50"] = stats.percentile(
        [spans.duration(i) * 1e6 for i in programs], 0.50)
    out["flash.programs_per_write"] = _ratio(len(programs), host_writes)
    out["flash.erases_per_kwrite"] = _ratio(len(erases) * 1e3, host_writes)
    timing = NandTimings()
    out["flash.model_us_per_write"] = _ratio(
        len(reads) * timing.read_us + len(programs) * timing.program_us
        + len(erases) * timing.erase_us, host_writes)
    commits = [spans.duration(i) * 1e3
               for i in spans.named(idx, "durability.commit")]
    out["durability.commit.ms_p50"] = stats.percentile(commits, 0.50)
    out["durability.commit.ms_p99"] = stats.percentile(commits, 0.99)
    out["durability.commits_per_kop"] = _ratio(len(commits) * 1e3, requests)
    checkpoints = [spans.duration(i) * 1e3
                   for i in spans.named(idx, "durability.checkpoint")]
    out["durability.checkpoints"] = float(len(checkpoints))
    out["durability.checkpoint.ms_max"] = max(checkpoints, default=0.0)
    journal = sum(spans.rows[i][4]
                  for i in spans.named(idx, "durability.encode_record"))
    out["durability.journal_bytes_per_user_byte"] = _ratio(
        journal, host_writes * dataword_bits / 8)
    return out, layer_self, busy


def router_metrics(spans: Spans, window, redundancy: int) -> tuple[dict, dict, float]:
    """Router metrics of the in-process cluster client's spans."""
    idx = spans.within(window)
    ops = spans.named(idx, "cluster.read", "cluster.write")
    rpcs = spans.named(idx, "cluster.shard_read", "cluster.shard_write")
    out = {
        "cluster.shard_rtt_ms_p50": stats.percentile(
            [spans.duration(i) * 1e3 for i in rpcs], 0.50),
        "cluster.router_self_ms_p99": stats.percentile(
            [spans.self[i] * 1e3 for i in ops], 0.99),
        "cluster.read_attempts_per_read": _ratio(
            len(spans.named(idx, "cluster.shard_read")),
            len(spans.named(idx, "cluster.read"))),
        "cluster.degraded_writes": float(sum(
            1 for i in spans.named(idx, "cluster.write")
            if sum(1 for c in spans.children[i] if spans.rows[c][5])
            < redundancy
        )),
    }
    # A write fans out to its replicas in parallel, so the shard share of
    # an op is the union of its round trips: duration minus router self.
    router_self = sum(spans.self[i] for i in ops)
    op_time = spans.total(ops)
    layer_self = {"cluster.router": router_self,
                  "cluster shard round trips": op_time - router_self}
    return out, layer_self, op_time


def sweep_metrics(spans: Spans) -> tuple[dict, dict, float]:
    """Lifetime-engine and coding metrics of one traced serial sweep."""
    idx = list(range(len(spans.rows)))
    roots = spans.named(idx, "experiments.run_cells")
    wall = spans.total(roots)
    cells = spans.named(idx, "engine.simulate")
    cell_s = [spans.duration(i) for i in cells]
    runs = spans.named(idx, "core.lifetime.run")
    writes = sum(spans.rows[i][4] for i in runs)
    out = {
        "experiments.cell_s_max": max(cell_s, default=0.0),
        "experiments.cell_s_sum": sum(cell_s),
        "core.lifetime.writes_per_s": _ratio(writes, spans.total(runs)),
    }
    out.update(coding_metrics(spans, idx, writes))
    return out, spans.layer_self(idx), wall


def format_table(layer_self: dict, reference_s: float, label: str,
                 exclude: tuple[str, ...] = ()) -> tuple[str, float]:
    """The self-time share table; returns it and the share of
    ``reference_s`` the layers (minus ``exclude``) account for."""
    lines = [f"  {'layer':<36}{'self s':>10}{'share':>8}"]
    attributed = 0.0
    for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        share = _ratio(seconds, reference_s)
        lines.append(f"  {layer:<36}{seconds:>10.3f}{share:>8.1%}")
        if layer not in exclude:
            attributed += seconds
    coverage = _ratio(attributed, reference_s)
    verdict = "within" if abs(1.0 - coverage) <= 0.10 else "NOT within"
    lines.append(f"  {'sum of layers' + (' (excl. glue)' if exclude else ''):<36}"
                 f"{attributed:>10.3f}{coverage:>8.1%}  of {label} "
                 f"{reference_s:.3f} s ({verdict} 10 %)")
    return "\n".join(lines), coverage
