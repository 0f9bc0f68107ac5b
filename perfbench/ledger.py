"""Per-layer ledger for the traced run.

``install()`` wraps public functions and methods of each layer in a span
timer; it is called only in traced job processes.  A span's *self* time
is its wall time minus the spans nested inside it, so on the main thread
the self times of all layers add up to the time spent inside top-level
spans.  ``run.py`` checks that this sum matches the job's wall time:
whatever a job does outside every span is unattributed.

Counts come from the program's own ``TraceRecorder`` (passed through
``recorder=``) and from the return values of the wrapped calls.  Only
the main thread's spans enter the ledger: calls made by helper threads
(the out-of-core read-ahead thread fetching shard blobs) are counted
but overlap the main thread's time.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

import numpy as np

#: Ledger layers, in report order.  Each is a main-thread self time.
LAYERS = (
    "graph.prepare_s",
    "graph.transpose_s",
    "core.rrg.guidance_s",
    "partition.chunking_s",
    "cluster.build_s",
    "cluster.messages_s",
    "cluster.metrics_s",
    "core.runtime.dispatch_init_s",
    "core.runtime.gather_s",
    "core.runtime.pull_apply_s",
    "core.runtime.push_s",
    "core.runtime.expand_out_s",
    "core.state.observe_s",
    "core.engine.self_s",
    "parallel.spawn_s",
    "parallel.close_s",
    "ooc.open_s",
    "store.spill_s",
    "store.blob_read_s",
)


class Ledger:
    """Span timer plus per-job counters."""

    def __init__(self) -> None:
        self._main = threading.main_thread()
        self._stack = []  # child-time accumulators of open main-thread spans
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.active_fracs = []
        self.partitions = []

    def span(self, layer: str, fn, after=None):
        """Wrap ``fn`` so its calls are timed under ``layer``.

        ``after(ledger, args, result, wall)`` runs outside the span (so
        its own cost is charged to the caller's layer) to pull counts
        out of the call.
        """
        ledger = self

        def wrapper(*args, **kwargs):
            if threading.current_thread() is not ledger._main:
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                ledger.counts["offmain:" + layer] += time.perf_counter() - t0
                ledger.counts["calls:" + layer] += 1
                return result
            stack = ledger._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                child = stack.pop()
                ledger.self_s[layer] += wall - child
                if stack:
                    stack[-1] += wall
            ledger.counts["calls:" + layer] += 1
            if after is not None:
                after(ledger, args, result, wall)
            return result

        return wrapper


def _patch(owner, name: str, ledger: Ledger, layer: str, after=None) -> None:
    setattr(owner, name, ledger.span(layer, getattr(owner, name), after))


def _phase_wrapper(ledger: Ledger, owner, name: str, phase: str,
                   pool: bool) -> None:
    """Time one dispatch phase method and count what it processed.

    Edges come from the dispatch's cumulative telemetry counter (every
    backend keeps it), read before and after the call.
    """
    from repro.core.runtime import TEL_EDGES

    fn = getattr(owner, name)
    layer = "core.runtime.%s_s" % phase
    timed = ledger.span(layer, fn)

    def wrapper(self, ids, *args, **kwargs):
        before = int(self.telemetry[:, TEL_EDGES].sum())
        t0 = time.perf_counter()
        result = timed(self, ids, *args, **kwargs)
        wall = time.perf_counter() - t0
        if phase == "expand_out":
            edges = int(np.asarray(result).size)
        else:
            edges = int(self.telemetry[:, TEL_EDGES].sum()) - before
        counts = ledger.counts
        counts["edges:" + phase] += edges
        if phase != "expand_out" and self.num_vertices:
            ledger.active_fracs.append(ids.size / self.num_vertices)
        if pool and phase != "expand_out":
            stats = result[-1] if phase == "push" else result
            if stats:
                busy = [float(s["busy_seconds"]) for s in stats]
                counts["pool_busy"] += sum(busy)
                counts["pool_slots"] += wall * self.num_workers
                counts["pool_wait"] += max(0.0, wall - max(busy))
                counts["pool_steals"] += sum(int(s["steals"]) for s in stats)
        return result

    setattr(owner, name, wrapper)


def install(ledger: Ledger, count_fsyncs: bool = True) -> None:
    """Wrap every layer's public entry points (traced processes only).

    ``count_fsyncs`` counts ``os.fsync`` calls for ``store.fsyncs``; the
    out-of-core setup process leaves it off, so the figure covers only
    the solve and not the spill.
    """
    from repro import ooc, parallel
    from repro.apps.base import MinMaxApplication
    from repro.apps.pagerank import PageRank
    from repro.cluster.cluster import SimulatedCluster
    from repro.cluster.metrics import MetricsCollector
    from repro.core import engine, rrg, runtime, state
    from repro.graph.csr import CSR
    from repro.partition.chunking import ChunkingPartitioner
    from repro.store import ArtifactStore

    _patch(MinMaxApplication, "prepare", ledger, "graph.prepare_s")
    _patch(PageRank, "bind", ledger, "graph.prepare_s")
    _patch(CSR, "transpose", ledger, "graph.transpose_s")

    def guidance_counts(led, args, result, wall):
        led.counts["rrg.edge_ops"] += int(result.edge_ops)
        led.counts["rrg.levels"] = int(result.num_iterations)

    _patch(rrg, "generate_guidance", ledger, "core.rrg.guidance_s",
           guidance_counts)
    for name in ("default_roots", "save_guidance", "load_guidance"):
        _patch(rrg, name, ledger, "core.rrg.guidance_s")

    def keep_partition(led, args, result, wall):
        led.partitions.append((args[1], result))

    _patch(ChunkingPartitioner, "partition", ledger, "partition.chunking_s",
           keep_partition)
    _patch(SimulatedCluster, "__init__", ledger, "cluster.build_s")
    _patch(SimulatedCluster, "messages_for_changed", ledger,
           "cluster.messages_s")
    for name in ("begin_iteration", "end_iteration", "set_frontier",
                 "add_edge_ops", "add_vertex_ops", "add_updates",
                 "add_messages"):
        _patch(MetricsCollector, name, ledger, "cluster.metrics_s")

    _patch(runtime.SerialDispatch, "__init__", ledger,
           "core.runtime.dispatch_init_s")
    for cls in (runtime.SerialDispatch, parallel.ParallelExecutor,
                ooc.ShardStreamDispatch):
        for name, phase in (("gather", "gather"), ("pull_apply", "pull_apply"),
                            ("push", "push"), ("expand_out_dsts", "expand_out")):
            _phase_wrapper(ledger, cls, name, phase,
                           pool=cls is parallel.ParallelExecutor)

    for name in ("observe", "thaw", "active_mask"):
        _patch(state.StabilityTracker, name, ledger, "core.state.observe_s")
    for name in ("__init__", "run_minmax", "run_arithmetic"):
        _patch(engine.SLFEEngine, name, ledger, "core.engine.self_s")

    _patch(parallel.ParallelExecutor, "__init__", ledger, "parallel.spawn_s")
    _patch(parallel.ParallelExecutor, "close", ledger, "parallel.close_s")

    _patch(ooc, "load_spilled", ledger, "ooc.open_s")
    _patch(ooc.ShardStreamDispatch, "__init__", ledger, "ooc.open_s")
    _patch(ooc, "spill_graph", ledger, "store.spill_s")
    _patch(ArtifactStore, "get_shard_blob", ledger, "store.blob_read_s")

    if not count_fsyncs:
        return
    real_fsync = os.fsync

    def counting_fsync(fd):
        ledger.counts["fsyncs"] += 1
        return real_fsync(fd)

    os.fsync = counting_fsync


# ----------------------------------------------------------------------
# per-job summary
# ----------------------------------------------------------------------
def _events(recorder, name):
    return [e.payload for e in recorder.events if e.name == name]


def summarize(ledger: Ledger, recorder, store_dir=None) -> dict:
    """One job's per-layer numbers (ledger self times plus counts)."""
    out = {layer: ledger.self_s.get(layer, 0.0) for layer in LAYERS}
    c = ledger.counts
    out["ledger_sum_s"] = sum(ledger.self_s.values())
    for phase in ("gather", "pull_apply", "push"):
        edges = c.get("edges:" + phase, 0)
        out["core.runtime.%s_edges" % phase] = edges
        out["core.runtime.%s_ns_per_edge" % phase] = (
            out["core.runtime.%s_s" % phase] * 1e9 / edges if edges else 0.0
        )
    out["core.runtime.active_frac_p50"] = (
        float(np.median(ledger.active_fracs)) if ledger.active_fracs else 0.0
    )
    out["core.rrg.edge_ops"] = c.get("rrg.edge_ops", 0)
    out["core.rrg.levels"] = c.get("rrg.levels", 0)

    imbalance = 0.0
    for graph, partition in ledger.partitions:
        loads = np.bincount(
            partition.owner,
            weights=graph.in_degrees(),
            minlength=partition.num_parts,
        )
        if loads.mean() > 0:
            imbalance = float(loads.max() / loads.mean())
    out["partition.edge_imbalance"] = imbalance

    if recorder is not None:
        messages = _events(recorder, "messages")
        out["cluster.messages"] = sum(p["count"] for p in messages)
        out["cluster.message_bytes"] = sum(p["bytes"] for p in messages)
        modes = [p["mode"] for p in _events(recorder, "superstep_begin")]
        out["core.engine.pull_supersteps"] = modes.count("pull")
        out["core.engine.push_supersteps"] = modes.count("push")
        out["core.engine.rr_skipped"] = sum(
            p.get("skipped", 0) for p in _events(recorder, "rr_skip")
        )
        ec = _events(recorder, "ec_transition")
        out["core.state.ec_vertices"] = (
            ec[-1]["total"] - ec[-1]["live"] if ec else 0
        )
        out["parallel.pipe_messages"] = sum(
            p["messages"] for p in _events(recorder, "parallel_dispatch")
        )
        shard_io = _events(recorder, "shard_io")
        reads = sum(p["shards"] for p in shard_io)
        hits = sum(p["cache_hits"] for p in shard_io)
        out["ooc.shards_read"] = reads
        out["ooc.bytes_read"] = sum(p["bytes"] for p in shard_io)
        out["ooc.cache_hit_frac"] = hits / (hits + reads) if hits + reads else 0.0
        out["ooc.read_s"] = sum(p["read_seconds"] for p in shard_io)

    slots = c.get("pool_slots", 0.0)
    out["parallel.phase_wait_s"] = c.get("pool_wait", 0.0)
    out["parallel.worker_busy_frac"] = c.get("pool_busy", 0.0) / slots if slots else 0.0
    out["parallel.steals"] = c.get("pool_steals", 0)
    out["store.blob_reads"] = c.get("calls:store.blob_read_s", 0)
    out["store.fsyncs"] = c.get("fsyncs", 0)
    out["store.shard_bytes"] = _shard_bytes(store_dir) if store_dir else 0
    return out


def _shard_bytes(store_dir: str) -> int:
    shards = os.path.join(store_dir, "shards")
    if not os.path.isdir(shards):
        return 0
    return sum(
        os.path.getsize(os.path.join(shards, name))
        for name in os.listdir(shards)
        if name.endswith(".npz")
    )
