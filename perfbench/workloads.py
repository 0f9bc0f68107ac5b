"""The benchmark's four SLFE jobs: inputs, setup, solve and answer checks.

Shared by the orchestrator (``run.py``), which checks answers outside the
timed region, and the job processes (``worker.py``), which time them.
Everything here goes through the package's public API: the
``repro.graph.generators`` models with the ``repro.graph.datasets``
recipe parameters, ``SLFEEngine`` with ``guidance=``/``backend=``/
``recorder=``, ``generate_guidance``, ``spill_graph``/``load_spilled``
and ``repro.apps.reference``.

Module functions are always called through their module
(``rrg.generate_guidance``, ``ooc.spill_graph``) so the traced run's
wrappers (``ledger.py``) see every call.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from repro import ooc, store
from repro.apps import reference
from repro.apps.pagerank import PageRank
from repro.apps.sssp import SSSP
from repro.cluster.config import ClusterConfig
from repro.cluster.costmodel import CostModel
from repro.core import rrg
from repro.core.engine import SLFEEngine
from repro.graph import generators
from repro.graph.csr import CSR
from repro.graph.datasets import DATASETS
from repro.graph.graph import Graph

#: ``social_network`` parameters of the ``repro.graph.datasets`` recipe
#: for each stand-in kind (``_social`` / ``_folksonomy`` there); only the
#: seed differs: it comes from the benchmark's ``--seed``.
RECIPES = {
    "social": {"shortcut_density": 0.05, "hub_bias": 1.5},
    "folksonomy": {"shortcut_density": 0.05, "hub_bias": 1.7},
}

#: PageRank answer tolerance against ``reference.pagerank`` (the same
#: bounds the repository's RR tests use).
PR_ATOL = 5e-4
PR_RTOL = 1e-3

#: The out-of-core setup hands its guidance to the solve process in this
#: file, next to the shards in the job's private store directory.
GUIDANCE_FILE = "guidance.npz"


@dataclass(frozen=True)
class Workload:
    name: str
    app: str  # "PR" | "SSSP"
    dataset: str  # key into repro.graph.datasets.DATASETS
    divisor: int
    nodes: int
    backend: str  # "serial" | "parallel" | "ooc"
    workers: int = 1
    shard_mb: Optional[float] = None
    #: Setups timed per untraced job (``setup_s`` is their median): more
    #: where setup is a small share of the job and jobs per run are few.
    setups: int = 1

    @property
    def weighted(self) -> bool:
        return self.app == "SSSP"

    @property
    def out_of_core(self) -> bool:
        return self.backend == "ooc"


def _pool_workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("pr-lj", "PR", "LJ", 50, 8, "serial", setups=3),
        Workload("sssp-di", "SSSP", "DI", 100, 8, "serial"),
        Workload("pr-lj-pool", "PR", "LJ", 50, 8, "parallel",
                 workers=_pool_workers(), setups=3),
        # One simulated node: SimulatedCluster reads resident edges to
        # count remote fan-out when there are more.
        # 2 MiB shards, 14 per direction against the default 4-shard
        # cache: every superstep still streams.  A job makes ~1,000
        # fsync'd shard reads; at 0.5 MiB it made ~3,900, and the solve
        # time followed the disk's fsync latency (7.7 to 13.1 s over
        # five seeds, against 4.6 to 6.3 s at 2 MiB).
        Workload("pr-lj-ooc", "PR", "LJ", 100, 1, "ooc", shard_mb=2.0,
                 setups=2),
    )
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_graph(wl: Workload, seed: int, divisor: Optional[int] = None) -> Graph:
    """The workload's stand-in graph, generated from ``seed``."""
    spec = DATASETS[wl.dataset]
    graph = generators.social_network(
        spec.scaled_vertices(divisor or wl.divisor),
        avg_degree=max(1, int(round(spec.avg_degree))),
        seed=seed,
        name=spec.key,
        **RECIPES[spec.kind],
    )
    if wl.weighted:
        graph = generators.random_weights(graph, 1.0, 10.0, seed=seed)
        graph.name = spec.key
    return graph


def fresh_copy(graph: Graph) -> Graph:
    """A new ``Graph`` over copied arrays: no cached transpose, nothing
    shared with an earlier repetition."""
    out = graph.out_csr
    return Graph(
        CSR(out.indptr.copy(), out.indices.copy(), out.weights.copy()),
        name=graph.name,
    )


def sssp_root(graph: Graph) -> int:
    """The highest out-degree vertex (lowest id on ties)."""
    return int(np.argmax(graph.out_degrees()))


def fingerprint(graph: Graph) -> str:
    out = graph.out_csr
    digest = hashlib.sha256()
    for array in (out.indptr, out.indices, out.weights):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:16]


def config_for(wl: Workload) -> ClusterConfig:
    return ClusterConfig(num_nodes=wl.nodes)


def _new_app(wl: Workload):
    return PageRank() if wl.app == "PR" else SSSP()


# ----------------------------------------------------------------------
# one job: setup (preprocessing), then solve (engine + run call)
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """What setup hands to solve."""

    app: object
    graph: Graph
    guidance: rrg.RRGuidance
    root: Optional[int] = None
    digest: str = ""  # shard digest (out-of-core only)


def setup(wl: Workload, graph: Graph, store_dir: Optional[str] = None) -> Prepared:
    """Preprocessing on a fresh graph: prepare/bind, transpose, guidance;
    for the out-of-core job also the spill into ``store_dir`` and the
    guidance file the solve process reads."""
    app = _new_app(wl)
    root = None
    if wl.app == "PR":
        app.bind(graph)
        run_graph = graph
        run_graph.in_csr
        roots = rrg.default_roots(run_graph)
    else:
        root = sssp_root(graph)
        run_graph = app.prepare(graph)
        run_graph.in_csr
        roots = app.guidance_roots(run_graph, root)
    guidance = rrg.generate_guidance(run_graph, roots)
    prepared = Prepared(app, graph, guidance, root)
    if wl.out_of_core:
        artifacts = store.ArtifactStore(store_dir, max_bytes=None)
        prepared.digest = ooc.spill_graph(graph, artifacts, shard_mb=wl.shard_mb)
        rrg.save_guidance(guidance, os.path.join(store_dir, GUIDANCE_FILE))
    return prepared


def solve(wl: Workload, prepared: Prepared, recorder=None):
    """Engine construction plus the run call; returns the RunResult."""
    engine = SLFEEngine(
        prepared.graph,
        config=config_for(wl),
        backend=wl.backend,
        num_workers=wl.workers,
        recorder=recorder,
    )
    if wl.app == "PR":
        return engine.run_arithmetic(prepared.app, guidance=prepared.guidance)
    return engine.run_minmax(
        prepared.app, root=prepared.root, guidance=prepared.guidance
    )


def solve_spilled(wl: Workload, store_dir: str, digest: str, recorder=None):
    """The out-of-core solve: open the shards, read the guidance, run.

    The store is installed only for the call (the ooc dispatch finds its
    shards through the ambient store) and uninstalled afterwards.
    """
    artifacts = store.ArtifactStore(store_dir, max_bytes=None)
    store.install_store(artifacts)
    try:
        graph = ooc.load_spilled(artifacts, digest)
        guidance = rrg.load_guidance(os.path.join(store_dir, GUIDANCE_FILE))
        prepared = Prepared(_new_app(wl), graph, guidance)
        return solve(wl, prepared, recorder)
    finally:
        store.uninstall_store()


def result_counts(wl: Workload, result) -> dict:
    """Counts that must repeat exactly for one seed."""
    metrics = result.metrics
    return {
        "edge_ops": int(metrics.total_edge_ops),
        "messages": int(metrics.total_messages),
        "supersteps": int(result.iterations),
        "modeled_s": float(
            CostModel(config_for(wl)).evaluate(metrics).execution_seconds
        ),
    }


# ----------------------------------------------------------------------
# answer checks (run by the orchestrator, outside the timed region)
# ----------------------------------------------------------------------
class Checker:
    """Expected answers for one workload and seed."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        graph = make_graph(wl, seed)
        self.fingerprint = fingerprint(graph)
        if wl.app == "PR":
            self.oracle = reference.pagerank(graph)
        else:
            self.oracle = reference.dijkstra(graph, sssp_root(graph))
        self.serial = None
        if wl.backend != "serial":
            # The pool and out-of-core backends promise bit-identity
            # with the serial engine on the same input and cluster shape.
            serial = replace(wl, backend="serial", workers=1, shard_mb=None)
            prepared = setup(serial, fresh_copy(graph))
            self.serial = solve(serial, prepared).values

    def problems(self, values: np.ndarray) -> list:
        """Why ``values`` is wrong (empty when it is right)."""
        out = []
        if values.shape != self.oracle.shape:
            return ["%d values, expected %d" % (values.size, self.oracle.size)]
        if self.wl.app == "PR":
            if not np.allclose(values, self.oracle, atol=PR_ATOL, rtol=PR_RTOL):
                out.append(
                    "PageRank off reference.pagerank by %.3g (atol %g, "
                    "rtol %g)"
                    % (np.max(np.abs(values - self.oracle)), PR_ATOL, PR_RTOL)
                )
        elif not np.array_equal(values, self.oracle):
            out.append(
                "SSSP differs from reference.dijkstra at %d vertices"
                % int(np.count_nonzero(values != self.oracle))
            )
        if self.serial is not None and not np.array_equal(values, self.serial):
            out.append(
                "%s backend not bit-identical to serial at %d vertices"
                % (self.wl.backend, int(np.count_nonzero(values != self.serial)))
            )
        return out
