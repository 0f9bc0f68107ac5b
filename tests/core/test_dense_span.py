"""Differential tests: dense row-span kernels == sparse kernels, bit for bit.

``gather_block``, ``pull_apply_block`` and ``expand_row_dsts`` switch to
a dense walk over the contiguous edge span of their (strictly
ascending) ids once the ids' edges are at least
``DENSE_SPAN_FRACTION`` of the span's.  These tests force each path
(fraction ``inf`` = always sparse, ``0`` = dense whenever allowed) and
also run the default switch, and require byte-identical outputs and
identical edge counts, on whole CSRs, on shard slices with a non-zero
edge ``base``, and on pool-sized sub-blocks.

Profiles trade coverage for wall clock (``ci`` is the default); select
with ``REPRO_HYPOTHESIS_PROFILE=dev|ci|nightly|thorough``.
"""

import os
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SSSP, NumPaths, PageRank, WidestPath
from repro.core import runtime
from repro.core.runtime import (
    ascending,
    expand_row_dsts,
    gather_block,
    pull_apply_block,
)
from repro.graph.graph import Graph
from repro.graph.shards import ShardSlice

settings.register_profile("dev", max_examples=10, deadline=None)
settings.register_profile("ci", max_examples=40, deadline=None)
settings.register_profile("nightly", max_examples=200, deadline=None)
settings.register_profile("thorough", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "ci"))

SPARSE = float("inf")
DENSE = 0.0
DEFAULT = runtime.DENSE_SPAN_FRACTION


@contextmanager
def switch_at(fraction):
    saved = runtime.DENSE_SPAN_FRACTION
    runtime.DENSE_SPAN_FRACTION = fraction
    try:
        yield
    finally:
        runtime.DENSE_SPAN_FRACTION = saved


@st.composite
def cases(draw):
    """A graph with zero-degree rows at both ends, self-loops and
    duplicate edges, plus a set of strictly ascending row ids."""
    n = draw(st.integers(min_value=1, max_value=40))
    pad_lo = draw(st.integers(min_value=0, max_value=n - 1))
    pad_hi = draw(st.integers(min_value=0, max_value=n - 1 - pad_lo))
    m = draw(st.integers(min_value=0, max_value=160))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # Endpoints stay inside [pad_lo, n - pad_hi): the rows outside have
    # no edges in either direction.
    srcs = rng.integers(pad_lo, n - pad_hi, size=m, dtype=np.int64)
    dsts = rng.integers(pad_lo, n - pad_hi, size=m, dtype=np.int64)
    loops = rng.random(m) < 0.1
    dsts[loops] = srcs[loops]
    dup = rng.integers(0, m, size=m // 4) if m else np.empty(0, np.int64)
    srcs = np.concatenate([srcs, srcs[dup]])
    dsts = np.concatenate([dsts, dsts[dup]])
    weights = np.round(rng.uniform(0.0, 8.0, size=srcs.size), 1)
    graph = Graph.from_edges(n, (srcs, dsts), weights, name="case")

    kind = draw(st.sampled_from(["empty", "one", "all", "subset"]))
    if kind == "empty":
        ids = np.empty(0, dtype=np.int64)
    elif kind == "one":
        ids = np.array([draw(st.integers(0, n - 1))], dtype=np.int64)
    elif kind == "all":
        ids = np.arange(n, dtype=np.int64)
    else:
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        ids = np.flatnonzero(rng.random(n) < density).astype(np.int64)
    block = draw(st.integers(min_value=1, max_value=8))
    return graph, ids, seed, block


def state(graph, seed):
    rng = np.random.default_rng(seed + 1)
    n = graph.num_vertices
    values = rng.uniform(0.0, 4.0, size=n)
    values[rng.random(n) < 0.2] = np.inf
    values[rng.random(n) < 0.1] = 0.0
    return values


def run_gather(app, csr, deg, values, ids, fraction, block=None):
    result = np.zeros(deg.size)
    edges = 0
    with switch_at(fraction):
        for part in blocks(ids, block):
            edges += gather_block(app, csr, deg, values, part, result)
    return result, edges


def run_pull(app, csr, deg, values, ids, fraction, block=None):
    result = np.zeros(deg.size)
    improved = np.zeros(deg.size, dtype=bool)
    edges = 0
    with switch_at(fraction):
        for part in blocks(ids, block):
            edges += pull_apply_block(
                app, csr, deg, values, part, app.aggregation, result, improved
            )
    return result, improved, edges


def blocks(ids, block):
    if block is None:
        return [ids]
    return [ids[i:i + block] for i in range(0, ids.size, block)]


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def shard_of(csr, lo, hi):
    """A shard slice over rows [lo, hi) whose edge arrays start at a
    non-zero global ``base`` whenever rows before ``lo`` have edges."""
    base = int(csr.indptr[lo])
    end = int(csr.indptr[hi])
    return ShardSlice(
        lo, hi, base, csr.indptr,
        csr.indices[base:end].copy(), csr.weights[base:end].copy(),
    )


def gather_apps(graph):
    pr = PageRank()
    pr.bind(graph)
    paths = NumPaths(root=0)  # reads per-edge destination ids
    paths.bind(graph)
    return [pr, paths]


class TestGather:
    @given(cases())
    def test_dense_equals_sparse(self, case):
        graph, ids, seed, block = case
        csr, deg = graph.in_csr, graph.in_degrees()
        values = np.abs(state(graph, seed))
        values[~np.isfinite(values)] = 1.0
        for app in gather_apps(graph):
            want, want_edges = run_gather(app, csr, deg, values, ids, SPARSE)
            assert want_edges == int(deg[ids].sum())
            for fraction in (DENSE, DEFAULT):
                got, edges = run_gather(app, csr, deg, values, ids, fraction)
                assert same(got, want) and edges == want_edges
            got, edges = run_gather(app, csr, deg, values, ids, DENSE, block)
            assert same(got, want) and edges == want_edges

    @given(cases(), st.data())
    def test_shard_slice_with_base(self, case, data):
        graph, ids, seed, _ = case
        csr, deg = graph.in_csr, graph.in_degrees()
        n = graph.num_vertices
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        shard = shard_of(csr, lo, hi)
        part = ids[(ids >= lo) & (ids < hi)]
        values = np.abs(state(graph, seed))
        values[~np.isfinite(values)] = 1.0
        for app in gather_apps(graph):
            want, want_edges = run_gather(app, csr, deg, values, part, SPARSE)
            for fraction in (DENSE, SPARSE):
                got, edges = run_gather(app, shard, deg, values, part, fraction)
                assert same(got, want) and edges == want_edges


class TestPullApply:
    @given(cases(), st.sampled_from(["min", "max"]))
    def test_dense_equals_sparse(self, case, aggregation):
        graph, ids, seed, block = case
        csr, deg = graph.in_csr, graph.in_degrees()
        values = state(graph, seed)
        app = SSSP() if aggregation == "min" else WidestPath()
        want = run_pull(app, csr, deg, values, ids, SPARSE)
        assert want[2] == int(deg[ids].sum())
        for fraction in (DENSE, DEFAULT):
            got = run_pull(app, csr, deg, values, ids, fraction)
            assert same(got[0], want[0]) and same(got[1], want[1])
            assert got[2] == want[2]
        got = run_pull(app, csr, deg, values, ids, DENSE, block)
        assert same(got[0], want[0]) and same(got[1], want[1])
        assert got[2] == want[2]

    @given(cases(), st.data())
    def test_shard_slice_with_base(self, case, data):
        graph, ids, seed, _ = case
        csr, deg = graph.in_csr, graph.in_degrees()
        n = graph.num_vertices
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        shard = shard_of(csr, lo, hi)
        part = ids[(ids >= lo) & (ids < hi)]
        values = state(graph, seed)
        app = SSSP()
        want = run_pull(app, csr, deg, values, part, SPARSE)
        got = run_pull(app, shard, deg, values, part, DENSE)
        assert same(got[0], want[0]) and same(got[1], want[1])
        assert got[2] == want[2]


class TestExpandRowDsts:
    @given(cases())
    def test_dense_equals_sparse(self, case):
        graph, ids, _, block = case
        csr = graph.out_csr
        with switch_at(SPARSE):
            want = expand_row_dsts(csr, ids)
        assert same(want, csr.expand_sources(ids)[1])
        for fraction in (DENSE, DEFAULT):
            with switch_at(fraction):
                assert same(expand_row_dsts(csr, ids), want)
        with switch_at(DENSE):
            parts = [expand_row_dsts(csr, p) for p in blocks(ids, block)]
        got = np.concatenate(parts) if parts else want
        assert same(got, want)

    @given(cases(), st.data())
    def test_shard_slice_with_base(self, case, data):
        graph, ids, _, _ = case
        csr = graph.out_csr
        n = graph.num_vertices
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        shard = shard_of(csr, lo, hi)
        part = ids[(ids >= lo) & (ids < hi)]
        with switch_at(SPARSE):
            want = expand_row_dsts(csr, part)
        for fraction in (DENSE, SPARSE):
            with switch_at(fraction):
                assert same(expand_row_dsts(shard, part), want)


class TestAscendingPrecondition:
    def test_ascending(self):
        assert ascending(np.empty(0, dtype=np.int64))
        assert ascending(np.array([3], dtype=np.int64))
        assert ascending(np.array([1, 2, 5], dtype=np.int64))
        assert not ascending(np.array([1, 1, 2], dtype=np.int64))
        assert not ascending(np.array([2, 1], dtype=np.int64))

    def test_unsorted_ids_take_the_sparse_path(self):
        # Dense is forced; ids out of order (and repeated) must still
        # get exactly the sparse answer, never a span-based one.
        srcs = np.array([0, 1, 2, 3, 3, 4, 0], dtype=np.int64)
        dsts = np.array([1, 2, 3, 4, 0, 0, 4], dtype=np.int64)
        graph = Graph.from_edges(5, (srcs, dsts), np.arange(1.0, 8.0))
        csr, deg = graph.in_csr, graph.in_degrees()
        values = np.array([0.0, 1.0, np.inf, 2.5, 4.0])
        app = SSSP()
        pr = PageRank()
        pr.bind(graph)
        for ids in ([4, 0, 2], [3, 1, 1, 4], [2, 0]):
            ids = np.array(ids, dtype=np.int64)
            want = run_pull(app, csr, deg, values, ids, SPARSE)
            got = run_pull(app, csr, deg, values, ids, DENSE)
            assert all(same(a, b) for a, b in zip(got[:2], want[:2]))
            assert got[2] == want[2]
            g_want = run_gather(pr, csr, deg, values, ids, SPARSE)
            g_got = run_gather(pr, csr, deg, values, ids, DENSE)
            assert same(g_got[0], g_want[0]) and g_got[1] == g_want[1]
            with switch_at(DENSE):
                assert same(
                    expand_row_dsts(graph.out_csr, ids),
                    graph.out_csr.expand_sources(ids)[1],
                )
