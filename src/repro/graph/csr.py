"""Compressed sparse row adjacency storage.

:class:`CSR` is the core adjacency structure used by every engine in the
package.  It stores, for each source vertex ``u``, a contiguous slice of
neighbour ids ``indices[indptr[u]:indptr[u + 1]]`` and, in parallel, the
edge weights ``weights[indptr[u]:indptr[u + 1]]``.

The structure is immutable after construction; engines read it through the
vectorised helpers (:meth:`CSR.neighbors`, :meth:`CSR.edge_slice`,
:meth:`CSR.expand_sources`) rather than mutating it.

Row-addressed edge access (:meth:`RowAccess.edge_range`,
:meth:`RowAccess.expand_positions`, :meth:`RowAccess.expand_sources`)
lives in the :class:`RowAccess` mixin, which the out-of-core
:class:`repro.graph.shards.ShardSlice` shares: both are built on the one
expansion helper ``_expand_rows``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphFormatError

__all__ = ["CSR", "RowAccess"]


def _expand_rows(
    indptr: np.ndarray, rows: np.ndarray, base: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge positions of ``rows``, concatenated in the order given.

    Returns ``(positions, counts)``: ``positions`` indexes an edge array
    that starts at global edge ``base`` (0 for a whole CSR, the shard's
    first edge for a shard-local array), and ``counts`` is each row's
    edge count.  ``rows`` need not be sorted and may repeat.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    # Edge k of the output is edge (k - first_k) of its row, where
    # first_k is the row's first output slot: one repeat of the
    # per-row shift (start - base - first_k) plus an arange.
    shift = starts - base
    shift[1:] -= np.cumsum(counts[:-1])
    positions = np.repeat(shift, counts)
    positions += np.arange(total, dtype=np.int64)
    return positions, counts


class RowAccess:
    """Row-addressed edge access over ``indptr``/``indices``/``weights``.

    ``indptr`` is the global row-pointer array; ``indices``/``weights``
    hold the edges from global edge :attr:`base` on.  :class:`CSR` holds
    every edge (``base`` 0); a shard slice holds one contiguous row
    range and sets ``base`` to its first edge, so this is the only place
    the offset is applied.
    """

    __slots__ = ()

    #: Global id of the first edge in ``indices``/``weights``.
    base = 0

    def edge_range(self, lo: int, hi: int) -> Tuple[int, int]:
        """``[e0, e1)`` into ``indices``/``weights`` of rows ``[lo, hi)``."""
        return (
            int(self.indptr[lo]) - self.base,
            int(self.indptr[hi]) - self.base,
        )

    def expand_positions(self, vertices: np.ndarray) -> np.ndarray:
        """Flat edge indices of the rows of ``vertices`` (concatenated).

        The result aligns with the arrays returned by
        :meth:`expand_sources` for the same input, and indexes any
        edge-aligned side array (e.g. per-edge partition owners).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        return _expand_rows(self.indptr, vertices, self.base)[0]

    def expand_sources(
        self, vertices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather the edges of a set of rows at once.

        Parameters
        ----------
        vertices:
            Array of row ids (need not be sorted, may be empty).

        Returns
        -------
        (srcs, dsts, weights):
            Flat, aligned arrays covering every edge whose source is in
            ``vertices`` (with multiplicity if a vertex repeats).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        flat, counts = _expand_rows(self.indptr, vertices, self.base)
        srcs = np.repeat(vertices, counts)
        return srcs, self.indices[flat], self.weights[flat]


class CSR(RowAccess):
    """Immutable CSR adjacency over ``num_vertices`` vertices.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``indptr[0] == 0`` and ``indptr[-1] == num_edges``.
    indices:
        ``int64`` array of neighbour ids, length ``num_edges``.
    weights:
        ``float64`` array of edge weights, length ``num_edges``.  Pass
        ``None`` for an unweighted view (all weights are one).
    """

    __slots__ = ("indptr", "indices", "weights")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphFormatError("indptr and indices must be 1-D arrays")
        if indptr.size == 0:
            raise GraphFormatError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise GraphFormatError("indptr[0] must be 0")
        if indptr[-1] != indices.size:
            raise GraphFormatError(
                "indptr[-1] (%d) must equal the number of edges (%d)"
                % (indptr[-1], indices.size)
            )
        if np.any(np.diff(indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        num_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise GraphFormatError("neighbour ids must lie in [0, num_vertices)")
        if weights is None:
            weights = np.ones(indices.size, dtype=np.float64)
        else:
            weights = np.ascontiguousarray(weights, dtype=np.float64)
            if weights.shape != indices.shape:
                raise GraphFormatError("weights must align with indices")
        self.indptr = indptr
        self.indices = indices
        self.weights = weights

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by this adjacency."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edges."""
        return self.indices.size

    def degrees(self) -> np.ndarray:
        """Out-degree (row length) of every vertex as ``int64``."""
        return np.diff(self.indptr)

    def degree(self, vertex: int) -> int:
        """Degree of a single vertex."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def neighbors(self, vertex: int) -> np.ndarray:
        """Neighbour ids of ``vertex`` (a view, do not mutate)."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def neighbor_weights(self, vertex: int) -> np.ndarray:
        """Edge weights parallel to :meth:`neighbors` (a view)."""
        return self.weights[self.indptr[vertex] : self.indptr[vertex + 1]]

    def edge_slice(self, vertex: int) -> slice:
        """Slice into ``indices``/``weights`` for the row of ``vertex``."""
        return slice(int(self.indptr[vertex]), int(self.indptr[vertex + 1]))

    def row_of_edge(self) -> np.ndarray:
        """For every stored edge, the id of its source (row) vertex.

        This is the inverse of the CSR compression: an ``int64`` array of
        length ``num_edges`` where entry ``e`` is the vertex whose row
        contains edge ``e``.  Used by vectorised kernels that need
        ``(src, dst, weight)`` triples.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.degrees()
        )

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def transpose_permutation(self) -> np.ndarray:
        """Permutation mapping transposed edge order back to this order.

        ``transpose().indices[i]`` corresponds to this CSR's edge
        ``transpose_permutation()[i]`` — used to carry edge-aligned side
        arrays (weights, partition owners) into the transposed view.
        """
        return np.argsort(self.indices, kind="stable")

    def transpose(self) -> "CSR":
        """Reverse every edge, producing the incoming-adjacency CSR.

        The result's rows are destinations of this CSR; row contents are the
        original sources, with weights carried along.  Stable counting sort
        keeps construction at O(V + E).
        """
        n = self.num_vertices
        counts = np.bincount(self.indices, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = self.transpose_permutation()
        indices = self.row_of_edge()[order]
        weights = self.weights[order]
        return CSR(indptr, indices, weights)

    def sorted_rows(self) -> "CSR":
        """Return an equivalent CSR with each row's neighbours sorted."""
        indices = self.indices.copy()
        weights = self.weights.copy()
        for v in range(self.num_vertices):
            sl = self.edge_slice(v)
            order = np.argsort(indices[sl], kind="stable")
            indices[sl] = indices[sl][order]
            weights[sl] = weights[sl][order]
        return CSR(self.indptr.copy(), indices, weights)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray = None,
    ) -> "CSR":
        """Build a CSR from parallel ``(srcs, dsts, weights)`` arrays.

        Edges are grouped by source with a stable counting sort, preserving
        the relative input order of each vertex's out-edges.
        """
        if num_vertices < 0:
            raise GraphFormatError("num_vertices must be non-negative")
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        if srcs.shape != dsts.shape or srcs.ndim != 1:
            raise GraphFormatError("srcs and dsts must be aligned 1-D arrays")
        if srcs.size:
            lo = min(srcs.min(), dsts.min())
            hi = max(srcs.max(), dsts.max())
            if lo < 0 or hi >= num_vertices:
                raise GraphFormatError(
                    "edge endpoints must lie in [0, %d)" % num_vertices
                )
        if weights is None:
            weights = np.ones(srcs.size, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != srcs.shape:
                raise GraphFormatError("weights must align with srcs/dsts")
        counts = np.bincount(srcs, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(srcs, kind="stable")
        return cls(indptr, dsts[order], weights[order])

    # ------------------------------------------------------------------
    # iteration / dunder
    # ------------------------------------------------------------------
    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` triples in row order."""
        for v in range(self.num_vertices):
            sl = self.edge_slice(v)
            for dst, w in zip(self.indices[sl], self.weights[sl]):
                yield v, int(dst), float(w)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSR):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # immutable in spirit, but arrays aren't
        return id(self)

    def __repr__(self) -> str:
        return "CSR(num_vertices=%d, num_edges=%d)" % (
            self.num_vertices,
            self.num_edges,
        )
