"""Sparse matrix-vector multiplication as a one-shot vertex program.

``y[v] = sum over edges (u -> v) of weight(u, v) * x[u]`` — Table 1's
SpMV entry.  Runs for exactly one gather/apply round.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import ArithmeticApplication
from repro.graph.graph import Graph

__all__ = ["SpMV"]


class SpMV(ArithmeticApplication):
    """One weighted gather: the product of A-transpose with ``x``."""

    name = "SpMV"
    reads_edge_dsts = False
    default_max_iterations = 1
    default_tolerance = 0.0

    def __init__(self, x: np.ndarray) -> None:
        self.x = np.asarray(x, dtype=np.float64)

    def initial_values(self, graph: Graph) -> np.ndarray:
        if self.x.shape != (graph.num_vertices,):
            raise ValueError("input vector must have one entry per vertex")
        return self.x.copy()

    def edge_contributions(
        self,
        values: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        weights: np.ndarray,
    ) -> np.ndarray:
        # Always reads the *initial* vector so a single round suffices
        # regardless of apply order.
        return weights * self.x[srcs]

    def apply(self, gathered: np.ndarray, values: np.ndarray) -> np.ndarray:
        return gathered
