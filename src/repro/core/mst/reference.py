"""Sequential MST reference: Kruskal over a weighted edge list."""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.core.mst.dsu import DisjointSetUnion

__all__ = ["kruskal_mst", "checked_weights"]


def checked_weights(graph: Graph, weights: np.ndarray) -> np.ndarray:
    """``weights`` as the ``(m,)`` float64 array an MST entry point accepts.

    Raises :class:`AlgorithmError` for a directed graph, a wrong shape,
    or a NaN / infinite weight: the (weight, index) total order would
    still sort those, and the run would return a "forest" whose total
    weight is ``nan`` or ``inf``.
    """
    if graph.directed:
        raise AlgorithmError("MST is defined on undirected graphs")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (graph.m,):
        raise AlgorithmError(
            f"weights must have shape ({graph.m},), got {weights.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise AlgorithmError(
            f"weights must be finite, got {weights[bad[0]]} at edge index {bad[0]}"
        )
    return weights


def kruskal_mst(graph: Graph, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum spanning forest of an undirected weighted graph.

    Parameters
    ----------
    graph:
        Undirected :class:`Graph`.
    weights:
        ``(m,)`` weights aligned with ``graph.edges``.

    Returns
    -------
    (edges, total_weight)
        ``(t, 2)`` MSF edge rows (canonical order) and the forest weight.
        For connected graphs ``t = n - 1``.
    """
    weights = checked_weights(graph, weights)
    order = np.argsort(weights, kind="stable")
    dsu = DisjointSetUnion(graph.n)
    chosen: list[int] = []
    for e in order:
        u, v = graph.edges[e]
        if dsu.union(int(u), int(v)):
            chosen.append(int(e))
            if dsu.num_components == 1:
                break
    chosen_arr = np.array(sorted(chosen), dtype=np.int64)
    edges = graph.edges[chosen_arr] if chosen_arr.size else np.zeros((0, 2), dtype=np.int64)
    return edges, float(weights[chosen_arr].sum()) if chosen_arr.size else 0.0
