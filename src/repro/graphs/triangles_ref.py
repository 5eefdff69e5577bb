"""Exact sequential triangle and open-triad enumeration (ground truth).

Implements the *forward / compact-forward* algorithm: order vertices by
(degree, id); for every edge, intersect the higher-ordered neighborhoods of
its endpoints.  Every triangle is reported exactly once as a sorted triple.
This is the per-machine local-enumeration kernel of the distributed
algorithms and the reference oracle for tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "enumerate_triangles",
    "count_triangles",
    "enumerate_triangles_edges",
]


def enumerate_triangles_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """Enumerate triangles of the undirected edge set ``edges`` on ``n`` vertices.

    Returns a ``(t, 3)`` array of vertex triples, each sorted ascending,
    rows in lexicographic order.  Standalone (no Graph) so the distributed
    algorithms can run it on received edge lists.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
    edges = np.unique(np.sort(edges, axis=1), axis=0)

    deg = np.bincount(edges.ravel(), minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)

    # Orient every edge from lower rank to higher rank; build CSR of the DAG.
    lo_is_first = rank[edges[:, 0]] < rank[edges[:, 1]]
    src = np.where(lo_is_first, edges[:, 0], edges[:, 1])
    dst = np.where(lo_is_first, edges[:, 1], edges[:, 0])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])

    out: list[np.ndarray] = []
    for e in range(src.size):
        u, v = int(src[e]), int(dst[e])
        nu = dst[indptr[u] : indptr[u + 1]]
        nv = dst[indptr[v] : indptr[v + 1]]
        common = np.intersect1d(nu, nv, assume_unique=False)
        if common.size:
            tri = np.empty((common.size, 3), dtype=np.int64)
            tri[:, 0] = u
            tri[:, 1] = v
            tri[:, 2] = common
            out.append(tri)
    if not out:
        return np.zeros((0, 3), dtype=np.int64)
    tris = np.sort(np.concatenate(out), axis=1)
    order = np.lexsort((tris[:, 2], tris[:, 1], tris[:, 0]))
    return tris[order]


def enumerate_triangles(graph: Graph) -> np.ndarray:
    """All triangles of an undirected :class:`Graph` as sorted triples."""
    if graph.directed:
        raise GraphError("triangle enumeration is defined on undirected graphs")
    return enumerate_triangles_edges(graph.n, graph.edges)


def count_triangles(graph: Graph) -> int:
    """Number of triangles (``t`` in the paper's notation)."""
    return int(enumerate_triangles(graph).shape[0])
