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
    "count_open_triads",
    "enumerate_open_triads",
    "enumerate_triangles_edges",
]


def _forward_order(graph: Graph) -> np.ndarray:
    """Rank vertices by (degree, id); returns rank[v]."""
    deg = graph.degrees()
    order = np.lexsort((np.arange(graph.n), deg))
    rank = np.empty(graph.n, dtype=np.int64)
    rank[order] = np.arange(graph.n)
    return rank


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


def count_open_triads(graph: Graph) -> int:
    """Number of open triads: vertex triples with exactly two edges.

    Identity: ``sum_v C(deg(v), 2) - 3 * #triangles`` — each open triad is
    counted once at its center; each triangle contributes one wedge at each
    of its three corners, none of which is open.
    """
    if graph.directed:
        raise GraphError("open triads are defined on undirected graphs")
    deg = graph.degrees().astype(np.int64)
    wedges = int((deg * (deg - 1) // 2).sum())
    return wedges - 3 * count_triangles(graph)


def enumerate_open_triads(graph: Graph, limit: int | None = None) -> np.ndarray:
    """Open triads as rows ``(center, a, b)`` with ``a < b`` non-adjacent.

    Output can be Θ(n·Δ²); pass ``limit`` to cap the number of rows
    (raises :class:`GraphError` if the cap would be exceeded).
    """
    if graph.directed:
        raise GraphError("open triads are defined on undirected graphs")
    total = count_open_triads(graph)
    if limit is not None and total > limit:
        raise GraphError(f"open-triad output ({total}) exceeds limit ({limit})")
    rows: list[tuple[int, int, int]] = []
    for v in range(graph.n):
        nbrs = graph.neighbors(v)
        for i in range(nbrs.size):
            a = int(nbrs[i])
            rest = nbrs[i + 1 :]
            if rest.size == 0:
                continue
            # Non-adjacent pairs (a, b) of neighbors of v form open triads.
            adj = np.isin(rest, graph.neighbors(a), assume_unique=True)
            for b in rest[~adj]:
                rows.append((v, a, int(b)))
    out = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return out
