"""Exact sequential enumeration of 4-cliques and 4-cycles.

These are the per-machine local kernels of the distributed subgraph
algorithms and the reference oracles for tests.

* **K4**: extend each triangle ``a < b < c`` by the neighbours ``d > c``
  of ``c`` adjacent to ``a`` and ``b`` (binary searches over sorted edge
  keys); every 4-clique is reported once as a sorted 4-tuple.
* **C4**: enumerate by diagonals — a 4-cycle ``u - v1 - w - v2`` is
  determined by its diagonal pair ``{u, w}`` and two common neighbors
  ``{v1, v2}``; each cycle has exactly two diagonals, so keeping the
  occurrence only when ``min(u, w) < min(v1, v2)`` reports each cycle
  exactly once.  The common neighbors come from wedges ``u - c - w``
  (two neighbors of a centre ``c``) grouped by their endpoint pair, so
  the work is ``O(sum_c deg(c)^2)`` rather than one set intersection per
  vertex pair.  Rows are ``(v0, v1, v2, v3)`` meaning the cycle
  ``v0 - v1 - v2 - v3 - v0`` with ``v0`` the minimum vertex and
  ``v1 < v3`` its two cycle-neighbors.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.triangles_ref import enumerate_triangles_edges

__all__ = ["enumerate_k4_edges", "enumerate_c4_edges", "count_k4", "count_c4"]


def enumerate_k4_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """All 4-cliques of the undirected edge set, as sorted 4-tuples."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return np.zeros((0, 4), dtype=np.int64)
    edges = np.unique(np.sort(edges.reshape(-1, 2), axis=1), axis=0)
    tris = enumerate_triangles_edges(n, edges)
    # Extend each triangle a < b < c by the neighbours d > c of c that are
    # adjacent to a and b too: each K4 {a,b,c,d} with a<b<c<d is found
    # once, from its smallest triangle.  The sorted keys src·n + dst hold
    # c's neighbours above c in one run, and answer the (a, d), (b, d)
    # membership tests by binary search.
    keys = edges[:, 0] * n + edges[:, 1]
    c = tris[:, 2]
    lo, hi = np.searchsorted(keys, c * n + np.stack([c + 1, np.full_like(c, n)]))
    cnt = hi - lo
    row = np.repeat(np.arange(c.size), cnt)
    d = edges[np.arange(row.size) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt), 1]
    probe = np.concatenate([tris[row, 0] * n + d, tris[row, 1] * n + d])
    found = keys[np.minimum(np.searchsorted(keys, probe), keys.size - 1)] == probe
    return np.column_stack([tris[row], d])[found.reshape(2, -1).all(axis=0)]


def _later_pairs(end: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(p, q)`` with ``p < q < end[p]``, for every ``p`` where ``first[p]``.

    ``end[p]`` is the exclusive end of the sorted run holding position
    ``p``, so the pairs are those of two positions in one run.
    """
    p = np.flatnonzero(first)
    cnt = end[p] - p - 1
    lo = np.repeat(p, cnt)
    return lo, lo + 1 + np.arange(lo.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)


def enumerate_c4_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """All 4-cycles (as canonical rows, see module docstring)."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return np.zeros((0, 4), dtype=np.int64)
    edges = np.unique(np.sort(edges.reshape(-1, 2), axis=1), axis=0)
    # Both orientations, sorted by (centre, neighbor): each centre's run
    # of neighbors ascends, so a pair of its slots is a wedge u - c - w
    # with u < w.  Only wedges with u < c can carry a kept cycle (v0 = u
    # is below both of its cycle-neighbors).
    centre = np.concatenate([edges[:, 0], edges[:, 1]])
    nbr = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((nbr, centre))
    centre, nbr = centre[order], nbr[order]
    lo, hi = _later_pairs(np.searchsorted(centre, centre, side="right"), nbr < centre)
    u, w, c = nbr[lo], nbr[hi], centre[lo]
    # Group the wedges by their endpoint pair (u, w), centres ascending:
    # two centres v1 < v2 of one group close the cycle u - v1 - w - v2.
    order = np.lexsort((c, w, u))
    u, w, c = u[order], w[order], c[order]
    key = u * (int(edges.max()) + 1) + w
    lo, hi = _later_pairs(np.searchsorted(key, key, side="right"), np.ones(key.size, bool))
    out = np.column_stack([u[lo], c[lo], w[lo], c[hi]])
    order = np.lexsort((out[:, 3], out[:, 2], out[:, 1], out[:, 0]))
    return out[order]


def count_k4(graph: Graph) -> int:
    """Number of 4-cliques of an undirected :class:`Graph`."""
    if graph.directed:
        raise GraphError("clique enumeration is defined on undirected graphs")
    return int(enumerate_k4_edges(graph.n, graph.edges).shape[0])


def count_c4(graph: Graph) -> int:
    """Number of 4-cycles of an undirected :class:`Graph`."""
    if graph.directed:
        raise GraphError("cycle enumeration is defined on undirected graphs")
    return int(enumerate_c4_edges(graph.n, graph.edges).shape[0])
