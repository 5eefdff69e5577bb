"""A lightweight CSR graph used throughout the reproduction.

Undirected graphs store each edge in both adjacency lists; directed graphs
store out-adjacency.  Vertices are integers
``0 .. n-1``; the lower-bound constructions layer random public ids on top
(see :mod:`repro.graphs.lowerbound`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import GraphError

__all__ = ["Graph"]


class Graph:
    """Compressed-sparse-row graph.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        ``(m, 2)`` integer array (or iterable of pairs).  For undirected
        graphs each pair is one undirected edge; duplicates (including
        reversed duplicates) and self-loops are rejected.
    directed:
        Whether edges are directed ``u -> v``.
    """

    __slots__ = (
        "n",
        "directed",
        "_edges",
        "indptr",
        "indices",
        "content_key",
        "__weakref__",
    )

    def __init__(self, n: int, edges: Iterable | np.ndarray = (), directed: bool = False) -> None:
        if n < 0:
            raise GraphError(f"n must be non-negative, got {n}")
        self.n = int(n)
        self.directed = bool(directed)
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError(f"edges must have shape (m, 2), got {edges.shape}")
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n:
                raise GraphError("edge endpoints out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise GraphError("self-loops are not allowed")
        if not self.directed and edges.size:
            # Canonicalize undirected edges as (min, max) and reject duplicates.
            edges = np.sort(edges, axis=1)
        if edges.size:
            keys = edges[:, 0] * self.n + edges[:, 1]
            if np.unique(keys).size != keys.size:
                raise GraphError("duplicate edges are not allowed")
            order = np.argsort(keys, kind="stable")
            edges = edges[order]
        self._edges = edges
        self.indptr, self.indices = self._build_csr(edges)
        #: Optional content-address of this graph (set by the workload layer
        #: for dataset-spec-built graphs): the graph cache's and the result
        #: cache's key.  ``None`` for ad-hoc graphs.
        self.content_key: str | None = None

    # ------------------------------------------------------------------
    def _build_csr(self, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.n
        if self.directed:
            src, dst = edges[:, 0], edges[:, 1]
        else:
            src = np.concatenate([edges[:, 0], edges[:, 1]])
            dst = np.concatenate([edges[:, 1], edges[:, 0]])
        counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if src.size:
            # Lexsort by (src, dst) so every neighbor list comes out sorted.
            order = np.lexsort((dst, src))
            indices = dst[order]
        else:
            indices = np.zeros(0, dtype=np.int64)
        return indptr, indices

    # ------------------------------------------------------------------
    @classmethod
    def from_canonical_edges(
        cls, n: int, edges: np.ndarray, directed: bool = False
    ) -> "Graph":
        """Trusted constructor from an already-canonical edge array.

        ``edges`` must be exactly what :attr:`edges` would hold: sorted by
        ``(u, v)`` key, undirected rows as ``(min, max)``, no self-loops or
        duplicates.  The scalable workload generators produce this order
        for free (their dedup key sort *is* the canonical sort), and this
        path builds the CSR without re-validating or re-sorting the edge
        array — for undirected graphs via an ``O(m)`` merge of the two
        edge directions (one 1-column argsort) instead of the regular
        constructor's 2-column lexsort over ``2m`` entries.
        """
        g = object.__new__(cls)
        g.n = int(n)
        g.directed = bool(directed)
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        g._edges = edges
        if directed or edges.size == 0:
            g.indptr, g.indices = g._build_csr(edges)
        else:
            lo, hi = edges[:, 0], edges[:, 1]
            counts_fwd = np.bincount(lo, minlength=g.n)
            counts_rev = np.bincount(hi, minlength=g.n)
            indptr = np.zeros(g.n + 1, dtype=np.int64)
            np.cumsum(counts_fwd + counts_rev, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=np.int64)
            m = edges.shape[0]
            # Vertex s's sorted adjacency = neighbors < s (reverse
            # direction, ordered by (hi, lo)) then neighbors > s (forward
            # direction, already in canonical (lo, hi) order): scatter
            # both streams with grouped aranges — no lexsort.
            rev_order = np.argsort(hi * np.int64(g.n) + lo)
            base = indptr[:-1]
            cum_rev = np.zeros(g.n + 1, dtype=np.int64)
            np.cumsum(counts_rev, out=cum_rev[1:])
            within_rev = np.arange(m, dtype=np.int64) - np.repeat(cum_rev[:-1], counts_rev)
            indices[np.repeat(base, counts_rev) + within_rev] = lo[rev_order]
            cum_fwd = np.zeros(g.n + 1, dtype=np.int64)
            np.cumsum(counts_fwd, out=cum_fwd[1:])
            within_fwd = np.arange(m, dtype=np.int64) - np.repeat(cum_fwd[:-1], counts_fwd)
            indices[np.repeat(base + counts_rev, counts_fwd) + within_fwd] = hi
            g.indptr, g.indices = indptr, indices
        g.content_key = None
        return g

    # ------------------------------------------------------------------
    @classmethod
    def from_canonical(
        cls,
        n: int,
        edges: np.ndarray,
        directed: bool,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "Graph":
        """Trusted fast-path constructor from already-canonical CSR parts.

        Used by the workload snapshot loader: ``edges`` must be the
        canonical edge array the regular constructor would produce (sorted
        by ``(u, v)`` key, undirected rows as ``(min, max)``, no
        self-loops/duplicates) and ``indptr``/``indices`` the matching CSR.
        Only cheap structural sanity is checked — full validation is the
        regular constructor's job at snapshot-write time.
        """
        g = object.__new__(cls)
        g.n = int(n)
        g.directed = bool(directed)
        edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.shape != (g.n + 1,) or int(indptr[-1]) != indices.size:
            raise GraphError("CSR parts are inconsistent with n")
        expected = edges.shape[0] if directed else 2 * edges.shape[0]
        if indices.size != expected:
            raise GraphError("CSR indices do not match the edge array")
        g._edges = edges
        g.indptr = indptr
        g.indices = indices
        g.content_key = None
        return g

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of edges (undirected edges counted once)."""
        return int(self._edges.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """``(m, 2)`` canonical edge array (sorted; undirected as (min, max))."""
        return self._edges

    def out_degrees(self) -> np.ndarray:
        """``(n,)`` out-degree array (degree, if undirected)."""
        return np.diff(self.indptr)

    def degrees(self) -> np.ndarray:
        """``(n,)`` degree array; for directed graphs, in+out degree."""
        if not self.directed:
            return self.out_degrees()
        return self.out_degrees() + np.bincount(self._edges[:, 1], minlength=self.n)

    def subgraph_edges(self, vertices: np.ndarray) -> np.ndarray:
        """Edges of the induced subgraph on ``vertices`` (as global ids)."""
        mask = np.zeros(self.n, dtype=bool)
        mask[np.asarray(vertices, dtype=np.int64)] = True
        e = self._edges
        keep = mask[e[:, 0]] & mask[e[:, 1]]
        return e[keep]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "DiGraph" if self.directed else "Graph"
        return f"<repro.{kind} n={self.n} m={self.m}>"
