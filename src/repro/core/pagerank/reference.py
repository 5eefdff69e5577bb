"""Exact sequential PageRank references.

:func:`pagerank_walk_series` is the random-walk-with-reset measure the
paper (and Das Sarma et al.) estimate:
``pi(v) = (eps/n) * sum_u sum_{j>=0} (1-eps)^j P^j[u, v]`` with ``P`` the
out-edge transition matrix and *absorbing* dangling vertices (a token at
an out-degree-0 vertex terminates).  This matches Lemma 4's closed forms
on the Figure-1 graph exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmError
from repro.graphs.graph import Graph

__all__ = ["pagerank_walk_series", "push_step"]


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise AlgorithmError(f"reset probability must lie in (0, 1), got {eps}")


def push_step(graph: Graph, x: np.ndarray) -> np.ndarray:
    """One transition step ``y = x^T P`` along out-edges (vectorized CSR push).

    Dangling vertices (out-degree 0) contribute nothing: their mass is
    absorbed, matching the token semantics of Algorithm 1.
    """
    outdeg = graph.out_degrees()
    y = np.zeros(graph.n, dtype=np.float64)
    nz = outdeg > 0
    if not np.any(nz):
        return y
    share = np.zeros(graph.n, dtype=np.float64)
    share[nz] = x[nz] / outdeg[nz]
    contrib = np.repeat(share, outdeg)
    np.add.at(y, graph.indices, contrib)
    return y


def pagerank_walk_series(
    graph: Graph,
    eps: float = 0.15,
    tol: float = 1e-12,
    max_terms: int = 10_000,
    sources: np.ndarray | None = None,
) -> np.ndarray:
    """Walk-series PageRank with absorbing dangling vertices.

    Sums ``(eps/|S|) * 1_S^T ((1-eps) P)^j`` until the remaining mass is
    below ``tol``, where ``S`` is the source set (all vertices by default;
    pass ``sources`` for *personalized* PageRank).  The result sums to at
    most 1 (strictly less in the presence of dangling vertices, where walk
    mass is absorbed before reset).
    """
    _check_eps(eps)
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    beta = 1.0 - eps
    if sources is None:
        x = np.ones(n, dtype=np.float64)
        num_sources = n
    else:
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0 or sources.min() < 0 or sources.max() >= n:
            raise AlgorithmError("sources must be a non-empty array of vertex ids")
        x = np.zeros(n, dtype=np.float64)
        np.add.at(x, sources, 1.0)
        num_sources = int(sources.size)
    acc = x.copy()
    for _ in range(max_terms):
        x = beta * push_step(graph, x)
        acc += x
        if x.sum() < tol:
            break
    else:
        raise AlgorithmError(f"walk series did not converge within {max_terms} terms")
    return eps * acc / num_sources
