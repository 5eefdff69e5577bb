"""Synthetic graph generators used as workloads.

The paper's lower-bound instances are synthetic (`G(n, 1/2)` for triangle
enumeration, the Figure-1 graph for PageRank); its upper bounds hold for
arbitrary graphs.  These generators cover both plus stress shapes (stars,
heavy-tailed degree graphs) that exercise the heavy-vertex code paths of
Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.errors import GraphError
from repro.graphs.graph import Graph

__all__ = [
    "gnp_random_graph",
    "complete_graph",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "empty_graph",
    "planted_triangles_graph",
    "chung_lu_graph",
    "random_regularish_graph",
    "grid_graph",
    "barbell_graph",
    "random_bipartite_graph",
]


def _pairs_upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All (u, v) with u < v, as two aligned index arrays."""
    iu = np.triu_indices(n, k=1)
    return iu[0].astype(np.int64), iu[1].astype(np.int64)


def gnp_random_graph(
    n: int,
    p: float,
    seed: int | np.random.Generator | None = None,
    directed: bool = False,
) -> Graph:
    """Erdős–Rényi ``G(n, p)``: every (ordered, if directed) pair is an edge
    independently with probability ``p``.  ``G(n, 1/2)`` is the paper's
    triangle-lower-bound input distribution (§2.4)."""
    check_positive_int(n, "n")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"p must lie in [0, 1], got {p}")
    rng = as_rng(seed)
    if directed:
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        src, dst = np.nonzero(mask)
        edges = np.column_stack([src, dst]).astype(np.int64)
    else:
        u, v = _pairs_upper(n)
        keep = rng.random(u.size) < p
        edges = np.column_stack([u[keep], v[keep]])
    return Graph(n=n, edges=edges, directed=directed)


def complete_graph(n: int, directed: bool = False) -> Graph:
    """``K_n`` (all pairs; both directions if directed)."""
    check_positive_int(n, "n")
    u, v = _pairs_upper(n)
    edges = np.column_stack([u, v])
    if directed:
        edges = np.concatenate([edges, edges[:, ::-1]], axis=0)
    return Graph(n=n, edges=edges, directed=directed)


def star_graph(n: int, center: int = 0) -> Graph:
    """An undirected star: ``center`` adjacent to all other vertices.

    The paper's motivating worst case for naive PageRank token delivery
    (§3.1: "in a star-like topology, the center vertex ... might need to
    receive n random walks")."""
    check_positive_int(n, "n")
    if not (0 <= center < n):
        raise GraphError(f"center {center} out of range [0, {n})")
    others = np.array([v for v in range(n) if v != center], dtype=np.int64)
    edges = np.column_stack([np.full(others.size, center, dtype=np.int64), others])
    return Graph(n=n, edges=edges, directed=False)


def path_graph(n: int, directed: bool = False) -> Graph:
    """A path ``0 - 1 - ... - (n-1)`` (directed: ``i -> i+1``)."""
    check_positive_int(n, "n")
    idx = np.arange(n - 1, dtype=np.int64)
    edges = np.column_stack([idx, idx + 1])
    return Graph(n=n, edges=edges, directed=directed)


def cycle_graph(n: int, directed: bool = False) -> Graph:
    """A cycle on ``n >= 3`` vertices."""
    check_positive_int(n, "n")
    if n < 3:
        raise GraphError(f"a cycle needs n >= 3, got {n}")
    idx = np.arange(n, dtype=np.int64)
    edges = np.column_stack([idx, (idx + 1) % n])
    if not directed:
        edges = np.sort(edges, axis=1)
    return Graph(n=n, edges=edges, directed=directed)


def empty_graph(n: int, directed: bool = False) -> Graph:
    """``n`` isolated vertices."""
    check_positive_int(n, "n")
    return Graph(n=n, edges=np.zeros((0, 2), dtype=np.int64), directed=directed)


def planted_triangles_graph(
    n: int,
    num_triangles: int,
    seed: int | np.random.Generator | None = None,
    noise_p: float = 0.0,
) -> Graph:
    """Disjoint planted triangles plus optional ``G(n, noise_p)`` noise.

    Exactly ``num_triangles`` vertex-disjoint triangles are planted on the
    first ``3 * num_triangles`` vertices (requires ``n >= 3*num_triangles``)
    before noise; with ``noise_p == 0`` the triangle count is exact, which
    tests use as ground truth.
    """
    check_positive_int(n, "n")
    if num_triangles < 0:
        raise GraphError(f"num_triangles must be non-negative, got {num_triangles}")
    if 3 * num_triangles > n:
        raise GraphError(f"need n >= 3*num_triangles, got n={n}, t={num_triangles}")
    base = 3 * np.arange(num_triangles, dtype=np.int64)
    tri_edges = np.concatenate(
        [
            np.column_stack([base, base + 1]),
            np.column_stack([base + 1, base + 2]),
            np.column_stack([base, base + 2]),
        ]
    ) if num_triangles else np.zeros((0, 2), dtype=np.int64)
    if noise_p > 0:
        rng = as_rng(seed)
        noise = gnp_random_graph(n, noise_p, seed=rng).edges
        all_edges = np.concatenate([tri_edges, noise])
        keys = all_edges[:, 0] * n + all_edges[:, 1]
        _, first = np.unique(keys, return_index=True)
        all_edges = all_edges[np.sort(first)]
    else:
        all_edges = tri_edges
    return Graph(n=n, edges=all_edges, directed=False)


def chung_lu_graph(
    n: int,
    exponent: float = 2.5,
    avg_degree: float = 8.0,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Chung–Lu graph with power-law expected degrees.

    Edge ``(u, v)`` appears with probability ``min(1, w_u w_v / W)`` where
    ``w_i ∝ i^{-1/(exponent-1)}``; produces heavy-tailed degrees (a few
    heavy vertices), the regime where Algorithm 1's heavy path and the
    triangle algorithm's proxy-assignment rule matter.
    """
    check_positive_int(n, "n")
    if exponent <= 1.0:
        raise GraphError(f"exponent must be > 1, got {exponent}")
    rng = as_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks ** (-1.0 / (exponent - 1.0))
    w *= avg_degree * n / w.sum()
    W = w.sum()
    u, v = _pairs_upper(n)
    prob = np.minimum(1.0, w[u] * w[v] / W)
    keep = rng.random(u.size) < prob
    return Graph(n=n, edges=np.column_stack([u[keep], v[keep]]), directed=False)


def grid_graph(rows: int, cols: int) -> Graph:
    """A ``rows x cols`` 2-D lattice (vertex ``(r, c)`` is ``r*cols + c``).

    Bounded-degree, high-diameter — the opposite regime from stars; random
    walks mix slowly, exercising many PageRank iterations.
    """
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    r = np.arange(rows, dtype=np.int64)
    c = np.arange(cols, dtype=np.int64)
    vid = (r[:, None] * cols + c[None, :]).ravel()
    grid = vid.reshape(rows, cols)
    horiz = np.column_stack([grid[:, :-1].ravel(), grid[:, 1:].ravel()]) if cols > 1 else np.zeros((0, 2), dtype=np.int64)
    vert = np.column_stack([grid[:-1, :].ravel(), grid[1:, :].ravel()]) if rows > 1 else np.zeros((0, 2), dtype=np.int64)
    return Graph(n=rows * cols, edges=np.concatenate([horiz, vert]), directed=False)


def barbell_graph(clique_size: int, bridge_length: int = 1) -> Graph:
    """Two ``K_{clique_size}`` cliques joined by a path of ``bridge_length`` edges.

    The classic random-walk bottleneck graph: triangle-dense at both ends,
    a communication choke point in the middle.
    """
    check_positive_int(clique_size, "clique_size")
    check_positive_int(bridge_length, "bridge_length")
    s = clique_size
    n = 2 * s + max(0, bridge_length - 1)
    u, v = _pairs_upper(s)
    left = np.column_stack([u, v])
    right = left + s
    # Path from vertex s-1 (in the left clique) to vertex s (in the right
    # clique) through bridge_length - 1 fresh vertices.
    chain = [s - 1] + list(range(2 * s, 2 * s + bridge_length - 1)) + [s]
    bridge = np.array(list(zip(chain[:-1], chain[1:])), dtype=np.int64)
    return Graph(n=n, edges=np.concatenate([left, right, bridge]), directed=False)


def random_bipartite_graph(
    n_left: int,
    n_right: int,
    p: float,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Bipartite ``G(n_left, n_right, p)``: left vertices ``0..n_left-1``.

    Triangle-free by construction; a zero-triangle control for the
    enumeration algorithms.
    """
    check_positive_int(n_left, "n_left")
    check_positive_int(n_right, "n_right")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"p must lie in [0, 1], got {p}")
    rng = as_rng(seed)
    mask = rng.random((n_left, n_right)) < p
    li, ri = np.nonzero(mask)
    edges = np.column_stack([li, ri + n_left]).astype(np.int64)
    return Graph(n=n_left + n_right, edges=edges, directed=False)


def random_regularish_graph(
    n: int,
    degree: int,
    seed: int | np.random.Generator | None = None,
) -> Graph:
    """Near-``degree``-regular graph via a configuration-model pairing.

    Self-loops and duplicate pairs from the pairing are dropped, so actual
    degrees are ≤ ``degree`` (equal for most vertices).  Used as a bounded-
    degree workload where PageRank's light path dominates.
    """
    check_positive_int(n, "n")
    check_positive_int(degree, "degree")
    if degree >= n:
        raise GraphError(f"degree must be < n, got degree={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise GraphError("n * degree must be even for a pairing")
    rng = as_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.sort(pairs, axis=1)
    keys = pairs[:, 0] * n + pairs[:, 1]
    _, first = np.unique(keys, return_index=True)
    return Graph(n=n, edges=pairs[np.sort(first)], directed=False)
