"""Fixture graphs, graph accessors and scalar oracles the suite checks against.

No product path (a run, the CLI, the daemon, the paper tables) calls any
of these, so they live beside the tests rather than in ``src/repro``
(``tests/test_reachability.py`` holds the package to that).  Each keeps
the contract it had as library code: the same arguments, results and
errors.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations_with_replacement

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.core.pagerank.reference import _check_eps, push_step
from repro.core.subgraphs.local import enumerate_c4_edges, enumerate_k4_edges
from repro.errors import AlgorithmError, GraphError, PartitionError
from repro.graphs.graph import Graph
from repro.graphs.triangles_ref import count_triangles

# -- graph accessors ------------------------------------------------------


def _check_vertex(graph: Graph, v: int) -> None:
    if not (0 <= v < graph.n):
        raise GraphError(f"vertex {v} out of range [0, {graph.n})")


def out_neighbors(graph: Graph, v: int) -> np.ndarray:
    """Sorted out-neighbors of ``v`` (neighbors, if undirected)."""
    _check_vertex(graph, v)
    return graph.indices[graph.indptr[v] : graph.indptr[v + 1]]


def neighbors(graph: Graph, v: int) -> np.ndarray:
    """:func:`out_neighbors` of an undirected graph."""
    if graph.directed:
        raise GraphError("neighbors() is for undirected graphs; use out_neighbors/in_neighbors")
    return out_neighbors(graph, v)


def in_neighbors(graph: Graph, v: int) -> np.ndarray:
    """Sorted in-neighbors of ``v`` (neighbors, if undirected)."""
    _check_vertex(graph, v)
    if not graph.directed:
        return out_neighbors(graph, v)
    return np.sort(graph.edges[graph.edges[:, 1] == v, 0])


def in_degrees(graph: Graph) -> np.ndarray:
    """``(n,)`` in-degree array (degree, if undirected)."""
    if not graph.directed:
        return graph.out_degrees()
    return np.bincount(graph.edges[:, 1], minlength=graph.n)


def max_degree(graph: Graph) -> int:
    """Maximum degree Δ."""
    d = graph.degrees()
    return int(d.max()) if d.size else 0


def has_edge(graph: Graph, u: int, v: int) -> bool:
    """Membership test via binary search in the (out-)adjacency of ``u``."""
    _check_vertex(graph, v)
    nbrs = out_neighbors(graph, u)
    i = np.searchsorted(nbrs, v)
    return bool(i < nbrs.size and nbrs[i] == v)


def adjacency_matrix(graph: Graph) -> np.ndarray:
    """Dense boolean adjacency matrix."""
    a = np.zeros((graph.n, graph.n), dtype=bool)
    e = graph.edges
    if e.size:
        a[e[:, 0], e[:, 1]] = True
        if not graph.directed:
            a[e[:, 1], e[:, 0]] = True
    return a


def to_networkx(graph: Graph):
    """The graph as a networkx (Di)Graph."""
    import networkx as nx

    g = nx.DiGraph() if graph.directed else nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(map(tuple, graph.edges))
    return g


def from_networkx(g) -> Graph:
    """Build from a networkx (Di)Graph with nodes ``0..n-1``; self-loops raise."""
    import networkx as nx

    n = g.number_of_nodes()
    if sorted(g.nodes()) != list(range(n)):
        raise GraphError("from_networkx requires nodes labelled 0..n-1")
    loops = [u for u, v in g.edges() if u == v]
    if loops:
        raise GraphError(
            f"self-loops are not allowed (networkx graph has a self-loop at node {loops[0]})"
        )
    edges = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2)
    return Graph(n=n, edges=edges, directed=isinstance(g, nx.DiGraph))


# -- fixture graphs -------------------------------------------------------


def path_graph(n: int, directed: bool = False) -> Graph:
    """A path ``0 - 1 - ... - (n-1)`` (directed: ``i -> i+1``)."""
    check_positive_int(n, "n")
    idx = np.arange(n - 1, dtype=np.int64)
    return Graph(n=n, edges=np.column_stack([idx, idx + 1]), directed=directed)


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


def grid_graph(rows: int, cols: int) -> Graph:
    """A ``rows x cols`` 2-D lattice (vertex ``(r, c)`` is ``r*cols + c``)."""
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    grid = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    horiz = np.column_stack([grid[:, :-1].ravel(), grid[:, 1:].ravel()])
    vert = np.column_stack([grid[:-1, :].ravel(), grid[1:, :].ravel()])
    return Graph(n=rows * cols, edges=np.concatenate([horiz, vert]), directed=False)


def barbell_graph(clique_size: int, bridge_length: int = 1) -> Graph:
    """Two ``K_{clique_size}`` cliques joined by a path of ``bridge_length`` edges."""
    check_positive_int(clique_size, "clique_size")
    check_positive_int(bridge_length, "bridge_length")
    s = clique_size
    left = np.column_stack(np.triu_indices(s, k=1)).astype(np.int64)
    # Vertex s-1 (left clique) to vertex s (right clique) through
    # bridge_length - 1 fresh vertices.
    chain = [s - 1] + list(range(2 * s, 2 * s + bridge_length - 1)) + [s]
    bridge = np.array(list(zip(chain[:-1], chain[1:])), dtype=np.int64)
    return Graph(n=2 * s + bridge_length - 1, edges=np.concatenate([left, left + s, bridge]))


def random_bipartite_graph(n_left: int, n_right: int, p: float, seed=None) -> Graph:
    """Bipartite ``G(n_left, n_right, p)`` (left vertices ``0..n_left-1``): triangle-free."""
    check_positive_int(n_left, "n_left")
    check_positive_int(n_right, "n_right")
    if not (0.0 <= p <= 1.0):
        raise GraphError(f"p must lie in [0, 1], got {p}")
    li, ri = np.nonzero(as_rng(seed).random((n_left, n_right)) < p)
    edges = np.column_stack([li, ri + n_left]).astype(np.int64)
    return Graph(n=n_left + n_right, edges=edges, directed=False)


# -- counting oracles -----------------------------------------------------


def count_open_triads(graph: Graph) -> int:
    """Vertex triples with exactly two edges: ``sum_v C(deg v, 2) - 3 t``."""
    if graph.directed:
        raise GraphError("open triads are defined on undirected graphs")
    deg = graph.degrees().astype(np.int64)
    return int((deg * (deg - 1) // 2).sum()) - 3 * count_triangles(graph)


def enumerate_open_triads(graph: Graph, limit: int | None = None) -> np.ndarray:
    """Open triads as rows ``(center, a, b)`` with ``a < b`` non-adjacent.

    ``limit`` caps the number of rows (:class:`GraphError` past it).
    """
    if graph.directed:
        raise GraphError("open triads are defined on undirected graphs")
    total = count_open_triads(graph)
    if limit is not None and total > limit:
        raise GraphError(f"open-triad output ({total}) exceeds limit ({limit})")
    rows: list[tuple[int, int, int]] = []
    for v in range(graph.n):
        nbrs = neighbors(graph, v)
        for i in range(nbrs.size):
            a = int(nbrs[i])
            rest = nbrs[i + 1 :]
            adj = np.isin(rest, neighbors(graph, a), assume_unique=True)
            rows.extend((v, a, int(b)) for b in rest[~adj])
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def count_k4(graph: Graph) -> int:
    """Number of 4-cliques of an undirected graph."""
    if graph.directed:
        raise GraphError("clique enumeration is defined on undirected graphs")
    return int(enumerate_k4_edges(graph.n, graph.edges).shape[0])


def count_c4(graph: Graph) -> int:
    """Number of 4-cycles of an undirected graph."""
    if graph.directed:
        raise GraphError("cycle enumeration is defined on undirected graphs")
    return int(enumerate_c4_edges(graph.n, graph.edges).shape[0])


# -- scalar colour-tuple helpers (Theorem 5) ------------------------------


def machine_for_tuple(colors, q: int) -> int:
    """Machine owning the ordered color tuple: its rank in lex order."""
    machine = 0
    for x in colors:
        if not (0 <= x < q):
            raise AlgorithmError(f"color {x} out of range [0, {q})")
        machine = machine * q + x
    return machine


def tuple_for_machine(machine: int, q: int, r: int) -> tuple[int, ...]:
    """Inverse of :func:`machine_for_tuple` for machines ``< q^r``."""
    if not (0 <= machine < q**r):
        raise AlgorithmError(f"machine {machine} owns no color {r}-tuple (q={q})")
    digits = []
    for _ in range(r):
        machine, x = divmod(machine, q)
        digits.append(x)
    return tuple(reversed(digits))


def sorted_tuples(q: int, r: int) -> list[tuple[int, ...]]:
    """All sorted r-tuples ``(a <= b <= ...)`` — the canonical enumerators."""
    check_positive_int(q, "q")
    return list(combinations_with_replacement(range(q), r))


def machines_needing_edge(cu: int, cv: int, q: int, r: int) -> np.ndarray:
    """Owners of the sorted r-tuples whose multiset contains ``{cu, cv}``."""
    return np.array(
        [machine_for_tuple(sorted((cu, cv) + added), q)
         for added in combinations_with_replacement(range(q), r - 2)],
        dtype=np.int64,
    )


# -- PageRank -------------------------------------------------------------


def pagerank_teleport(graph: Graph, eps: float = 0.15, tol: float = 1e-12,
                      max_iter: int = 10_000) -> np.ndarray:
    """Classical PageRank: the Google matrix's stationary distribution.

    With probability ``eps`` the walk teleports to a uniform vertex; the
    mass of dangling vertices is redistributed uniformly.
    """
    _check_eps(eps)
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    dangling = graph.out_degrees() == 0
    pi = np.full(n, 1.0 / n, dtype=np.float64)
    for _ in range(max_iter):
        new = (1.0 - eps) * (push_step(graph, pi) + pi[dangling].sum() / n) + eps / n
        delta = np.abs(new - pi).sum()
        pi = new
        if delta < tol:
            return pi
    raise AlgorithmError(f"power iteration did not converge within {max_iter} iterations")


def linf_relative_error(result, reference: np.ndarray, floor: float = 1e-15) -> float:
    """``max_v |est(v) - ref(v)| / max(ref(v), floor)`` of a PageRank result."""
    ref = np.asarray(reference, dtype=np.float64)
    return float(np.max(np.abs(result.estimates - ref) / np.maximum(ref, floor)))


def value_b1_paper_bound(eps: float, n: int) -> float:
    """Lemma 4's stated lower bound for ``b_i = 1``: ``eps (3 - 3eps + eps²)/n``."""
    if not (0.0 < eps < 1.0):
        raise AlgorithmError(f"eps must lie in (0, 1), got {eps}")
    return eps * (3.0 - 3.0 * eps + eps**2) / n


# -- partitions, metrics and results --------------------------------------


def metrics_summary(metrics) -> dict:
    """Every counter of a :class:`~repro.kmachine.metrics.Metrics`, for equality checks."""
    return {
        "k": metrics.k, "bandwidth": metrics.bandwidth, "rounds": metrics.rounds,
        "phases": metrics.phases, "messages": metrics.messages, "bits": metrics.bits,
        "local_messages": metrics.local_messages,
        "sent_messages": metrics.sent_messages.tolist(),
        "received_messages": metrics.received_messages.tolist(),
        "sent_bits": metrics.sent_bits.tolist(),
        "received_bits": metrics.received_bits.tolist(),
        "phase_log": [dataclasses.asdict(p) for p in metrics.phase_log],
    }


def machine_items(partition, i: int) -> np.ndarray:
    """What machine ``i`` hosts: vertices of a vertex partition, edge indices of an edge one."""
    if not (0 <= i < partition.k):
        raise PartitionError(f"machine index {i} out of range [0, {partition.k})")
    return np.flatnonzero(partition.home == i)


def loads(partition) -> np.ndarray:
    """``(k,)`` items per machine of a vertex or edge partition."""
    return np.bincount(partition.home, minlength=partition.k)


def balance_ratio(partition) -> float:
    """``max load / (n/k)`` — the RVP guarantees ``Θ̃(1)`` whp."""
    if partition.n == 0:
        return 0.0
    return float(loads(partition).max()) / (partition.n / partition.k)


def is_balanced(partition, slack: float = 4.0) -> bool:
    """Whether every machine hosts at most ``slack * max(1, log2 n) * n/k`` vertices."""
    if partition.n == 0:
        return True
    bound = slack * max(1.0, np.log2(max(2, partition.n))) * partition.n / partition.k
    return bool(loads(partition).max() <= bound)


def pool_running(engine) -> bool:
    """Whether a process engine holds a live worker pool."""
    return engine.pool is not None and engine.pool.alive


def same_component(result, u: int, v: int) -> bool:
    """Whether a connectivity result puts ``u`` and ``v`` in one component."""
    return bool(result.labels[u] == result.labels[v])
