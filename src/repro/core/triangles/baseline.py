"""Prior-work baselines for triangle enumeration.

* :func:`enumerate_triangles_conversion` — the ``Õ(n^{7/3}/k²)`` bound of
  Klauck et al. (SODA 2015), obtained by simulating the congested-clique
  TriPartition at *vertex granularity* through the Conversion Theorem:
  every one of the ``n`` simulated clique nodes ships each of its edges to
  the ``n^{1/3}`` clique-triplet nodes that need it, and each clique
  message ``w -> w'`` travels the machine link ``home(w) -> home(w')``.
  Total traffic is ``Θ(m n^{1/3})`` messages with random endpoints, i.e.
  ``Õ(m n^{1/3} / k²) = Õ(n^{7/3}/k²)`` rounds on dense graphs — a factor
  ``k^{1/3}`` worse than Theorem 5 because the clique algorithm spreads
  work over ``n`` virtual nodes instead of ``k`` real machines.

* :func:`enumerate_triangles_broadcast` — gather-everything: every machine
  broadcasts its edges to all machines; ``Õ(m)`` bits per link, i.e.
  ``Õ(m/B)`` rounds, with every triangle then found locally.  The naive
  strawman included for scale in the benches.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.triangles_ref import enumerate_triangles_edges
from repro.kmachine import encoding
from repro.kmachine.cluster import Cluster
from repro.kmachine.engine import DEFAULT_ENGINE
from repro.kmachine.partition import VertexPartition, random_vertex_partition
from repro.core.triangles.colors import machines_needing_edge_array, num_colors, owner_keys
from repro.core.triangles.result import TriangleResult

__all__ = ["enumerate_triangles_conversion", "enumerate_triangles_broadcast"]


def _enumerate_clique_nodes_task(
    ctx, machine: int, rng, node_chunks, n: int, colors: np.ndarray, q: int
):
    """Superstep kernel: enumerate the clique nodes one machine simulates.

    ``node_chunks`` is the machine's ``[(clique_node, edge_rows), ...]``
    in ascending node order — every node homed on the machine that
    received edge copies.  Each node enumerates its received edge set
    and keeps the triangles whose color multiset ranks to it, exactly
    the per-node loop of the direct implementation.  Runs with
    ``ctx=None`` (the conversion baseline has no distgraph), hence the
    explicit ``n``.  Returns ``(triangles_or_None, count)``.
    """
    rows: list[np.ndarray] = []
    count = 0
    for node, chunk in node_chunks:
        tris = enumerate_triangles_edges(n, chunk)
        mine = tris[owner_keys(colors[tris], q) == node]
        if mine.size:
            rows.append(mine)
            count += mine.shape[0]
    if not rows:
        return None, 0
    return np.concatenate(rows, axis=0), count


def enumerate_triangles_conversion(
    graph: Graph,
    k: int,
    seed: int | None = None,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
    cluster: Cluster | None = None,
    engine: str = DEFAULT_ENGINE,
) -> TriangleResult:
    """Simulate clique TriPartition at vertex granularity (see module doc).

    The ``n`` clique nodes use ``q_n = floor(n^{1/3})`` colors; clique node
    ``w`` is simulated by machine ``home(w)``.  Edge copies whose simulated
    source and target nodes share a machine are free; all others cross the
    corresponding machine link.  Loads are accounted exactly; the edge
    copies are grouped per simulated target node for local enumeration.
    ``cluster`` / ``engine`` are registry plumbing (replay is aggregate-
    only, so every backend charges identical rounds).
    """
    if graph.directed:
        raise AlgorithmError("triangle enumeration expects an undirected graph")
    check_positive_int(k, "k")
    n = graph.n
    if n < 2:
        raise AlgorithmError(f"need n >= 2, got n={n}")
    if cluster is None:
        cluster = Cluster(k=k, n=n, bandwidth=bandwidth, seed=seed, engine=engine)
    elif cluster.k != k:
        raise AlgorithmError(f"cluster has k={cluster.k}, expected {k}")
    if partition is None:
        partition = random_vertex_partition(n, k, seed=cluster.shared_rng)
    elif partition.n != n or partition.k != k:
        raise AlgorithmError("partition does not match the graph/cluster")
    home = partition.home

    q = num_colors(n, 3)
    colors = (np.arange(n, dtype=np.int64) % q)  # deterministic clique coloring
    edges = graph.edges
    m = edges.shape[0]

    per_machine = np.zeros(k, dtype=np.int64)
    if m == 0:
        return TriangleResult(
            triangles=np.zeros((0, 3), dtype=np.int64),
            metrics=cluster.metrics,
            per_machine_output=per_machine,
            num_colors=q,
        )

    # Each edge is shipped by its lower endpoint (which knows it in the
    # clique model) to the q sorted-triplet clique nodes that need it.
    target_nodes = machines_needing_edge_array(colors[edges[:, 0]], colors[edges[:, 1]], q, 3)
    # Triplet ranks < q³ <= n are valid clique-node ids.
    flat_targets = target_nodes.ravel()
    flat_sources = np.repeat(edges[:, 0], q)
    flat_edges = np.repeat(edges, q, axis=0)

    src_machine = home[flat_sources]
    dst_machine = home[flat_targets]
    remote = src_machine != dst_machine
    ebits = encoding.edge_message_bits(n)
    bits = np.zeros((k, k), dtype=np.int64)
    msgs = np.zeros((k, k), dtype=np.int64)
    np.add.at(msgs, (src_machine[remote], dst_machine[remote]), 1)
    np.add.at(bits, (src_machine[remote], dst_machine[remote]), ebits)
    cluster.account_phase(
        bits, msgs, label="triangles-conversion/scatter", local_messages=int((~remote).sum())
    )

    # Local enumeration per simulated clique node, grouped by the home
    # machine that simulates it and dispatched as a superstep kernel
    # (``distgraph=None``: the conversion baseline never materializes
    # shards); output filtered to the node's color multiset so each
    # triangle appears exactly once.
    order = np.argsort(flat_targets, kind="stable")
    ft, fe = flat_targets[order], flat_edges[order]
    boundaries = np.flatnonzero(np.diff(ft)) + 1
    starts = np.concatenate([[0], boundaries])
    payloads: list[list] = [[] for _ in range(k)]
    for s, chunk in zip(starts, np.split(fe, boundaries)):
        if chunk.shape[0]:
            node = int(ft[s])
            payloads[int(home[node])].append((node, chunk))
    outs = cluster.map_machines(
        _enumerate_clique_nodes_task,
        None,
        payloads,
        common={"n": n, "colors": colors, "q": q},
    )
    all_tris: list[np.ndarray] = []
    for j, (mine, count) in enumerate(outs):
        if mine is not None:
            all_tris.append(mine)
        per_machine[j] += count

    if all_tris:
        triangles = np.concatenate(all_tris, axis=0)
        order = np.lexsort((triangles[:, 2], triangles[:, 1], triangles[:, 0]))
        triangles = triangles[order]
    else:
        triangles = np.zeros((0, 3), dtype=np.int64)
    return TriangleResult(
        triangles=triangles,
        metrics=cluster.metrics,
        per_machine_output=per_machine,
        num_colors=q,
    )


def enumerate_triangles_broadcast(
    graph: Graph,
    k: int,
    seed: int | None = None,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
) -> TriangleResult:
    """Gather-everything baseline: all edges broadcast to every machine.

    Each machine then knows the whole graph; machine 0 outputs the
    enumeration (any deterministic tie-break works).  Link loads are
    ``Θ(m_i)`` bits per outgoing link, so rounds are ``Θ̃(max_i m_i / B) =
    Θ̃(m/(kB) + Δ/B)`` — linear in ``m/k`` instead of Theorem 5's
    ``m/k^{5/3}``.
    """
    if graph.directed:
        raise AlgorithmError("triangle enumeration expects an undirected graph")
    check_positive_int(k, "k")
    n = graph.n
    cluster = Cluster(k=k, n=n, bandwidth=bandwidth, seed=seed)
    if partition is None:
        partition = random_vertex_partition(n, k, seed=cluster.shared_rng)
    elif partition.n != n or partition.k != k:
        raise AlgorithmError("partition does not match the graph/cluster")
    home = partition.home
    edges = graph.edges

    # Each edge is broadcast by the home of its lower endpoint (the other
    # home machine stays silent to avoid duplicates).  Nothing is
    # delivered — every machine then holds the whole edge list — so the
    # phase is its link loads alone: machine i's m_i edge messages on
    # each of its k - 1 outgoing links.
    sent = np.bincount(home[edges[:, 0]], minlength=k)
    msgs = np.repeat(sent[:, None], k, axis=1)
    np.fill_diagonal(msgs, 0)
    cluster.account_phase(
        msgs * encoding.edge_message_bits(n), msgs, label="triangles-broadcast/scatter"
    )

    tris = enumerate_triangles_edges(n, edges)
    per_machine = np.zeros(k, dtype=np.int64)
    per_machine[0] = tris.shape[0]
    return TriangleResult(
        triangles=tris,
        metrics=cluster.metrics,
        per_machine_output=per_machine,
        num_colors=0,
    )
