"""The prior ``Õ(n/k)`` PageRank baseline (Klauck et al., SODA 2015).

This is the Conversion-Theorem-style execution of the CONGEST random-walk
algorithm: in every iteration the walk counts travel *per graph edge* — a
``<count, (u, v)>`` message for every edge (u, v) that carries tokens —
with no cross-source aggregation and no heavy-vertex machinery.  A machine
hosting a high-in-degree vertex (the star center; the sink ``w`` of the
Figure-1 graph) must then receive ``Θ(n)`` distinct messages per iteration
over its ``k - 1`` links, which is exactly the ``Ω̃(n/k)`` congestion the
paper's §3.1 identifies and Algorithm 1 removes.

Statistically the estimator is identical to Algorithm 1 (same walk
process, same ``ψ`` counts); only the communication pattern differs.
It is the package's one Conversion-Theorem PageRank: T4 in
``benchmarks/paper_tables.py`` carries the §1.3 comparison against
Algorithm 1 (formerly the separate X3 experiment).
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_positive_int
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.kmachine import encoding
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph, resolve_distgraph
from repro.kmachine.engine import DEFAULT_ENGINE, MessageBatch
from repro.kmachine.partition import VertexPartition
from repro.core.pagerank.result import IterationStats, PageRankResult, close_iteration
from repro.core.pagerank.tokens import terminate_tokens

__all__ = ["baseline_pagerank"]


def baseline_pagerank(
    graph: Graph,
    k: int,
    eps: float = 0.15,
    seed: int | None = None,
    c: float = 16.0,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
    cluster: Cluster | None = None,
    max_iterations: int | None = None,
    engine: str = DEFAULT_ENGINE,
    distgraph: DistributedGraph | None = None,
) -> PageRankResult:
    """Run the per-edge-forwarding baseline (see module docstring)."""
    check_positive_int(k, "k")
    if not (0.0 < eps < 1.0):
        raise AlgorithmError(f"eps must lie in (0, 1), got {eps}")
    n = graph.n
    if n == 0:
        raise AlgorithmError("cannot compute PageRank of the empty graph")
    if cluster is None:
        cluster = Cluster(k=k, n=n, bandwidth=bandwidth, seed=seed, engine=engine)
    elif cluster.k != k:
        raise AlgorithmError(f"cluster has k={cluster.k}, expected {k}")
    dg = resolve_distgraph(graph, k, cluster.shared_rng, partition, distgraph)
    home = dg.home
    parts = dg.parts
    indptr, indices = graph.indptr, graph.indices
    t0 = max(1, math.ceil(c * math.log2(max(2, n))))
    if max_iterations is None:
        max_iterations = max(1, math.ceil(4.0 * math.log(max(2, n * t0)) / eps))

    ebits = encoding.edge_bits(n)
    tokens = np.full(n, t0, dtype=np.int64)
    psi = np.full(n, t0, dtype=np.int64)
    stats: list[IterationStats] = []

    for it in range(max_iterations):
        incoming = np.zeros(n, dtype=np.int64)
        edge_src: list[np.ndarray] = []
        edge_rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        for i in range(cluster.k):
            rng = cluster.machine_rngs[i]
            verts = parts[i]
            active = verts[tokens[verts] > 0]
            if active.size == 0:
                continue
            tokens[active] = terminate_tokens(tokens[active], eps, rng)
            active = active[tokens[active] > 0]
            if active.size == 0:
                continue
            deg = indptr[active + 1] - indptr[active]
            tokens[active[deg == 0]] = 0
            active, deg = active[deg > 0], deg[deg > 0]
            if active.size == 0:
                continue

            # Per-token uniform neighbor choice, then aggregate per *edge*
            # (u, v) — the CONGEST message granularity.
            counts = tokens[active]
            tokens[active] = 0
            src_rep = np.repeat(active, counts)
            deg_rep = np.repeat(deg, counts)
            offs = rng.integers(0, deg_rep)
            dst = indices[np.repeat(indptr[active], counts) + offs]
            pair_keys = src_rep * n + dst
            uniq, pair_counts = np.unique(pair_keys, return_counts=True)
            pu, pv = uniq // n, uniq % n

            local_mask = home[pv] == i
            if np.any(local_mask):
                np.add.at(incoming, pv[local_mask], pair_counts[local_mask])
            ru, rv, rc = pu[~local_mask], pv[~local_mask], pair_counts[~local_mask]
            if ru.size:
                edge_src.append(np.full(ru.size, i, dtype=np.int64))
                edge_rows.append((ru, rv, rc))

        if edge_rows:
            bu = np.concatenate([u for u, _, _ in edge_rows])
            bv = np.concatenate([v for _, v, _ in edge_rows])
            bc = np.concatenate([c_ for _, _, c_ in edge_rows])
            bsrc = np.concatenate(edge_src)
        else:
            bu = bv = bc = bsrc = np.zeros(0, dtype=np.int64)
        (edges_in,) = cluster.exchange_batches(
            [
                MessageBatch(
                    kind="pr-edge",
                    src=bsrc,
                    dst=home[bv],
                    bits=ebits + encoding.count_bits_array(bc),
                    columns={"u": bu, "v": bv, "count": bc},
                )
            ],
            label=f"pagerank-baseline/tokens/{it}",
        )
        np.add.at(incoming, edges_in.columns["v"], edges_in.columns["count"])

        tokens += incoming
        psi += incoming
        live = int(tokens.sum())
        stats.append(close_iteration(
            cluster, it, live,
            "pagerank-baseline/control/report", "pagerank-baseline/control/verdict",
        ))
        if live == 0:
            break

    estimates = eps * psi.astype(np.float64) / (n * t0)
    return PageRankResult(
        estimates=estimates,
        metrics=cluster.metrics,
        iterations=len(stats),
        tokens_per_vertex=t0,
        eps=eps,
        iteration_stats=stats,
    )
