"""Distributed enumeration of 4-cliques and 4-cycles (paper §1.2 remark).

The Theorem-5 machinery run with color 4-tuples instead of triplets:
``q = floor(k^{1/4})`` colors, machines own ordered 4-tuples, edges
travel through random proxies to the ``q(q+1)/2`` sorted-4-multiset
owners that contain both endpoint colors, and each owner enumerates and
outputs exactly the occurrences whose corner-color multiset equals its
tuple.  Correctness mirrors the triangle argument verbatim: every
4-vertex occurrence has some color multiset, that multiset is owned by
exactly one machine, and that machine receives every edge between its
color classes.

Phases 1–3 are the triangle family's
:func:`~repro.core.triangles.distributed.enumerate_color_tuples`; this
module adds only the validation, the color draw and the simple shipper
rule.  Occurrences are enumerated *non-induced* (a K4 contains three
C4s).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph, resolve_distgraph
from repro.kmachine.engine import DEFAULT_ENGINE
from repro.kmachine.partition import VertexPartition
from repro.core.triangles.colors import num_colors
from repro.core.triangles.distributed import enumerate_color_tuples
from repro.core.triangles.result import TriangleResult

__all__ = ["enumerate_subgraphs_distributed"]


def enumerate_subgraphs_distributed(
    graph: Graph,
    k: int,
    pattern: str = "k4",
    seed: int | None = None,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
    cluster: Cluster | None = None,
    use_proxies: bool = True,
    engine: str = DEFAULT_ENGINE,
    distgraph: DistributedGraph | None = None,
) -> TriangleResult:
    """Enumerate all (non-induced) K4s or C4s of ``graph`` with ``k`` machines.

    Parameters
    ----------
    pattern:
        ``"k4"`` (4-cliques) or ``"c4"`` (4-cycles).
    use_proxies:
        Ablation switch for the randomized edge-proxy stage, as in the
        triangle algorithm.

    Returns
    -------
    TriangleResult
        ``triangles`` holds the ``(t, 4)`` occurrence rows (the field name
        is shared with the triangle result for API uniformity);
        ``num_colors`` is ``q = floor(k^{1/4})``.
    """
    if pattern not in ("c4", "k4"):
        raise AlgorithmError(f"pattern must be one of ['c4', 'k4'], got {pattern!r}")
    if graph.directed:
        raise AlgorithmError("subgraph enumeration expects an undirected graph")
    check_positive_int(k, "k")
    n = graph.n
    if n == 0:
        raise AlgorithmError("empty graph")
    if cluster is None:
        cluster = Cluster(k=k, n=n, bandwidth=bandwidth, seed=seed, engine=engine)
    elif cluster.k != k:
        raise AlgorithmError(f"cluster has k={cluster.k}, expected {k}")
    dg = resolve_distgraph(graph, k, cluster.shared_rng, partition, distgraph)
    q = num_colors(k, 4)
    colors = cluster.shared_rng.integers(0, q, size=n)
    if graph.edges.shape[0] == 0:
        return TriangleResult(
            triangles=np.zeros((0, 4), dtype=np.int64),
            metrics=cluster.metrics,
            per_machine_output=np.zeros(k, dtype=np.int64),
            num_colors=q,
        )
    # Shipping responsibility: the home of the lower-id endpoint (the
    # degree-threshold refinement of the triangle algorithm matters only
    # for the constant; subgraph runs use the simple rule).
    return enumerate_color_tuples(
        cluster, dg, graph.edges, dg.edge_homes[0], colors, q, pattern,
        kind="sub",
        labels=(f"subgraphs-{pattern}/to-proxies", f"subgraphs-{pattern}/to-quads"),
        use_proxies=use_proxies,
    )
