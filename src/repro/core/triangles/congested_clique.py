"""Triangle enumeration in the congested clique (``k = n``).

The congested clique is the special case of the k-machine model where
every machine hosts exactly one vertex and knows its incident edges.
Corollary 1 shows a ``Ω(n^{1/3}/B)`` lower bound there; the matching
upper bound is Dolev-Lenzen-Peled's TriPartition, whose k-machine
generalization is exactly the Theorem-5 algorithm.  We therefore run the
Theorem-5 machinery with ``k = n``, the identity partition, and the proxy
stage playing the role of Lenzen's load-balancing routing (randomized
instead of deterministic — the whp guarantees match the model's).

Because the family delegates to
:func:`~repro.core.triangles.distributed.enumerate_triangles_distributed`,
its per-machine compute — the proxy draws and the Phase-3 local
enumeration — runs through the same superstep kernels
on every execution backend (one worker task per clique node's machine
on the process engine).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph
from repro.kmachine.engine import DEFAULT_ENGINE
from repro.kmachine.partition import VertexPartition
from repro.core.triangles.distributed import enumerate_triangles_distributed
from repro.core.triangles.result import TriangleResult

__all__ = ["enumerate_triangles_congested_clique", "identity_partition"]


def identity_partition(n: int) -> VertexPartition:
    """The congested-clique placement: machine ``v`` hosts vertex ``v``."""
    return VertexPartition(home=np.arange(n, dtype=np.int64), k=n)


def enumerate_triangles_congested_clique(
    graph: Graph,
    seed: int | None = None,
    bandwidth: int | None = None,
    cluster: Cluster | None = None,
    partition: VertexPartition | None = None,
    engine: str = DEFAULT_ENGINE,
    distgraph: DistributedGraph | None = None,
) -> TriangleResult:
    """Enumerate all triangles with ``n`` machines, one vertex each.

    Parameters
    ----------
    graph:
        Undirected input graph with ``n >= 2`` vertices.
    bandwidth:
        Link bandwidth; defaults to ``Θ(polylog n)`` as in the k-machine
        runs, so measured rounds are comparable to
        :func:`~repro.core.lowerbounds.triangles.congested_clique_lower_bound`.
    cluster / partition / engine / distgraph:
        Registry plumbing (see :func:`repro.runtime.run`): an explicit
        cluster must have ``k = n`` machines, and the placement must be
        the identity partition of the clique model.
    """
    if graph.directed:
        raise AlgorithmError("triangle enumeration expects an undirected graph")
    n = graph.n
    if n < 2:
        raise AlgorithmError(f"the congested clique needs n >= 2, got n={n}")
    if cluster is None:
        cluster = Cluster(k=n, n=n, bandwidth=bandwidth, seed=seed, engine=engine)
    elif cluster.k != n:
        raise AlgorithmError(
            f"the congested clique needs one machine per vertex (k={n}), "
            f"got a cluster with k={cluster.k}"
        )
    if partition is None and distgraph is None:
        partition = identity_partition(n)
    check = distgraph.partition if distgraph is not None else partition
    if check is not None and not np.array_equal(
        check.home, np.arange(n, dtype=np.int64)
    ):
        raise AlgorithmError(
            "the congested clique hosts vertex v on machine v; pass the "
            "identity partition (or none)"
        )
    return enumerate_triangles_distributed(
        graph,
        k=n,
        cluster=cluster,
        partition=partition,
        distgraph=distgraph,
        use_proxies=True,
    )
