"""Connected components via proxy-Borůvka with unit weights.

The family runs the same accounted driver as :func:`distributed_mst`
(:func:`~repro.core.mst.distributed.boruvka_forest`), so its per-machine
superstep compute — the local Borůvka component scans — runs through
the same :func:`~repro.core.mst.distributed._mwoe_scan_task`
``map_machines`` kernel on every execution backend.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.kmachine.engine import DEFAULT_ENGINE
from repro.kmachine.partition import VertexPartition
from repro.core.connectivity.result import ConnectivityResult
from repro.core.mst.distributed import boruvka_forest

__all__ = ["connected_components_distributed", "ConnectivityResult"]


def connected_components_distributed(
    graph: Graph,
    k: int,
    seed: int | None = None,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
    engine: str = DEFAULT_ENGINE,
    cluster=None,
    distgraph=None,
) -> ConnectivityResult:
    """Compute connected components of ``graph`` with ``k`` machines.

    Runs proxy-Borůvka with unit edge weights (ties broken by edge index,
    so the rank order is the index order and no weights are passed),
    then renames the final Borůvka labels to canonical ones — free local
    post-processing once every machine knows the final component labels
    (which the Borůvka label-refresh flow already delivers and accounts).
    """
    if graph.directed:
        raise AlgorithmError("connectivity is defined on undirected graphs here")
    forest, labels, _, metrics = boruvka_forest(
        graph,
        None,
        k=k,
        seed=seed,
        bandwidth=bandwidth,
        partition=partition,
        engine=engine,
        cluster=cluster,
        distgraph=distgraph,
    )
    # Canonicalize each Borůvka root label to its first, i.e. smallest, vertex.
    n = labels.size
    first = np.full(n, n, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n))
    return ConnectivityResult(
        labels=first[labels],
        num_components=int(np.count_nonzero(first < n)),
        spanning_forest=graph.edges[forest],
        metrics=metrics,
    )
