"""Distributed enumeration of 4-cliques and 4-cycles (paper §1.2 remark).

The Theorem-5 machinery generalized from color triplets to color
4-tuples: ``q = floor(k^{1/4})`` colors, machines own ordered 4-tuples,
edges travel through random proxies to the ``q(q+1)/2`` sorted-4-multiset
owners that contain both endpoint colors, and each owner enumerates and
outputs exactly the occurrences whose corner-color multiset equals its
tuple.  Correctness mirrors the triangle argument verbatim: every
4-vertex occurrence has some color multiset, that multiset is owned by
exactly one machine, and that machine receives every edge between its
color classes.

Occurrences are enumerated *non-induced* (a K4 contains three C4s).
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
from repro.core.subgraphs.colors4 import num_colors_for_machines_r4, quads_needing_edge_array
from repro.core.subgraphs.local import enumerate_c4_edges, enumerate_k4_edges
from repro.core.triangles.distributed import _draw_edge_proxies_task, _edge_batch
from repro.core.triangles.result import TriangleResult

__all__ = ["enumerate_subgraphs_distributed"]

_PATTERNS = {"k4": enumerate_k4_edges, "c4": enumerate_c4_edges}


def _enumerate_subgraphs_task(
    ctx, machine: int, rng, local_edges, colors: np.ndarray, q: int, pattern: str
):
    """Superstep kernel: Phase-3 local K4/C4 enumeration on one owner.

    The 4-tuple analogue of the triangle enumeration kernel: pure local
    compute over the machine's received edge set (``None`` when it
    received nothing), filtered to occurrences whose sorted color
    4-multiset ranks to ``machine``.  Returns the ``(t, 4)`` rows or
    ``None``.
    """
    if local_edges is None or local_edges.shape[0] == 0:
        return None
    rows = _PATTERNS[pattern](ctx.n, local_edges)
    if rows.size == 0:
        return None
    csort = np.sort(colors[rows], axis=1)
    key = ((csort[:, 0] * q + csort[:, 1]) * q + csort[:, 2]) * q + csort[:, 3]
    mine = rows[key == machine]
    return mine if mine.size else None


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
    if pattern not in _PATTERNS:
        raise AlgorithmError(f"pattern must be one of {sorted(_PATTERNS)}, got {pattern!r}")
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
    q = num_colors_for_machines_r4(k)
    colors = cluster.shared_rng.integers(0, q, size=n)
    edges = graph.edges
    m = edges.shape[0]
    per_machine = np.zeros(k, dtype=np.int64)

    if m == 0:
        return TriangleResult(
            triangles=np.zeros((0, 4), dtype=np.int64),
            metrics=cluster.metrics,
            per_machine_output=per_machine,
            num_colors=q,
        )

    # Shipping responsibility: the home of the lower-id endpoint (the
    # degree-threshold refinement of the triangle algorithm matters only
    # for the constant; subgraph runs reuse the simple rule).
    shipper = dg.edge_homes[0]

    # Phase 1 — edges to random proxies (the triangle family's proxy
    # draw kernel: one i.u.r. batch per shipping machine, on its own
    # stream, in machine order).
    if use_proxies:
        groups = dg.edges_by_shipper(shipper)
        draws = cluster.map_machines(
            _draw_edge_proxies_task, dg, [int(idx.size) for idx in groups]
        )
        proxy = np.empty(m, dtype=np.int64)
        for idx, drawn in zip(groups, draws):
            if idx.size:
                proxy[idx] = drawn
        remote = shipper != proxy
        cluster.exchange_batches(
            [_edge_batch(edges[remote], shipper[remote], proxy[remote], "sub-edge-proxy", n)],
            label=f"subgraphs-{pattern}/to-proxies",
        )
        holder = proxy
    else:
        holder = shipper

    # Phase 2 — proxies forward to every sorted-4-multiset owner.
    targets = quads_needing_edge_array(colors[edges[:, 0]], colors[edges[:, 1]], q)
    p = targets.shape[1]
    flat_src = np.repeat(holder, p)
    flat_dst = targets.ravel()
    flat_edges = np.repeat(edges, p, axis=0)
    received: list[list[np.ndarray]] = [[] for _ in range(k)]
    local = flat_src == flat_dst
    if np.any(local):
        ld, le = flat_dst[local], flat_edges[local]
        order = np.argsort(ld, kind="stable")
        ld, le = ld[order], le[order]
        boundaries = np.flatnonzero(np.diff(ld)) + 1
        starts = np.concatenate([[0], boundaries])
        for s, chunk in zip(starts, np.split(le, boundaries)):
            if chunk.shape[0]:
                received[int(ld[s])].append(chunk)
    rem = ~local
    (final_in,) = cluster.exchange_batches(
        [_edge_batch(flat_edges[rem], flat_src[rem], flat_dst[rem], "sub-edge-final", n)],
        label=f"subgraphs-{pattern}/to-quads",
    )
    for j in range(k):
        rows = final_in.for_machine(j)
        if rows["u"].size:
            received[j].append(np.column_stack([rows["u"], rows["v"]]))

    # Phase 3 — local enumeration + color-multiset filtering, as a
    # superstep kernel (serial inline, parallel on the process backend).
    all_rows: list[np.ndarray] = []
    owners = min(k, q**4)
    payloads = [
        np.concatenate(received[j], axis=0) if j < owners and received[j] else None
        for j in range(k)
    ]
    outs = cluster.map_machines(
        _enumerate_subgraphs_task,
        dg,
        payloads,
        common={"colors": colors, "q": q, "pattern": pattern},
    )
    for j, mine in enumerate(outs):
        if mine is not None:
            all_rows.append(mine)
            per_machine[j] += mine.shape[0]

    if all_rows:
        occ = np.concatenate(all_rows, axis=0)
        order = np.lexsort((occ[:, 3], occ[:, 2], occ[:, 1], occ[:, 0]))
        occ = occ[order]
    else:
        occ = np.zeros((0, 4), dtype=np.int64)
    return TriangleResult(
        triangles=occ,
        metrics=cluster.metrics,
        per_machine_output=per_machine,
        num_colors=q,
    )
