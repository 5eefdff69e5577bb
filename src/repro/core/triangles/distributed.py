"""Theorem 5: ``Õ(m/k^{5/3} + n/k^{4/3})``-round triangle enumeration.

The algorithm (§3.2), generalizing Dolev et al.'s congested-clique
TriPartition with two k-machine-specific ingredients:

1. **Color partition.**  A shared hash colors every vertex with one of
   ``q = floor(k^{1/3})`` colors; machine ``(a, b, c)`` (one per ordered
   triplet) examines all edges between color classes of its triplet.

2. **Randomized edge proxies.**  Every edge is first shipped to a
   uniformly random *proxy* machine, and each proxy forwards its edges to
   the ``q`` (sorted-)triplet machines that need them.  The proxy
   indirection balances send load: without it a machine hosting a
   high-degree vertex would have to push ``Θ(Δ k^{1/3})`` copies itself.
   The *proxy assignment rule* additionally balances who ships each edge
   to its proxy: for an edge with exactly one endpoint of degree
   ``>= 2k log n``, the low-degree endpoint's home machine ships it (the
   high-degree machine only broadcasts a designation request); ties
   (both high / both low) are broken by a shared coin per edge.

3. **Local enumeration.**  Each triplet machine enumerates triangles in
   its received edge set and outputs those whose corner-color multiset
   equals its triplet — every triangle is output by exactly one machine.
   Both the proxy draws and this Phase-3 enumeration are per-machine
   superstep kernels (:func:`_draw_edge_proxies_task`,
   :func:`_enumerate_triangles_task`) dispatched through
   :meth:`Cluster.map_machines`: serial on the inline engines, fanned
   out across shard workers on the process backend, draw-for-draw and
   bit-for-bit identical either way.

With ``use_proxies=False`` the proxy stage is skipped (home machines send
edges straight to triplet machines) — the ablation showing proxy load
balancing is what removes the ``Δ`` dependence.
"""

from __future__ import annotations

import math

import numpy as np

from repro._util import check_positive_int
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.triangles_ref import enumerate_triangles_edges
from repro.kmachine import encoding
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph, resolve_distgraph
from repro.kmachine.engine import DEFAULT_ENGINE, MessageBatch
from repro.kmachine.partition import VertexPartition
from repro.core.triangles.colors import (
    machines_needing_edge_array,
    num_colors_for_machines,
)
from repro.core.triangles.result import TriangleResult

__all__ = ["enumerate_triangles_distributed"]

_EMPTY = np.zeros(0, dtype=np.int64)


def _draw_edge_proxies_task(ctx, machine: int, rng, count: int) -> np.ndarray:
    """Superstep kernel: machine's i.u.r. proxy draws for its shipped edges.

    ``count`` is the number of edges the machine is responsible for
    shipping; the single ``integers`` call (skipped when idle, exactly
    like the historical inline loop) keeps the per-machine draw order
    identical on every engine.  Shared by the subgraph family, whose
    proxy stage is the same primitive.
    """
    if not count:
        return _EMPTY
    return rng.integers(0, ctx.k, size=count)


def _enumerate_triangles_task(
    ctx, machine: int, rng, local_edges, colors: np.ndarray, q: int,
    enumerate_triads: bool,
):
    """Superstep kernel: Phase-3 local enumeration on one triplet machine.

    ``local_edges`` is the machine's received edge set (``None`` when it
    received nothing or owns no triplet); ``colors`` is the shared hash.
    Returns ``(triangles, open_triads)`` restricted to the machine's
    color multiset, each ``None`` when empty — pure local compute, no
    RNG draws, so engines agree bit for bit and the process backend can
    fan the (dominant) enumeration cost out across shard workers.
    """
    if local_edges is None or local_edges.shape[0] == 0:
        return None
    mine = None
    tris = enumerate_triangles_edges(ctx.n, local_edges)
    if tris.size:
        csort = np.sort(colors[tris], axis=1)
        key = csort[:, 0] * q * q + csort[:, 1] * q + csort[:, 2]
        mine = tris[key == machine]
        if not mine.size:
            mine = None
    triads = None
    if enumerate_triads:
        triads = _local_open_triads(ctx.n, local_edges, colors, q, machine)
        if not triads.size:
            triads = None
    if mine is None and triads is None:
        return None
    return mine, triads


_EMPTY3 = np.zeros((0, 3), dtype=np.int64)


def _assemble_enumeration(machines, results) -> dict:
    """Pack one group's Phase-3 outputs into a single columnar shipment.

    Concatenated triangle/triad rows plus per-machine row counts, so the
    driver can split the aggregate back per machine (triad output order
    is machine-ascending, so the counts are load-bearing, not just
    bookkeeping).  On the process engine this runs worker-side — one
    shipment per worker instead of one (possibly huge) row array per
    machine.
    """
    tri_rows: list[np.ndarray] = []
    tri_counts: list[int] = []
    triad_rows: list[np.ndarray] = []
    triad_counts: list[int] = []
    for out in results:
        mine, triads = out if out is not None else (None, None)
        tri_counts.append(0 if mine is None else mine.shape[0])
        if mine is not None:
            tri_rows.append(mine)
        triad_counts.append(0 if triads is None else triads.shape[0])
        if triads is not None:
            triad_rows.append(triads)
    return {
        "machines": np.asarray(machines, dtype=np.int64),
        "tris": np.concatenate(tri_rows) if tri_rows else _EMPTY3,
        "tri_counts": np.asarray(tri_counts, dtype=np.int64),
        "triads": np.concatenate(triad_rows) if triad_rows else _EMPTY3,
        "triad_counts": np.asarray(triad_counts, dtype=np.int64),
    }


def _edge_batch(
    edges: np.ndarray,
    src_machines: np.ndarray,
    dest_machines: np.ndarray,
    kind: str,
    n: int,
) -> MessageBatch:
    """One columnar edge stream: a ``(u, v)`` row per shipped edge copy."""
    ebits = encoding.edge_message_bits(n)
    edges = edges.reshape(-1, 2)
    return MessageBatch(
        kind=kind,
        src=src_machines,
        dst=dest_machines,
        bits=np.full(edges.shape[0], ebits, dtype=np.int64),
        columns={"u": np.ascontiguousarray(edges[:, 0]),
                 "v": np.ascontiguousarray(edges[:, 1])},
    )


def enumerate_triangles_distributed(
    graph: Graph,
    k: int,
    seed: int | None = None,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
    cluster: Cluster | None = None,
    use_proxies: bool = True,
    degree_threshold: int | None = None,
    enumerate_triads: bool = False,
    skip_local_enumeration: bool = False,
    engine: str = DEFAULT_ENGINE,
    distgraph: DistributedGraph | None = None,
) -> TriangleResult:
    """Enumerate all triangles of ``graph`` with ``k`` machines (Theorem 5).

    Parameters
    ----------
    graph:
        Undirected input graph.
    k:
        Number of machines; ``q = floor(k^{1/3})`` colors are used and the
        first ``q³`` machines own triplets (all ``k`` serve as proxies).
    use_proxies:
        Ablation switch for the randomized edge-proxy stage.
    degree_threshold:
        The proxy-assignment-rule threshold; the paper uses
        ``2 k log n``.
    enumerate_triads:
        Also enumerate *open triads* (vertex triples with exactly two
        edges, §1.2).  A triplet machine holds every edge and non-edge
        between its color classes, so it can decide openness locally.
    skip_local_enumeration:
        Account all communication phases but skip Phase 3's local
        enumeration (which is free in the k-machine model anyway).  Used
        by large-scale *round-scaling* benches; the returned triangle
        array is empty.
    engine:
        Execution backend (``"vector"`` or ``"process"``); ignored when
        an explicit ``cluster`` is supplied.  The edge streams of all
        three phases are columnar, so the vector backend runs them
        without materializing message objects.

    Returns
    -------
    TriangleResult
        Triangles exactly once each, plus metrics.
    """
    if graph.directed:
        raise AlgorithmError("triangle enumeration expects an undirected graph")
    check_positive_int(k, "k")
    n = graph.n
    if n == 0:
        raise AlgorithmError("empty graph")
    if cluster is None:
        cluster = Cluster(k=k, n=n, bandwidth=bandwidth, seed=seed, engine=engine)
    elif cluster.k != k:
        raise AlgorithmError(f"cluster has k={cluster.k}, expected {k}")
    dg = resolve_distgraph(graph, k, cluster.shared_rng, partition, distgraph)
    home = dg.home
    q = num_colors_for_machines(k)
    # Shared hash h: V -> C (public randomness, known to every machine).
    colors = cluster.shared_rng.integers(0, q, size=n)
    if degree_threshold is None:
        degree_threshold = max(1, 2 * k * math.ceil(math.log2(max(2, n))))

    edges = graph.edges
    m = edges.shape[0]
    deg = dg.degrees

    # ------------------------------------------------------------------
    # Phase 0 — designation requests: machines hosting vertices of degree
    # >= threshold broadcast one request per such vertex (paper: "requests
    # all other machines to designate the respective edge proxies").
    high = deg >= degree_threshold
    vid_bits = encoding.vertex_id_bits(n)
    if np.any(high):
        hv = np.flatnonzero(high)
        req_src = np.repeat(home[hv], k)
        req_dst = np.tile(np.arange(k, dtype=np.int64), hv.size)
        req_v = np.repeat(hv, k)
        keep = req_dst != req_src
        cluster.exchange_batches(
            [
                MessageBatch(
                    kind="tri-request",
                    src=req_src[keep],
                    dst=req_dst[keep],
                    bits=np.full(int(keep.sum()), vid_bits, dtype=np.int64),
                    columns={"v": req_v[keep]},
                )
            ],
            label="triangles/requests",
        )

    # ------------------------------------------------------------------
    # Shipping responsibility per edge (the proxy assignment rule):
    #   one endpoint high  -> the low endpoint's home ships it;
    #   both low / both high -> a shared fair coin picks the endpoint.
    if m:
        hu, hv = high[edges[:, 0]], high[edges[:, 1]]
        coin = cluster.shared_rng.integers(0, 2, size=m).astype(bool)
        ship_second = np.where(hu ^ hv, hu, coin)  # True -> endpoint 1 ships
        shipper_vertex = np.where(ship_second, edges[:, 1], edges[:, 0])
        shipper = home[shipper_vertex]
    else:
        shipper = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # Phase 1 — edges to random proxies (each shipper picks i.u.r. proxies
    # with its private randomness, drawn by the proxy superstep kernel).
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
            [_edge_batch(edges[remote], shipper[remote], proxy[remote], "tri-edge-proxy", n)],
            label="triangles/to-proxies",
        )
        holder = proxy
    else:
        holder = shipper

    # ------------------------------------------------------------------
    # Phase 2 — proxies forward every edge to the q sorted-triplet owners
    # that need it (owners are computable from the shared hash alone).
    targets = machines_needing_edge_array(colors[edges[:, 0]], colors[edges[:, 1]], q) if m else np.zeros((0, 0), dtype=np.int64)
    received: list[list[np.ndarray]] = [[] for _ in range(k)]
    if m:
        flat_src = np.repeat(holder, q)
        flat_dst = targets.ravel()
        flat_edges = np.repeat(edges, q, axis=0)
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
        remote = ~local
        batch = _edge_batch(
            flat_edges[remote], flat_src[remote], flat_dst[remote], "tri-edge-final", n
        )
    else:
        batch = _edge_batch(
            np.zeros((0, 2), dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            "tri-edge-final",
            n,
        )
    (final_in,) = cluster.exchange_batches([batch], label="triangles/to-triplets")
    for j in range(k):
        rows = final_in.for_machine(j)
        if rows["u"].size:
            received[j].append(np.column_stack([rows["u"], rows["v"]]))

    # ------------------------------------------------------------------
    # Phase 3 — local enumeration on each triplet machine (a superstep
    # kernel: serial on the inline engines, fanned out to shard workers
    # on the process backend); a machine outputs exactly the triangles
    # whose color multiset equals its (sorted) triplet, so the global
    # output has no duplicates.
    all_tris: list[np.ndarray] = []
    per_machine = np.zeros(k, dtype=np.int64)
    if skip_local_enumeration:
        return TriangleResult(
            triangles=np.zeros((0, 3), dtype=np.int64),
            metrics=cluster.metrics,
            per_machine_output=per_machine,
            num_colors=q,
        )
    owners = min(k, q**3)
    payloads = [
        np.concatenate(received[j], axis=0) if j < owners and received[j] else None
        for j in range(k)
    ]
    common = {"colors": colors, "q": q, "enumerate_triads": enumerate_triads}
    # Group-assembled shipping: one aggregate per worker (process) or
    # for the whole superstep (inline).  Triangles are re-sorted
    # globally below, so group order is free to differ from machine
    # order; triads are reassembled machine-ascending via the counts.
    groups = cluster.map_machines(
        _enumerate_triangles_task, dg, payloads, common=common,
        assemble=_assemble_enumeration,
    )
    triad_chunks: list = [None] * k
    for agg in groups:
        tri_parts = np.split(agg["tris"], np.cumsum(agg["tri_counts"])[:-1])
        triad_parts = np.split(agg["triads"], np.cumsum(agg["triad_counts"])[:-1])
        for j, tri_c, triad_c in zip(agg["machines"], tri_parts, triad_parts):
            j = int(j)
            if tri_c.shape[0]:
                all_tris.append(tri_c)
                per_machine[j] += tri_c.shape[0]
            if triad_c.shape[0]:
                triad_chunks[j] = triad_c
    all_triads = [c for c in triad_chunks if c is not None]

    if all_tris:
        triangles = np.concatenate(all_tris, axis=0)
        order = np.lexsort((triangles[:, 2], triangles[:, 1], triangles[:, 0]))
        triangles = triangles[order]
    else:
        triangles = np.zeros((0, 3), dtype=np.int64)
    open_triads = None
    if enumerate_triads:
        open_triads = (
            np.concatenate(all_triads, axis=0) if all_triads else np.zeros((0, 3), dtype=np.int64)
        )
    return TriangleResult(
        triangles=triangles,
        metrics=cluster.metrics,
        per_machine_output=per_machine,
        num_colors=q,
        open_triads=open_triads,
    )


def _local_open_triads(
    n: int, local_edges: np.ndarray, colors: np.ndarray, q: int, machine: int
) -> np.ndarray:
    """Open triads decidable at one triplet machine (center listed first).

    The machine received *all* edges between its color classes, so for a
    wedge ``a - v - b`` with the right color multiset, the absence of the
    received edge ``(a, b)`` certifies the triad is open.
    """
    if local_edges.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    local_edges = np.unique(np.sort(local_edges, axis=1), axis=0)
    adj: dict[int, set[int]] = {}
    for u, v in local_edges:
        adj.setdefault(int(u), set()).add(int(v))
        adj.setdefault(int(v), set()).add(int(u))
    rows: list[tuple[int, int, int]] = []
    for center, nbrs in adj.items():
        nb = sorted(nbrs)
        for ai in range(len(nb)):
            for bi in range(ai + 1, len(nb)):
                a, b = nb[ai], nb[bi]
                cs = sorted((int(colors[center]), int(colors[a]), int(colors[b])))
                if cs[0] * q * q + cs[1] * q + cs[2] != machine:
                    continue
                if b not in adj.get(a, ()):
                    rows.append((center, a, b))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)
