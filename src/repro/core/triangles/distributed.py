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

Phases 1–3 (proxy draws, forwarding to the tuple owners, local
enumeration and result assembly) are :func:`enumerate_color_tuples`,
which is generic over the pattern: the paper's remark that the technique
"can be generalized to the enumeration of other small subgraphs" is the
same function run with color 4-tuples by
:func:`~repro.core.subgraphs.distributed.enumerate_subgraphs_distributed`.
:data:`PATTERNS` names each pattern's tuple size and sequential
enumerator.  The proxy draws and the Phase-3 enumeration are superstep
kernels (:func:`_draw_edge_proxies_task`, :func:`_enumerate_tuples_task`)
dispatched through :meth:`Cluster.map_machines`: serial on the inline
engines, fanned out across shard workers on the process backend,
draw-for-draw and bit-for-bit identical either way.  This module keeps
the triangle-only parts: Phase 0's designation requests, the coin-based
shipper rule and open triads.

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
from repro.core.subgraphs.local import enumerate_c4_edges, enumerate_k4_edges
from repro.core.triangles.colors import (
    machines_needing_edge_array,
    num_colors,
    owner_keys,
)
from repro.core.triangles.result import TriangleResult

__all__ = ["PATTERNS", "enumerate_color_tuples", "enumerate_triangles_distributed"]

#: Pattern name -> (tuple size r, sequential enumerator ``(n, edges) ->
#: rows``).  The enumerator is both Phase 3's local step and the
#: reference a run's check compares the distributed rows with.
PATTERNS = {
    "triangles": (3, enumerate_triangles_edges),
    "k4": (4, enumerate_k4_edges),
    "c4": (4, enumerate_c4_edges),
}

_EMPTY = np.zeros(0, dtype=np.int64)
_NO_TRIADS = np.zeros((0, 3), dtype=np.int64)


def _draw_edge_proxies_task(ctx, machine: int, rng, count: int) -> np.ndarray:
    """Superstep kernel: machine's i.u.r. proxy draws for its shipped edges.

    ``count`` is the number of edges the machine is responsible for
    shipping; the single ``integers`` call (skipped when idle) keeps the
    per-machine draw order identical on every engine.
    """
    if not count:
        return _EMPTY
    return rng.integers(0, ctx.k, size=count)


def _enumerate_tuples_task(
    ctx, machine: int, rng, local_edges, colors: np.ndarray, q: int,
    pattern: str, enumerate_triads: bool,
):
    """Superstep kernel: Phase-3 local enumeration on one tuple owner.

    ``local_edges`` is the machine's received edge set (``None`` when it
    received nothing or owns no tuple); ``colors`` is the shared hash.
    Returns ``(rows, open_triads)`` restricted to the machine's color
    multiset (triads only when asked for) — pure local compute, no RNG
    draws, so engines agree bit for bit and the process backend can fan
    the (dominant) enumeration cost out across shard workers.
    """
    r, enumerate_rows = PATTERNS[pattern]
    if local_edges is None:
        return np.zeros((0, r), dtype=np.int64), _NO_TRIADS
    rows = enumerate_rows(ctx.n, local_edges)
    triads = (
        _local_open_triads(ctx.n, local_edges, colors, q, machine)
        if enumerate_triads else _NO_TRIADS
    )
    return rows[owner_keys(colors[rows], q) == machine], triads


def _assemble_enumeration(machines, results) -> dict:
    """Pack one group's Phase-3 outputs into a single columnar shipment.

    Concatenated occurrence/triad rows plus per-machine row counts, so the
    driver can credit each machine and put the triads back in machine
    order.  On the process engine this runs worker-side — one shipment
    per worker instead of one (possibly huge) row array per machine.
    """
    rows, triads = zip(*results)
    return {
        "machines": np.asarray(machines, dtype=np.int64),
        "rows": np.concatenate(rows),
        "row_counts": np.array([len(x) for x in rows], dtype=np.int64),
        "triads": np.concatenate(triads),
        "triad_counts": np.array([len(x) for x in triads], dtype=np.int64),
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


def enumerate_color_tuples(
    cluster: Cluster,
    dg: DistributedGraph,
    edges: np.ndarray,
    shipper: np.ndarray,
    colors: np.ndarray,
    q: int,
    pattern: str,
    kind: str,
    labels: tuple[str, str],
    use_proxies: bool = True,
    enumerate_triads: bool = False,
    skip_local_enumeration: bool = False,
) -> TriangleResult:
    """Phases 1–3 of Theorem 5 for one pattern of :data:`PATTERNS`.

    ``shipper[e]`` is the machine that sends edge ``e`` on its way and
    ``colors`` the shared ``q``-coloring.  Edges go to i.u.r. proxies
    (unless ``use_proxies`` is off), on to every sorted r-tuple owner that
    needs them, and each owner outputs the occurrences whose corner-color
    multiset is its own.  ``kind`` prefixes the two message kinds
    (``<kind>-edge-proxy``, ``<kind>-edge-final``) and ``labels`` names
    the two exchanges.  Returns the lexicographically sorted ``(t, r)``
    rows, the per-machine output counts and, with ``enumerate_triads``,
    the open triads in machine order.
    """
    r, _ = PATTERNS[pattern]
    k = cluster.k
    n = dg.n
    m = edges.shape[0]

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
            [_edge_batch(edges[remote], shipper[remote], proxy[remote], f"{kind}-edge-proxy", n)],
            label=labels[0],
        )
        holder = proxy
    else:
        holder = shipper

    # Phase 2 — holders forward every edge to the sorted-tuple owners that
    # need it (owners are computable from the shared hash alone).
    targets = machines_needing_edge_array(colors[edges[:, 0]], colors[edges[:, 1]], q, r)
    p = targets.shape[1]
    flat_src = np.repeat(holder, p)
    flat_dst = targets.ravel()
    flat_edges = np.repeat(edges, p, axis=0)
    local = flat_src == flat_dst
    remote = ~local
    (final_in,) = cluster.exchange_batches(
        [_edge_batch(flat_edges[remote], flat_src[remote], flat_dst[remote],
                     f"{kind}-edge-final", n)],
        label=labels[1],
    )

    # Phase 3 — local enumeration on each tuple owner; a machine outputs
    # exactly the occurrences whose color multiset equals its (sorted)
    # tuple, so the global output has no duplicates.
    per_machine = np.zeros(k, dtype=np.int64)
    if skip_local_enumeration:
        return TriangleResult(
            triangles=np.zeros((0, r), dtype=np.int64),
            metrics=cluster.metrics,
            per_machine_output=per_machine,
            num_colors=q,
        )
    # An owner's edge set: the copies it kept (free) plus those it received.
    dst = np.concatenate([flat_dst[local], final_in.dst])
    order = np.argsort(dst, kind="stable")
    got = np.concatenate([
        flat_edges[local], np.column_stack([final_in.columns["u"], final_in.columns["v"]])
    ])[order]
    per_owner = np.split(got, np.searchsorted(dst[order], np.arange(1, k)))
    owners = min(k, q**r)
    payloads = [e if j < owners and e.size else None for j, e in enumerate(per_owner)]
    common = {"colors": colors, "q": q, "pattern": pattern,
              "enumerate_triads": enumerate_triads}
    # Group-assembled shipping: one aggregate per worker (process) or
    # for the whole superstep (inline); groups hold disjoint machines.
    # Rows are re-sorted globally below, so group order is free to differ
    # from machine order; triads are put back machine-ascending.
    groups = cluster.map_machines(
        _enumerate_tuples_task, dg, payloads, common=common,
        assemble=_assemble_enumeration,
    )
    machines = np.concatenate([agg["machines"] for agg in groups])
    per_machine[machines] = np.concatenate([agg["row_counts"] for agg in groups])
    occ = np.concatenate([agg["rows"] for agg in groups])
    occ = occ[np.lexsort(occ.T[::-1])]
    open_triads = None
    if enumerate_triads:
        triads = np.concatenate([agg["triads"] for agg in groups])
        owner = np.repeat(machines, np.concatenate([agg["triad_counts"] for agg in groups]))
        open_triads = triads[np.argsort(owner, kind="stable")]
    return TriangleResult(
        triangles=occ,
        metrics=cluster.metrics,
        per_machine_output=per_machine,
        num_colors=q,
        open_triads=open_triads,
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
    q = num_colors(k, 3)
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
        shipper = _EMPTY

    return enumerate_color_tuples(
        cluster, dg, edges, shipper, colors, q, "triangles",
        kind="tri", labels=("triangles/to-proxies", "triangles/to-triplets"),
        use_proxies=use_proxies, enumerate_triads=enumerate_triads,
        skip_local_enumeration=skip_local_enumeration,
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
                if b not in adj.get(a, ()):
                    rows.append((center, a, b))
    triads = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return triads[owner_keys(colors[triads], q) == machine]
