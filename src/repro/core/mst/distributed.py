"""Borůvka MST with randomized proxy computation.

Each Borůvka phase runs four accounted message flows (all with random
sources and/or hash-random destinations, so Lemma 13 prices them at
``Õ(volume/k²)`` rounds):

1. **Neighbor labels** — for every edge, the home of each endpoint learns
   the other endpoint's current component label (volume ``<= 2m``).
2. **Candidate MWOEs** — every machine reduces its vertices' outgoing
   edges to one minimum-weight candidate per (machine, component) pair
   and sends it to the component's *proxy* (``hash(label) % k``), which
   takes the global minimum: the paper's randomized-proxy primitive
   applied to the classic MWOE aggregation.  The reduction is the local
   Borůvka component scan, the :func:`_mwoe_scan_task` superstep kernel
   dispatched through :meth:`Cluster.map_machines` (serial on the inline
   engines, fanned out to shard workers on the process backend).  Each
   machine holds a *rank-ordered incidence table*
   (:func:`_incidence_tables`): one row per (edge, hosted endpoint),
   rows in the global (weight, index) order of their edges, built once
   per run.  A component's candidate is then its first crossing row, so
   a phase costs one pass over the table and no sort; the proxies'
   global minimum is the same ``minimum`` scatter over edge ranks.
   The rank order needs no stable sort: :func:`_rank_order` takes
   NumPy's default (unstable) sort and then re-sorts by edge index only
   the positions that sit in runs of equal weights, which gives the
   stable order exactly.  Connectivity passes no weights: its unit
   weights make the rank order the edge-index order, so it sorts
   nothing.
3. **Pointer jumping** — the merge forest ``c -> parent(c)`` (the other
   endpoint's component) is star-contracted by proxies exchanging
   ``parent(parent(c))`` queries/replies; 2-cycles break toward the
   smaller label.  ``O(log n)`` jump rounds of ``<= #components``
   messages each.  The driver keeps the forest as one pointer array
   over labels (self-pointers for components that did not propose), so
   a jump round is a gather ``pointer[parent]`` and the label refresh
   that follows is ``pointer[labels]``.
4. **Label refresh** — every (machine, old-component) pair queries the
   proxy for the new root label.  The distinct pairs come machine by
   machine from one reusable slot table over labels
   (:func:`_machine_labels`), in O(n) time and memory and no sort; their
   order is arbitrary, which the order-free load matrix does not see.

Every final label is a root that labels itself, so the component count
is the number of vertices ``v`` with ``labels[v] == v``.

``O(log n)`` phases halve the component count, so on sparse graphs the
total is ``Õ(m/k² + polylog)`` rounds — consistent with (and bounded
below by) the §1.3 ``Ω̃(n/k²)`` lower bound.  The companion SPAA'16 paper
removes the log factors with a more intricate algorithm.

Message flows are accounted at aggregate level (load matrices), which is
exact for these oblivious patterns; the driver computes the same values a
per-machine execution would.
"""

from __future__ import annotations

import numpy as np

from repro._util import check_positive_int, stable_hash64_array
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.kmachine import encoding
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph, resolve_distgraph
from repro.kmachine.engine import DEFAULT_ENGINE
from repro.kmachine.metrics import Metrics, unit_load_matrix
from repro.kmachine.partition import VertexPartition
from repro.core.mst.reference import checked_weights
from repro.core.mst.result import MSTResult

__all__ = ["distributed_mst", "MSTResult"]

_WEIGHT_BITS = 32


def _rank_order(weights: np.ndarray) -> np.ndarray:
    """Edge ids in (weight, index) order: ``np.argsort(weights, kind="stable")``.

    NumPy's default sort is several times faster than its stable one on
    floats but orders equal weights arbitrarily.  Those ties sit in
    contiguous runs of the sorted order; each run gets an id and the
    tied positions alone are re-sorted by ``run * m + index``, which puts
    every run back in index order without moving it.  ``-0.0`` and
    ``0.0`` compare equal, so they form one run, as in the stable sort.
    """
    order = np.argsort(weights)
    m = order.size
    ranked = weights[order]
    tied = ranked[1:] == ranked[:-1]  # tied[i]: positions i and i+1 share a weight
    if not tied.any():
        return order
    in_run = np.zeros(m, dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    pos = np.flatnonzero(in_run)
    starts = np.ones(pos.size, dtype=bool)
    starts[1:] = ~tied[pos[1:] - 1]
    key = (np.cumsum(starts) - 1) * m + order[pos]
    key.sort()
    order[pos] = key % m
    return order


def _incidence_tables(dg: DistributedGraph, edges: np.ndarray, by_rank: np.ndarray) -> list[dict]:
    """Per-machine incidence tables for the MWOE scans, in edge-rank order.

    One row per (edge, endpoint hosted by the machine): the edge id and
    the hosted endpoint (``own``).  ``by_rank`` lists the edge ids in the
    global (weight, index) total order and every machine's rows follow
    it, so a component's minimum-weight outgoing edge on a machine is
    its *first* crossing row and no rank column is needed.  An edge with
    both endpoints on one machine has two rows there, one per endpoint.
    Both columns use the smallest unsigned dtype that holds
    ``max(n, m)`` (half of ``int64`` or less), which is what the tables
    cost resident on their machines.
    Constant across phases: built once per run, only labels change.
    """
    index = np.min_scalar_type(max(dg.n, by_rank.size))
    # flattened, rows 2r and 2r+1 are the endpoints of the rank-r edge
    ends = edges.astype(index)[by_rank]
    # The machine-major regrouping must keep rank order within a machine:
    # a stable sort, which NumPy runs as an O(rows) radix pass when the
    # key is at most 16 bits wide.
    machine = dg.home.astype(np.min_scalar_type(dg.k))[ends].ravel()
    order = np.argsort(machine, kind="stable")
    bounds = np.cumsum(np.bincount(machine, minlength=dg.k))[:-1]
    # This is the run's memory peak: drop each (2m,) temporary once used.
    del machine
    own = np.split(ends.ravel()[order], bounds)
    del ends
    order >>= 1  # flattened row -> rank
    edge = np.split(by_rank.astype(index)[order], bounds)
    return [{"edge": e, "own": o} for e, o in zip(edge, own)]


def _mwoe_scan_task(ctx, machine: int, rng, payload, state, *,
                    labels: np.ndarray, crossing: np.ndarray) -> dict:
    """Superstep kernel: one machine's local Borůvka component scan.

    ``state`` is the machine's resident incidence table
    (:func:`_incidence_tables`); the per-phase input is the broadcast
    ``labels`` and, per edge, whether its endpoints' labels differ
    (``crossing`` — what flow 1 tells the endpoints' homes), so the
    per-machine ``payload`` is empty.  Rows are in edge-rank order, so the
    minimum-weight outgoing edge of each component present here is its
    first crossing row: a ``minimum`` scatter of row positions — well
    defined however duplicates are visited, unlike a duplicate-index
    assignment — and no sort.  Returns the ``(comp, edge)`` candidates,
    components ascending, both ``int64`` whatever the table's dtype.  No
    RNG draws, so engines agree trivially; the process backend fans the
    scans out across shard workers.
    """
    # ``np.take`` gathers through the narrow table columns without first
    # widening them to ``intp``, which plain fancy indexing does.
    edge = state["edge"]
    rows = np.flatnonzero(np.take(crossing, edge))
    first = np.full(labels.size, rows.size, dtype=np.int64)
    np.minimum.at(first, np.take(labels, state["own"][rows]), np.arange(rows.size))
    comp = np.flatnonzero(first < rows.size)
    return {"comp": comp, "edge": edge[rows[first[comp]]].astype(np.int64)}


def _account(cluster: Cluster, src: np.ndarray, dst: np.ndarray, bits_per: int, label: str) -> None:
    """Account one flow of unit messages given per-message (src, dst).

    Routed through the cluster's execution engine, so the accounting
    backend matches whatever the rest of the run uses.
    """
    msgs, local = unit_load_matrix(src, dst, cluster.k)
    cluster.account_phase(msgs * bits_per, msgs, label=label, local_messages=local)


def _proxies(comp: np.ndarray, k: int) -> np.ndarray:
    """The proxy machine ``hash(label) % k`` of each component label."""
    return (stable_hash64_array(comp, salt=9) % np.uint64(k)).astype(np.int64)


def _machine_labels(parts: list[np.ndarray], labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (machine, label) pairs over hosted vertices, unsorted.

    Machine by machine: every hosted vertex writes its position into its
    label's slot, and a position keeps its label only if the slot still
    holds it.  Whichever duplicate write lands last, exactly one position
    per distinct label survives, so the *set* is exact; only its order
    depends on NumPy.  One ``(n,)`` slot table serves every machine.
    """
    slot = np.empty(labels.size, dtype=np.intp)
    comps = []
    for verts in parts:
        here = labels[verts]
        at = np.arange(here.size)
        slot[here] = at
        comps.append(here[slot[here] == at])
    machine = np.repeat(np.arange(len(parts)), [c.size for c in comps])
    return machine, np.concatenate(comps)


def boruvka_forest(
    graph: Graph,
    weights: np.ndarray | None,
    k: int,
    seed: int | None = None,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
    max_phases: int | None = None,
    engine: str = DEFAULT_ENGINE,
    cluster: Cluster | None = None,
    distgraph: DistributedGraph | None = None,
) -> tuple[np.ndarray, np.ndarray, int, Metrics]:
    """Run the accounted Borůvka phases; the driver behind both families.

    Returns ``(forest, labels, phases, metrics)``: the chosen edge ids
    ascending, every vertex's final component label (the Borůvka root
    label, not canonical), the number of phases run and the cluster's
    metrics.  Arguments are those of :func:`distributed_mst`, which
    validates ``weights``; ``weights=None`` means unit weights, whose
    (weight, index) order is the edge-index order.  ``max_phases`` is
    ``None`` (enough phases for any graph) or an int ≥ 1.
    """
    check_positive_int(k, "k")
    if max_phases is not None and not (
        isinstance(max_phases, (int, np.integer))
        and not isinstance(max_phases, bool)
        and max_phases >= 1
    ):
        raise AlgorithmError(f"max_phases must be an int >= 1, got {max_phases!r}")
    n, m = graph.n, graph.m
    if cluster is None:
        cluster = Cluster(k=k, n=max(2, n), bandwidth=bandwidth, seed=seed, engine=engine)
    elif cluster.k != k:
        raise AlgorithmError(f"cluster has k={cluster.k}, expected {k}")
    dg = resolve_distgraph(graph, k, cluster.shared_rng, partition, distgraph)
    if max_phases is None:
        max_phases = max(1, int(np.ceil(np.log2(max(2, n)))) + 1)

    vid = encoding.vertex_id_bits(max(2, n))
    edges = graph.edges
    labels = np.arange(n, dtype=np.int64)
    chosen = np.zeros(m, dtype=bool)
    phases = 0
    handle = None
    # Flow 1 is the same load every phase: the placement is constant.
    eh0, eh1 = dg.edge_homes
    one_way, local = unit_load_matrix(eh1, eh0, k)
    flow1_msgs, flow1_local = one_way + one_way.T, 2 * local

    try:
        for _ in range(max_phases):
            crossing = np.not_equal(*labels[edges].T)
            if not crossing.any():
                break
            phases += 1

            # ---- Flow 1: neighbor labels (both directions of every edge). ----
            cluster.account_phase(
                flow1_msgs * (2 * vid), flow1_msgs, label=f"mst/labels/{phases}",
                local_messages=flow1_local,
            )

            # ---- Flow 2: candidate MWOE per (machine, component) -> proxy. ----
            if handle is None:
                # Per-run precomputation, after the first accounted flow so
                # the time to first superstep activity does not pay for it.
                # Total order on edges: (weight, index) — makes the MSF unique.
                by_rank = np.arange(m) if weights is None else _rank_order(weights)
                rank_of = np.empty(m, dtype=np.int64)
                rank_of[by_rank] = np.arange(m)
                # Tables live with their machine; only the labels and
                # the crossing bitmap ship each phase.
                handle = cluster.install_resident(
                    _incidence_tables(dg, edges, by_rank), distgraph=dg
                )
            scans = cluster.map_machines(
                _mwoe_scan_task,
                dg,
                [None] * k,
                common={"labels": labels, "crossing": crossing},
                resident=handle,
            )
            cand_comp = np.concatenate([scan["comp"] for scan in scans])
            cand_edge = np.concatenate([scan["edge"] for scan in scans])
            cand_machine = np.repeat(np.arange(k), [scan["comp"].size for scan in scans])
            _account(
                cluster,
                cand_machine,
                _proxies(cand_comp, k),
                2 * vid + vid + _WEIGHT_BITS,
                f"mst/candidates/{phases}",
            )

            # Proxies take the global minimum candidate per component.
            best = np.full(n, m, dtype=np.int64)
            np.minimum.at(best, cand_comp, rank_of[cand_edge])
            comps = np.flatnonzero(best < m)
            mwoe_edge = by_rank[best[comps]]
            chosen[mwoe_edge] = True

            # ---- Flow 3: pointer jumping over component proxies. ----
            # ``pointer`` is the merge forest over labels: a proposing
            # component points at the other side of its MWOE, everything
            # else (merge targets included) at itself.
            a, b = labels[edges[mwoe_edge]].T
            par = np.where(a == comps, b, a)
            pointer = np.arange(n, dtype=np.int64)
            pointer[comps] = par
            # Break 2-cycles toward the smaller label.
            par = np.where((pointer[par] == comps) & (comps < par), comps, par)
            pointer[comps] = par
            # Jump until fixpoint; each jump is a query+reply between the
            # proxies of c and parent(c).
            proxies = _proxies(comps, k)
            while True:
                parents_of_parents = pointer[par]
                if np.array_equal(parents_of_parents, par):
                    break
                parent_proxies = _proxies(par, k)
                _account(cluster, proxies, parent_proxies, vid, f"mst/jump-query/{phases}")
                _account(cluster, parent_proxies, proxies, vid, f"mst/jump-reply/{phases}")
                par = parents_of_parents
                pointer[comps] = par

            # ---- Flow 4: label refresh per (machine, component) pair. ----
            q_machine, q_comp = _machine_labels(dg.parts, labels)
            q_proxy = _proxies(q_comp, k)
            _account(cluster, q_machine, q_proxy, vid, f"mst/label-query/{phases}")
            _account(cluster, q_proxy, q_machine, 2 * vid, f"mst/label-reply/{phases}")

            labels = pointer[labels]
    finally:
        if handle is not None:
            cluster.drop_resident(handle)

    return np.flatnonzero(chosen), labels, phases, cluster.metrics


def distributed_mst(
    graph: Graph,
    weights: np.ndarray,
    k: int,
    seed: int | None = None,
    bandwidth: int | None = None,
    partition: VertexPartition | None = None,
    max_phases: int | None = None,
    engine: str = DEFAULT_ENGINE,
    cluster: Cluster | None = None,
    distgraph: DistributedGraph | None = None,
) -> MSTResult:
    """Compute the minimum spanning forest of ``graph`` with ``k`` machines.

    Ties in edge weights are broken by edge index, so the result is the
    unique MSF of the perturbed weights and matches Kruskal exactly.
    All four flows are accounted at aggregate level through the chosen
    execution ``engine`` backend.

    Each machine's edge-incidence table is installed as worker-resident
    state once, so per phase only the current labels and the per-edge
    crossing bitmap ship to the MWOE scans, not the tables.
    """
    weights = checked_weights(graph, weights)
    forest, labels, phases, metrics = boruvka_forest(
        graph, weights, k, seed=seed, bandwidth=bandwidth, partition=partition,
        max_phases=max_phases, engine=engine, cluster=cluster, distgraph=distgraph,
    )
    return MSTResult(
        edges=graph.edges[forest],
        total_weight=float(weights[forest].sum()),
        metrics=metrics,
        phases=phases,
        num_components=int(np.count_nonzero(labels == np.arange(labels.size))),
    )
