"""Sharded view of a partitioned graph: the RVP local state, materialized once.

Every algorithm in the paper starts from the same premise (§1.1): under
the random vertex partition each machine holds its assigned vertices plus
all incident edges, and — because homes are computable from vertex ids —
it also knows the home machine of every neighbor.  The drivers in
:mod:`repro.core` used to re-derive pieces of that local view ad hoc
(``partition.vertices_by_machine()``, ``home[nbrs]`` fancy-indexing inside
superstep loops, per-machine boolean masks over the edge list).

:class:`DistributedGraph` materializes the view once per
``(graph, partition)`` pair and caches every derived array lazily:

* :attr:`parts` — per-machine hosted-vertex arrays,
* :attr:`nbr_home` — the home machine of each CSR adjacency entry
  (aligned with ``graph.indices``), so ``home[nbrs]`` scatters in hot
  loops become cached slices,
* :attr:`home_groups` — the adjacency regrouped by neighbor home
  (:func:`group_neighbors_by_home`), so "how many of ``u``'s neighbors
  live on ``j``" and "which ones" are two offset reads,
* :attr:`local_index` — each vertex's position in its home machine's
  ``parts`` entry, so mapping global ids to a machine's local slots is
  a gather instead of a ``searchsorted``,
* :attr:`edge_homes` — both endpoints' home machines for every edge row,
* :attr:`incidence` — per machine, one ``(edge, own)`` row per edge and
  hosted endpoint (the Borůvka MWOE scans' tables), so MST,
  connectivity and every later run at the placement share one build,
* batch-building helpers (:meth:`group_by_machine`,
  :meth:`edges_by_shipper`) for the common "group work by owning
  machine" pattern.

All helpers return exactly the values the ad-hoc derivations produced, in
the same order, so migrating a driver onto ``DistributedGraph`` never
changes results, RNG draw order, or round accounting — only the amount of
recomputation per superstep.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro.errors import PartitionError
from repro.graphs.graph import Graph
from repro.kmachine.partition import VertexPartition, random_vertex_partition

__all__ = [
    "DistributedGraph",
    "group_neighbors_by_home",
    "resolve_distgraph",
    "cached_distgraph",
    "clear_distgraph_cache",
]


def group_neighbors_by_home(
    indptr: np.ndarray, indices: np.ndarray, nbr_home: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """A CSR adjacency regrouped by the home machine of each neighbor.

    Returns ``(start, nbrs)``: ``start`` has ``n * k + 1`` offsets and
    ``nbrs`` is a stable permutation of ``indices``, so the neighbors of
    ``u`` hosted on machine ``j`` are ``nbrs[start[u*k + j] : start[u*k + j + 1]]``
    in CSR order, and ``u``'s whole row spans ``start[u*k] : start[u*k + k]``.
    ``nbr_home`` is the home machine of each entry of ``indices``.
    """
    n = indptr.size - 1
    key = np.repeat(np.arange(n, dtype=np.int64) * k, np.diff(indptr)) + nbr_home
    start = np.zeros(n * k + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=n * k), out=start[1:])
    return start, indices[np.argsort(key, kind="stable")]


class HomeGroupedNeighbors:
    """The home-grouped adjacency and local-slot index every kernel context exposes.

    Shared by :class:`DistributedGraph` and the process engine's
    :class:`~repro.kmachine.parallel.store.SharedGraphView`.  A host
    provides ``graph.indptr`` / ``graph.indices``, ``nbr_home``,
    ``parts``, ``k``, ``n`` and ``_home_groups`` / ``_local_index``
    attributes initialised to ``None``.
    """

    __slots__ = ()

    @property
    def home_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`group_neighbors_by_home` of this graph (built on first use, cached)."""
        if self._home_groups is None:
            g = self.graph
            self._home_groups = group_neighbors_by_home(
                g.indptr, g.indices, self.nbr_home, self.k
            )
        return self._home_groups

    @property
    def local_index(self) -> np.ndarray:
        """``(n,)`` position of each vertex in its home machine's ``parts`` entry (cached).

        For ``v`` hosted on machine ``i``, ``parts[i][local_index[v]] == v``:
        the ``searchsorted(parts[i], v)`` of every vertex, built on first use.
        """
        if self._local_index is None:
            index = np.empty(self.n, dtype=np.int64)
            for verts in self.parts:
                index[verts] = np.arange(verts.size)
            self._local_index = index
        return self._local_index


class DistributedGraph(HomeGroupedNeighbors):
    """A graph plus a vertex partition, with cached per-machine views.

    Parameters
    ----------
    graph:
        The input :class:`~repro.graphs.graph.Graph`.
    partition:
        A :class:`~repro.kmachine.partition.VertexPartition` over the
        graph's vertices.
    """

    __slots__ = (
        "graph",
        "partition",
        "home",
        "k",
        "n",
        "_parts",
        "_nbr_home",
        "_home_groups",
        "_local_index",
        "_degrees",
        "_edge_homes",
        "_incidence",
    )

    def __init__(self, graph: Graph, partition: VertexPartition) -> None:
        if partition.n != graph.n:
            raise PartitionError(
                f"partition covers {partition.n} vertices but the graph has {graph.n}"
            )
        self.graph = graph
        self.partition = partition
        self.home = partition.home
        self.k = partition.k
        self.n = graph.n
        self._parts: list[np.ndarray] | None = None
        self._nbr_home: np.ndarray | None = None
        self._home_groups: tuple[np.ndarray, np.ndarray] | None = None
        self._local_index: np.ndarray | None = None
        self._degrees: np.ndarray | None = None
        self._edge_homes: tuple[np.ndarray, np.ndarray] | None = None
        self._incidence: list[tuple[np.ndarray, np.ndarray]] | None = None

    # -- cached global views -------------------------------------------
    @property
    def parts(self) -> list[np.ndarray]:
        """Per-machine hosted-vertex arrays (index = machine, each sorted)."""
        if self._parts is None:
            self._parts = self.partition.vertices_by_machine()
        return self._parts

    @property
    def nbr_home(self) -> np.ndarray:
        """Home machine of each CSR adjacency entry (aligned with ``graph.indices``)."""
        if self._nbr_home is None:
            self._nbr_home = self.home[self.graph.indices]
        return self._nbr_home

    @property
    def degrees(self) -> np.ndarray:
        """``(n,)`` out-degree array (cached)."""
        if self._degrees is None:
            self._degrees = self.graph.out_degrees()
        return self._degrees

    @property
    def edge_homes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(home[edges[:, 0]], home[edges[:, 1]])``, each ``(m,)`` (cached)."""
        if self._edge_homes is None:
            e = self.graph.edges
            if e.size:
                self._edge_homes = (self.home[e[:, 0]], self.home[e[:, 1]])
            else:
                z = np.zeros(0, dtype=np.int64)
                self._edge_homes = (z, z)
        return self._edge_homes

    @property
    def incidence(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per machine, ``(edge, own)``: one row per (edge, hosted endpoint) (cached).

        Rows are in edge-index order; an edge with both endpoints on one
        machine has two rows there, its first endpoint's first.  Both
        columns use ``np.min_scalar_type(max(n, m))`` (``uint32`` up to
        4G), which is what the tables cost resident on their machines.
        """
        if self._incidence is None:
            edges = self.graph.edges
            index = np.min_scalar_type(max(self.n, edges.shape[0]))
            # Flattened, rows 2e and 2e+1 are the endpoints of edge e.  A
            # stable machine-major regrouping keeps edge order within a
            # machine; NumPy runs it as an O(rows) radix pass when the key
            # is at most 16 bits wide.
            ends = edges.astype(index).ravel()
            machine = self.home.astype(np.min_scalar_type(self.k))[ends]
            order = np.argsort(machine, kind="stable")
            bounds = np.cumsum(np.bincount(machine, minlength=self.k))[:-1]
            del machine  # the build's memory peak: drop each (2m,) temporary once used
            own = ends[order]
            del ends
            order >>= 1  # flattened row -> edge
            edge = order.astype(index)
            # Shared by every run at this placement: no run may write to it.
            own.flags.writeable = edge.flags.writeable = False
            self._incidence = list(zip(np.split(edge, bounds), np.split(own, bounds)))
        return self._incidence

    # -- batch-building helpers ----------------------------------------
    def group_by_machine(self, assignment: np.ndarray) -> list[np.ndarray]:
        """Group row indices by owning machine in one stable pass.

        ``assignment[r]`` is the machine owning row ``r``; the return value
        is a ``k``-list of index arrays, each sorted ascending — exactly
        ``[np.flatnonzero(assignment == i) for i in range(k)]`` without the
        ``k`` full passes over the array.
        """
        assignment = np.asarray(assignment, dtype=np.int64)
        order = np.argsort(assignment, kind="stable")
        counts = np.bincount(assignment, minlength=self.k)
        splits = np.cumsum(counts)[:-1]
        return np.split(order, splits)

    def edges_by_shipper(self, shipper: np.ndarray | None = None) -> list[np.ndarray]:
        """Edge indices grouped by shipping machine.

        ``shipper`` defaults to the home of each edge's first endpoint
        (the simple shipping rule); pass an explicit per-edge machine
        array for refined rules (e.g. the triangle algorithm's
        degree-threshold proxy assignment).
        """
        if shipper is None:
            shipper = self.edge_homes[0]
        return self.group_by_machine(shipper)


#: LRU of recently materialized distgraphs, keyed by graph identity plus
#: partition contents.  Entries hold their graph alive, which is what makes
#: ``id(graph)`` collision-free while an entry lives.  A dataset's runs
#: share entries because :mod:`repro.workloads.cache` hands every load of a
#: held dataset the same graph object.
_DISTGRAPH_CACHE: "OrderedDict[tuple, DistributedGraph]" = OrderedDict()
_DISTGRAPH_CACHE_SIZE = 8


def clear_distgraph_cache() -> None:
    """Drop all cached :class:`DistributedGraph` instances."""
    _DISTGRAPH_CACHE.clear()


def _home_digest(home: np.ndarray) -> bytes:
    return hashlib.blake2b(
        np.ascontiguousarray(home).tobytes(), digest_size=16
    ).digest()


def cached_distgraph(graph: Graph, partition: VertexPartition) -> DistributedGraph:
    """A :class:`DistributedGraph` for ``(graph, partition)``, shared via LRU.

    Repeated runs over the same graph with the same placement — a pinned
    partition across a k-sweep's repetitions, registry runs at a fixed
    ``(seed, k)``, benchmark engine comparisons — used to re-materialize
    identical per-machine shards every time.  The cache keys on the graph
    object's identity plus the partition's ``(k, home-contents digest)``;
    a hit is verified with an exact ``home`` comparison before reuse, so a
    digest collision can never alias two placements.  Two graph objects
    never share an entry, whatever their content: dataset runs share one
    because the graph cache hands them one object (see
    :mod:`repro.workloads.cache`).
    Distgraphs are immutable after construction (the lazy views are pure
    functions of graph + partition), which makes sharing semantics-free.
    An entry costs whatever lazy views its runs built: ``nbr_home`` is
    8 B per adjacency entry, and Borůvka's
    :attr:`~DistributedGraph.incidence` ~16 B per edge with ``uint32``
    columns (two rows per edge, two columns of 4 B).

    This LRU is the only shard cache: nothing derived from a placement
    is written to disk.  Each seed draws a fresh random vertex
    partition, so a persisted placement is rarely asked for again, and
    a miss builds nothing up front — the distgraph's views materialize
    lazily from the CSR, each on its first use.
    """
    digest = _home_digest(partition.home)
    key = (id(graph), partition.k, digest)
    dg = _DISTGRAPH_CACHE.get(key)
    if (
        dg is not None
        and dg.graph is graph
        and (
            dg.partition is partition
            or np.array_equal(dg.partition.home, partition.home)
        )
    ):
        _DISTGRAPH_CACHE.move_to_end(key)
        return dg
    dg = DistributedGraph(graph, partition)
    _DISTGRAPH_CACHE[key] = dg
    while len(_DISTGRAPH_CACHE) > _DISTGRAPH_CACHE_SIZE:
        _DISTGRAPH_CACHE.popitem(last=False)
    return dg


def resolve_distgraph(
    graph: Graph,
    k: int,
    shared_rng,
    partition: VertexPartition | None = None,
    distgraph: DistributedGraph | None = None,
) -> DistributedGraph:
    """Resolve an algorithm entry point's ``(partition, distgraph)`` arguments.

    An explicit ``distgraph`` wins (so shards built by a caller — e.g. the
    runtime registry — are reused); otherwise an explicit ``partition`` is
    wrapped; otherwise a fresh RVP is sampled from ``shared_rng``, which is
    the exact draw the entry points made before this layer existed (keeping
    seeded runs bit-identical).  The wrap goes through
    :func:`cached_distgraph`, so repeated calls resolving to the same
    placement share one set of materialized shards.
    """
    if distgraph is not None:
        if distgraph.graph is not graph:
            raise PartitionError("distgraph was built for a different graph")
        if partition is not None and partition is not distgraph.partition:
            raise PartitionError(
                "conflicting partition and distgraph arguments; pass one of them"
            )
        partition = distgraph.partition
    if partition is None:
        partition = random_vertex_partition(graph.n, k, seed=shared_rng)
    if partition.n != graph.n or partition.k != k:
        raise PartitionError("partition does not match the graph/cluster")
    return distgraph if distgraph is not None else cached_distgraph(graph, partition)
