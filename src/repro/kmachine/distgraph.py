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
* :meth:`shard` — a per-machine CSR slice (hosted vertices, local
  ``indptr``/``indices``, neighbor homes, degrees), built lazily on
  first access; the current drivers consume the cached global views
  above, and shards are the extension point for per-machine parallel
  execution (see ROADMAP open items),
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
    "MachineShard",
    "group_neighbors_by_home",
    "resolve_distgraph",
    "cached_distgraph",
    "clear_distgraph_cache",
    "warm_shard_snapshots",
]


class MachineShard:
    """One machine's materialized slice of a :class:`DistributedGraph`.

    Attributes
    ----------
    machine:
        The machine index.
    vertices:
        Hosted vertex ids (sorted).
    indptr:
        ``(len(vertices) + 1,)`` local CSR offsets into :attr:`indices`;
        row ``r`` is the adjacency of ``vertices[r]``.
    indices:
        Global neighbor ids, concatenated in hosted-vertex order.
    nbr_home:
        Home machine of each entry of :attr:`indices`.
    degrees:
        Out-degree of each hosted vertex (``indptr`` row lengths).
    """

    __slots__ = ("machine", "vertices", "indptr", "indices", "nbr_home", "degrees")

    def __init__(
        self,
        machine: int,
        vertices: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        nbr_home: np.ndarray,
    ) -> None:
        self.machine = machine
        self.vertices = vertices
        self.indptr = indptr
        self.indices = indices
        self.nbr_home = nbr_home
        self.degrees = np.diff(indptr)

    def neighbors(self, row: int) -> np.ndarray:
        """Global neighbor ids of hosted vertex ``vertices[row]``."""
        return self.indices[self.indptr[row] : self.indptr[row + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MachineShard machine={self.machine} vertices={self.vertices.size}"
            f" edges={self.indices.size}>"
        )


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

    def local_neighbors(self, v: int, machine: int) -> np.ndarray:
        """Neighbors of ``v`` hosted on ``machine``, in CSR order (a slice; no copy)."""
        if not (0 <= machine < self.k):
            raise PartitionError(f"machine index {machine} out of range [0, {self.k})")
        start, nbrs = self.home_groups
        slot = v * self.k + machine
        return nbrs[start[slot] : start[slot + 1]]


class DistributedGraph(HomeGroupedNeighbors):
    """A graph plus a vertex partition, with cached per-machine shards.

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
        "_shards",
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
        self._shards: list[MachineShard | None] = [None] * self.k

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

    # -- per-vertex views ----------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """Global neighbor ids of ``v`` (a CSR slice; no copy)."""
        g = self.graph
        return g.indices[g.indptr[v] : g.indptr[v + 1]]

    def neighbor_homes(self, v: int) -> np.ndarray:
        """Home machines of ``v``'s neighbors (cached slice; no fancy-indexing)."""
        g = self.graph
        return self.nbr_home[g.indptr[v] : g.indptr[v + 1]]

    # -- per-machine shards --------------------------------------------
    def shard(self, machine: int) -> MachineShard:
        """The materialized CSR slice for one machine (built lazily, cached)."""
        if not (0 <= machine < self.k):
            raise PartitionError(f"machine index {machine} out of range [0, {self.k})")
        cached = self._shards[machine]
        if cached is not None:
            return cached
        g = self.graph
        verts = self.parts[machine]
        counts = g.indptr[verts + 1] - g.indptr[verts] if verts.size else np.zeros(0, dtype=np.int64)
        indptr = np.zeros(verts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        total = int(indptr[-1])
        if verts.size and total:
            # Gather each hosted vertex's adjacency slice in one shot: a
            # grouped arange (position within row) added to repeated row
            # starts — no Python loop over vertices.
            within_row = np.arange(total) - np.repeat(indptr[:-1], counts)
            take = np.repeat(g.indptr[verts], counts) + within_row
            indices = g.indices[take]
            nbr_home = self.nbr_home[take]
        else:
            indices = np.zeros(0, dtype=np.int64)
            nbr_home = np.zeros(0, dtype=np.int64)
        shard = MachineShard(machine, verts, indptr, indices, nbr_home)
        self._shards[machine] = shard
        return shard

    def shards(self) -> list[MachineShard]:
        """All ``k`` shards (materializing any not yet built)."""
        return [self.shard(i) for i in range(self.k)]

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


#: LRU of recently materialized distgraphs, keyed by graph identity (or,
#: for workload-built graphs, by content address) plus partition contents.
#: Entries hold their graph alive, which is what makes ``id(graph)``
#: collision-free while an entry lives.
_DISTGRAPH_CACHE: "OrderedDict[tuple, DistributedGraph]" = OrderedDict()
_DISTGRAPH_CACHE_SIZE = 8


def clear_distgraph_cache() -> None:
    """Drop all cached :class:`DistributedGraph` instances."""
    _DISTGRAPH_CACHE.clear()


def _graph_cache_key(graph: Graph):
    """The graph component of the distgraph LRU key.

    Graphs built by the workload subsystem carry a ``content_key`` (the
    dataset spec's content hash); keying on it means a dataset reloaded
    from the on-disk cache — a *different object* with identical content —
    still reuses materialized shards.  Ad-hoc graphs key on identity.
    """
    ck = getattr(graph, "content_key", None)
    return ("content", ck, graph.directed) if ck else ("id", id(graph))


def _same_graph(cached: Graph, graph: Graph) -> bool:
    """Whether a cache hit's graph may stand in for ``graph``."""
    if cached is graph:
        return True
    ck = getattr(graph, "content_key", None)
    return (
        ck is not None
        and getattr(cached, "content_key", None) == ck
        and cached.n == graph.n
        and cached.m == graph.m
        and cached.directed == graph.directed
    )


def _home_digest(home: np.ndarray) -> bytes:
    return hashlib.blake2b(
        np.ascontiguousarray(home).tobytes(), digest_size=16
    ).digest()


def _graph_cache_module():
    """The workload cache, imported lazily (workloads imports kmachine)."""
    from repro.workloads import cache as _cache

    return _cache


def _snapshot_sections(dg: DistributedGraph) -> tuple[dict, dict]:
    """Disassemble a distgraph into flat int64 sections + identity meta.

    Forces materialization of every derived view the snapshot covers
    (hosted-vertex lists, the global ``nbr_home`` column, all ``k``
    shards) — a cold run pays the build once so every later warm start
    can mmap it.
    """
    shards = dg.shards()
    parts = dg.parts
    parts_offsets = np.zeros(dg.k + 1, dtype=np.int64)
    np.cumsum([p.size for p in parts], out=parts_offsets[1:])
    indices_offsets = np.zeros(dg.k + 1, dtype=np.int64)
    np.cumsum([s.indices.size for s in shards], out=indices_offsets[1:])
    empty = np.zeros(0, dtype=np.int64)
    sections = {
        "home": dg.home,
        "parts_flat": np.concatenate(parts) if dg.n else empty,
        "parts_offsets": parts_offsets,
        "nbr_home": dg.nbr_home,
        "shards_indptr": np.concatenate([s.indptr for s in shards]),
        "shards_indices": (
            np.concatenate([s.indices for s in shards])
            if int(indices_offsets[-1]) else empty
        ),
        "shards_nbr_home": (
            np.concatenate([s.nbr_home for s in shards])
            if int(indices_offsets[-1]) else empty
        ),
        "shards_indices_offsets": indices_offsets,
    }
    meta = {
        "content_key": dg.graph.content_key,
        "k": dg.k,
        "n": dg.n,
        "m": dg.graph.m,
        "directed": dg.graph.directed,
        "home_digest": _home_digest(dg.home).hex(),
        "indices_size": int(dg.graph.indices.size),
    }
    return sections, meta


def _distgraph_from_snapshot(
    graph: Graph,
    partition: VertexPartition,
    views: dict,
    manifest: dict,
) -> DistributedGraph | None:
    """Assemble a distgraph from mmap'd snapshot sections, or ``None``.

    Every identity field is verified against the live graph/partition —
    including an exact ``home`` comparison — before any view is adopted;
    any mismatch (or structurally impossible section table) is treated
    as a miss, never an error: the caller rebuilds from the CSR.

    The adopted arrays are stripped to plain ``ndarray`` views of the
    mapping (``np.asarray``): they stay read-only and page-fault lazily
    through the same mmap (kept alive via ``.base``), but slicing them
    in per-vertex hot loops skips the ``np.memmap`` subclass dispatch,
    which profiles as real per-superstep overhead.
    """
    try:
        views = {name: np.asarray(arr) for name, arr in views.items()}
        if (
            manifest["content_key"] != getattr(graph, "content_key", None)
            or int(manifest["k"]) != partition.k
            or int(manifest["n"]) != graph.n
            or int(manifest["m"]) != graph.m
            or bool(manifest["directed"]) != graph.directed
            or int(manifest["indices_size"]) != int(graph.indices.size)
        ):
            return None
        home = views["home"]
        if home.size != partition.n or not np.array_equal(home, partition.home):
            return None
        k, n = partition.k, graph.n
        parts_offsets = views["parts_offsets"]
        indices_offsets = views["shards_indices_offsets"]
        parts_flat = views["parts_flat"]
        nbr_home = views["nbr_home"]
        shards_indptr = views["shards_indptr"]
        shards_indices = views["shards_indices"]
        shards_nbr_home = views["shards_nbr_home"]
        if (
            parts_offsets.size != k + 1
            or indices_offsets.size != k + 1
            or int(parts_offsets[-1]) != n
            or parts_flat.size != n
            or nbr_home.size != graph.indices.size
            or shards_indptr.size != n + k
            or shards_indices.size != int(indices_offsets[-1])
            or shards_nbr_home.size != shards_indices.size
        ):
            return None
        dg = DistributedGraph(graph, partition)
        dg._parts = [
            parts_flat[parts_offsets[i]:parts_offsets[i + 1]] for i in range(k)
        ]
        dg._nbr_home = nbr_home
        shards: list[MachineShard | None] = []
        for i in range(k):
            verts = dg._parts[i]
            ip_lo = int(parts_offsets[i]) + i
            ix_lo, ix_hi = int(indices_offsets[i]), int(indices_offsets[i + 1])
            shards.append(MachineShard(
                i,
                verts,
                shards_indptr[ip_lo:ip_lo + verts.size + 1],
                shards_indices[ix_lo:ix_hi],
                shards_nbr_home[ix_lo:ix_hi],
            ))
        dg._shards = shards
        return dg
    except (KeyError, ValueError, TypeError, IndexError):
        return None


def _load_snapshot_distgraph(
    graph: Graph, partition: VertexPartition, digest: bytes
) -> DistributedGraph | None:
    """Try the on-disk shard snapshot for ``(graph, partition)``."""
    from repro.errors import WorkloadError

    cache = _graph_cache_module().default_cache()
    try:
        loaded = cache.load_shards(
            graph.content_key, partition.k, digest.hex()[:12]
        )
    except WorkloadError:
        return None  # corrupt sidecar: rebuild (the re-store overwrites it)
    if loaded is None:
        return None
    views, manifest = loaded
    return _distgraph_from_snapshot(graph, partition, views, manifest)


def _store_snapshot_distgraph(dg: DistributedGraph, digest: bytes) -> None:
    """Write-through a freshly built distgraph; failures never fail the run."""
    cache = _graph_cache_module().default_cache()
    sections, meta = _snapshot_sections(dg)
    try:
        cache.store_shards(
            dg.graph.content_key, dg.k, digest.hex()[:12], sections, meta
        )
    except OSError:
        pass  # read-only or full disk: the in-memory distgraph is fine


def cached_distgraph(graph: Graph, partition: VertexPartition) -> DistributedGraph:
    """A :class:`DistributedGraph` for ``(graph, partition)``, shared via LRU.

    Repeated runs over the same graph with the same placement — a pinned
    partition across a k-sweep's repetitions, registry runs at a fixed
    ``(seed, k)``, benchmark engine comparisons — used to re-materialize
    identical per-machine shards every time.  The cache keys on the graph
    (its workload content address when present, else object identity; see
    :func:`_graph_cache_key`) plus the partition's ``(k, home-contents
    digest)``; a hit is verified with an exact ``home`` comparison before
    reuse, so a digest collision can never alias two placements.
    Distgraphs are immutable after construction (the lazy views are pure
    functions of graph + partition), which makes sharing semantics-free.
    An entry costs its shards (~32 B per edge) plus whatever lazy views
    its runs built; Borůvka's :attr:`~DistributedGraph.incidence` adds
    ~16 B per edge with ``uint32`` columns (two rows per edge, two
    columns of 4 B).

    Content-addressed graphs additionally persist their materialized
    shards as an mmap-friendly sidecar next to the CSR snapshot (see
    :mod:`repro.workloads.io`): an in-memory miss first tries
    ``np.load(mmap_mode="r")`` on the sidecar — a warm start skips shard
    materialization entirely and faults pages in lazily, shared across
    processes — and a genuine cold build writes the sidecar through for
    the next process.  A corrupt, vanished or version-mismatched sidecar
    is a miss: rebuild, then write through.
    """
    digest = _home_digest(partition.home)
    key = (_graph_cache_key(graph), partition.k, digest)
    dg = _DISTGRAPH_CACHE.get(key)
    if (
        dg is not None
        and _same_graph(dg.graph, graph)
        and (
            dg.partition is partition
            or np.array_equal(dg.partition.home, partition.home)
        )
    ):
        _DISTGRAPH_CACHE.move_to_end(key)
        return dg
    dg = None
    snapshot = getattr(graph, "content_key", None) is not None
    if snapshot:
        dg = _load_snapshot_distgraph(graph, partition, digest)
    if dg is None:
        dg = DistributedGraph(graph, partition)
        if snapshot:
            _store_snapshot_distgraph(dg, digest)
    _DISTGRAPH_CACHE[key] = dg
    while len(_DISTGRAPH_CACHE) > _DISTGRAPH_CACHE_SIZE:
        _DISTGRAPH_CACHE.popitem(last=False)
    return dg


def warm_shard_snapshots(graph: Graph, limit: int | None = None) -> int:
    """Preload every on-disk shard snapshot of ``graph`` into the LRU.

    A restarted daemon (``repro serve --prewarm``) calls this after
    materializing a dataset: each ``(k, partition)`` sidecar left by
    earlier processes is mapped read-only and registered under its exact
    LRU key — the partitions are reconstructed from the snapshot's own
    ``home`` section — so the first request that resolves the same
    placement starts computing without touching the CSR.  Returns the
    number of snapshots loaded (0 when the graph has no content key).
    """
    ck = getattr(graph, "content_key", None)
    if ck is None:
        return 0
    cache = _graph_cache_module().default_cache()
    count = 0
    for k, digest12 in cache.list_shards(ck):
        if limit is not None and count >= limit:
            break
        try:
            loaded = cache.load_shards(ck, k, digest12)
        except Exception:
            continue
        if loaded is None:
            continue
        views, manifest = loaded
        try:
            partition = VertexPartition(home=views["home"], k=int(manifest["k"]))
        except Exception:
            continue
        dg = _distgraph_from_snapshot(graph, partition, views, manifest)
        if dg is None:
            continue
        key = (_graph_cache_key(graph), partition.k, _home_digest(partition.home))
        _DISTGRAPH_CACHE[key] = dg
        _DISTGRAPH_CACHE.move_to_end(key)
        while len(_DISTGRAPH_CACHE) > _DISTGRAPH_CACHE_SIZE:
            _DISTGRAPH_CACHE.popitem(last=False)
        count += 1
    return count


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
        if not _same_graph(distgraph.graph, graph):
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
