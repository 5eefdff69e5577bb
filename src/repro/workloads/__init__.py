"""The workload subsystem: dataset specs, scalable generators, loaders,
and the content-addressed on-disk graph cache.

The paper's upper bounds hold for *arbitrary* input graphs; this package
makes arbitrary inputs cheap to name, build, and reuse.  A dataset is
described by a **spec string**, built by a registered **workload
family**, and persisted as a CSR snapshot keyed by the spec's **content
hash** — so every layer above (``runtime.run(dataset=...)``, the
``python -m repro data``/``run --dataset`` CLI, the benches, CI) shares
one vocabulary and one cache.

Dataset-spec grammar
--------------------
::

    spec    := family [ ":" param ("," param)* ]
    param   := key "=" value
    family  := lowercase name of a registered workload family
    key     := a parameter the family declares
    value   := bool ("true"/"false") | int ("4096", "1_000_000", "1e6")
               | float ("0.3", "2.5e-4") | string (anything else)

Examples::

    rmat:n=1e6,avg_deg=16,seed=7
    sbm:n=200_000,blocks=16,avg_deg=12,mix=0.05,seed=1
    geometric:n=500000,avg_deg=12,seed=3
    smallworld:n=100000,nbrs=10,rewire=0.2,seed=5
    gnp:n=1000,avg_deg=8,seed=3
    edgelist:path=graph.tsv,relabel=true
    snap:path=soc-LiveJournal1.txt

Specs are *normalized* on parse — defaults filled in, keys sorted, types
coerced — so every spelling of the same dataset has one canonical string
(:meth:`DatasetSpec.canonical`) and one 32-hex content hash
(:meth:`DatasetSpec.content_hash`).  That hash keys the on-disk cache
(``$REPRO_DATA_DIR`` or ``~/.cache/repro``; npz CSR snapshots with
atomic writes and an LRU size cap via ``$REPRO_CACHE_BYTES``) *and* the
in-memory :func:`~repro.kmachine.distgraph.cached_distgraph` shard LRU,
so a dataset reloaded from disk still reuses materialized shards.

Built-in families
-----------------
Scalable (vectorized ``O(m)`` samplers; ``n >= 10^6`` in seconds):
``rmat`` (heavy-tailed quadrant recursion), ``sbm`` (community
structure), ``geometric`` (grid-bucketed unit square), ``smallworld``
(ring lattice + rewiring), ``gnp`` (sparse binomial sampler above the
quadratic limit).  Adapters over the legacy exact generators:
``chung-lu``, ``planted-triangles``.  File-backed (never cached):
``edgelist``, ``metis``, ``snap`` (chunked SNAP/edge-text reader for
multi-ten-million-edge downloads).

Cold start: shard snapshots
---------------------------
* **Shard snapshots.**  Running an algorithm at machine count ``k``
  materializes a :class:`~repro.kmachine.distgraph.DistributedGraph` —
  per-machine CSR shards, partition arrays, neighbor-home maps.  That
  work is deterministic given ``(dataset, k, partition)``, so
  :func:`~repro.kmachine.distgraph.cached_distgraph` persists it as a
  versioned sidecar next to the dataset's npz (one flat int64 blob +
  JSON manifest, atomic tmp+rename, bytes counted toward the LRU cap)
  and later processes load it back **mmap'd read-only**
  (``np.load(mmap_mode="r")``) — pages fault in on demand, nothing is
  parsed or copied, and a warm ``runtime.run`` reaches its first
  superstep in well under a second where rebuilding shards took
  seconds.  ``repro serve --prewarm SPEC`` preloads snapshots at
  daemon start.

* **One builder per family.**  The sharded second copy of ``geometric``,
  ``rmat``, ``sbm`` and SNAP parsing ran at 0.90-0.96x of serial on 2
  CPUs (0.67x on 1, ``benchmarks/results/C2_coldstart.txt``) and went in
  PR 24.  A second builder needs a >= 4-CPU host, a harness workload on
  each side of the choice, and a selection made by the code, not a flag.

Quickstart::

    from repro import workloads

    g = workloads.materialize("rmat:n=100000,avg_deg=16,seed=7")
    # second call: loaded from the on-disk cache, bit-identical
    g2 = workloads.materialize("rmat:n=1e5,seed=7,avg_deg=16.0")
    assert (g2.edges == g.edges).all() and g2.content_key == g.content_key

    from repro import runtime
    report = runtime.run("triangles", dataset="rmat:n=100000,avg_deg=16,seed=7",
                         k=27, seed=1, engine="vector")
"""

from repro.workloads.spec import (
    DatasetSpec,
    ParamSpec,
    WorkloadFamily,
    available_workloads,
    build_dataset,
    get_workload,
    literal_value,
    parse_spec,
    register_workload,
    workload_families,
)
from repro.workloads.generators import (
    geometric_graph,
    register_builtin_workloads,
    rmat_graph,
    sbm_graph,
    smallworld_graph,
)
from repro.workloads.io import (
    SHARD_SNAPSHOT_VERSION,
    SnapshotMissingError,
    read_edge_list,
    read_metis,
    read_npz,
    read_snap,
    register_io_workloads,
    write_edge_list,
    write_npz,
)
from repro.workloads.cache import (
    CACHE_BYTES_ENV,
    DATA_DIR_ENV,
    CacheEntry,
    GraphCache,
    default_cache,
    materialize,
)

register_builtin_workloads()
register_io_workloads()

__all__ = [
    # specs
    "DatasetSpec",
    "ParamSpec",
    "WorkloadFamily",
    "parse_spec",
    "literal_value",
    "register_workload",
    "get_workload",
    "available_workloads",
    "workload_families",
    "build_dataset",
    # generators
    "rmat_graph",
    "sbm_graph",
    "geometric_graph",
    "smallworld_graph",
    "register_builtin_workloads",
    # io
    "read_edge_list",
    "write_edge_list",
    "read_metis",
    "read_npz",
    "read_snap",
    "SnapshotMissingError",
    "SHARD_SNAPSHOT_VERSION",
    "write_npz",
    "register_io_workloads",
    # cache
    "GraphCache",
    "CacheEntry",
    "default_cache",
    "materialize",
    "DATA_DIR_ENV",
    "CACHE_BYTES_ENV",
]
