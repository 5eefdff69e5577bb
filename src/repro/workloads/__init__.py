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
    gnp:n=1000,avg_deg=8,seed=3
    chung-lu:n=5000,exponent=2.1,seed=1
    planted-triangles:n=3000,triangles=500,noise_p=0.001,seed=2
    edgelist:path=graph.tsv
    edgelist:path=soc-LiveJournal1.txt,relabel=true

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
Each family has a caller outside the tests (the CLI, an example, a paper
table or the benchmark harness).  Scalable (vectorized ``O(m)``
samplers; ``n >= 10^6`` in seconds): ``rmat`` (heavy-tailed quadrant
recursion) and ``gnp`` (sparse binomial sampler above the quadratic
limit).  Adapters over the legacy exact generators: ``chung-lu``,
``planted-triangles``.  File-backed (never cached): ``edgelist``
(chunked edge-text reader, SNAP downloads included; ``relabel=true``
renumbers sparse ids densely).

Cold start
----------
* **Shards stay in memory.**  Running an algorithm at machine count
  ``k`` wraps the graph and its partition in a
  :class:`~repro.kmachine.distgraph.DistributedGraph` whose per-machine
  views (hosted vertices, neighbor homes, home-grouped adjacency,
  incidence tables) are built lazily from the CSR and shared only
  through the in-memory :func:`~repro.kmachine.distgraph.cached_distgraph`
  LRU; the npz and its metadata are all a run writes.  Earlier versions
  also persisted each placement's shards as an mmap'd sidecar, but every
  seed draws a fresh random vertex partition, so nearly every sidecar
  was written and never read.  On ``rmat:n=1e6,avg_deg=16`` at ``k=8``
  (2-CPU host) the run that wrote one paid 0.75 s to its first
  superstep, +210 MiB peak RSS and 408 MB of disk (3x the CSR), while a
  later process that found it reached its first superstep only ~0.07 s
  sooner (0.14-0.16 s against 0.21-0.24 s).  ``repro serve --prewarm
  SPEC`` materializes a dataset at daemon start.

* **Resident graphs.**  A load of a dataset the process still holds (a
  distgraph in that LRU, a ``Session``, the caller) returns that graph,
  read-only, instead of re-reading the npz: ~7 ms of a ~95 ms mst +
  connectivity pass on ``rmat:n=60000,avg_deg=16``.

* **One builder per family.**  The sharded second copy of the builders
  and of SNAP parsing ran at 0.90-0.96x of serial on 2
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
)
from repro.workloads.generators import register_builtin_workloads, rmat_graph
from repro.workloads.io import (
    SnapshotMissingError,
    read_edge_list,
    read_npz,
    register_io_workloads,
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
    "build_dataset",
    # generators
    "rmat_graph",
    "register_builtin_workloads",
    # io
    "read_edge_list",
    "read_npz",
    "SnapshotMissingError",
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
