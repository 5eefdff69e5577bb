"""repro — reproduction of *On the Distributed Complexity of Large-Scale
Graph Computations* (Pandurangan, Robinson, Scquizzato; SPAA 2018).

The package provides:

* :mod:`repro.kmachine` — the k-machine model simulator (machines, links
  of bandwidth ``B``, exact round/message/bit accounting, random vertex /
  edge partitions, routing);
* :mod:`repro.graphs` — CSR graphs, generators, the Figure-1 lower-bound
  graph, exact sequential triangle enumeration;
* :mod:`repro.core.pagerank` — Algorithm 1 (``Õ(n/k²)`` PageRank) and the
  prior ``Õ(n/k)`` baseline;
* :mod:`repro.core.triangles` — the Theorem-5 ``Õ(m/k^{5/3} + n/k^{4/3})``
  triangle enumeration, the congested-clique variant, and baselines;
* :mod:`repro.core.lowerbounds` — the General Lower Bound Theorem
  (Theorem 1) and its instantiations (Theorems 2-3, Corollaries 1-2,
  §1.3 extensions);
* :mod:`repro.core.sorting` — ``Õ(n/k²)`` distributed sorting;
* :mod:`repro.info` / :mod:`repro.experiments` — information-theoretic
  helpers, log-log exponent fits and plain-text tables.

Architecture
------------
Execution is layered so that scale, speed, and scenario-diversity are
independent axes:

1. **Engine layer** (:mod:`repro.kmachine.engine`) — *how* a
   communication phase executes.  Two product engines: ``"vector"``
   (the default everywhere, named once as ``DEFAULT_ENGINE``) runs
   phases as columnar NumPy batches in this process; ``"process"``
   adds a pool of shard workers for per-machine compute.  Results and
   round/message/bit accounting are backend-identical, and the test
   suite holds both to a per-object oracle engine that lives under
   ``tests/`` (batch rows tallied and delivered one at a time;
   1.3–1.8x slower on whole runs of the batched families, 1.0x on the
   accounting-only ones).
2. **Runtime layer** (:mod:`repro.kmachine.distgraph`,
   :mod:`repro.runtime`) — *what state a run shares*.
   :class:`~repro.kmachine.DistributedGraph` materializes each machine's
   RVP-local view (hosted vertices, cached home-of-neighbor arrays,
   Borůvka's incidence tables) once per ``(graph, partition)``;
   ``runtime.run()`` owns cluster construction, placement sampling, and
   metrics collection.
3. **Algorithm registry** (:mod:`repro.runtime.registry`) — *which
   algorithms exist*.  Every family (PageRank, triangles, subgraphs,
   sorting, MST, connectivity) registers an
   :class:`~repro.runtime.AlgorithmSpec`; the CLI (``python -m repro run
   <algo>``, at one k or a k-sweep) and the benches are generic over the
   registry, so a new workload is one spec away from both.
4. **Workload subsystem** (:mod:`repro.workloads`) — *which inputs
   exist*.  Named dataset specs (``"rmat:n=1e6,avg_deg=16,seed=7"``)
   build million-node graphs through vectorized samplers or file
   loaders, persisted as CSR snapshots in a content-addressed on-disk
   cache; ``runtime.run(name, dataset=...)`` and ``python -m repro data``
   consume them, and runs of a dataset the process still holds share
   its one graph object and its materialized shards.

Imports follow the run, not the package tree.  ``import repro`` loads
only ``__version__``; every other public name here and in
:mod:`repro.kmachine`, :mod:`repro.obs`, :mod:`repro.graphs` and
:mod:`repro.core.pagerank` resolves from its module on first access
(PEP 562).  The registry lists all families at once but imports a
family's result class, driver and lower bound only when its spec first
runs, and the ``"process"`` engine loads :mod:`repro.kmachine.parallel`
(and :mod:`multiprocessing`) only when it is first asked for.  A cold
``runtime.run`` therefore pays for the family and engine it uses, and
nothing else.

Environment switches
--------------------
Every ``REPRO_*`` variable the package reads.  Each is read where it is
used (there is no settings module), and ``tests/test_env_switches.py``
fails when a name occurs in ``src/`` without a row here.  None of them
selects between two implementations of one computation: every algorithm
family has one driver on every engine.

========================= =============== ===================== ====================================
name                      default         reader                why it is configurable
========================= =============== ===================== ====================================
``REPRO_DATA_DIR``        ~/.cache/repro  workloads/cache.py    deployment path: the dataset cache
                                                                root (CI and tests use a tmp dir)
``REPRO_CACHE_BYTES``     4 GiB           workloads/cache.py    that cache's disk budget, which
                                                                differs per host
``REPRO_RESULT_DB``       results.sqlite  serve/results.py      deployment path: the sqlite result
                          in cache root                         cache of the serve daemon
``REPRO_TRACE``           unset (off)     obs/trace.py          output path: trace any run without
                                                                editing its call site
========================= =============== ===================== ====================================

Quickstart::

    from repro import gnp_random_graph, distributed_pagerank, runtime

    g = gnp_random_graph(1000, 0.01, seed=1)
    result = distributed_pagerank(g, k=8, seed=1)
    print(result.rounds, result.estimates[:5])

    # Equivalent, through the registry (bit-identical given the seed):
    report = runtime.run("pagerank", g, k=8, seed=1)
    print(report.rounds, report.result.estimates[:5])
"""

from repro._version import __version__
from repro._lazy import lazy_exports

# Every public name with the package that exports it; each resolves on
# first access (see "Architecture" above).
_EXPORTS = {
    # The runtime layer (algorithm registry + unified run()), used as
    # repro.runtime.run(...).
    "runtime": "repro.runtime",
    # The workload subsystem (dataset specs, scalable generators, loaders,
    # content-addressed on-disk graph cache); see repro.workloads for the
    # spec grammar.
    "workloads": "repro.workloads",
    **dict.fromkeys(
        [
            "Graph",
            "gnp_random_graph",
            "complete_graph",
            "star_graph",
            "planted_triangles_graph",
            "chung_lu_graph",
            "random_regularish_graph",
            "pagerank_lowerbound_graph",
            "PageRankLowerBoundInstance",
            "enumerate_triangles",
            "count_triangles",
        ],
        "repro.graphs",
    ),
    **dict.fromkeys(
        [
            "DistributedGraph",
            "Cluster",
            "shutdown_worker_pools",
            "LinkNetwork",
            "Metrics",
            "VertexPartition",
            "EdgePartition",
            "random_vertex_partition",
            "random_edge_partition",
            "rep_to_rvp",
        ],
        "repro.kmachine",
    ),
    **dict.fromkeys(
        [
            "distributed_pagerank",
            "baseline_pagerank",
            "pagerank_walk_series",
            "PageRankResult",
        ],
        "repro.core.pagerank",
    ),
    **dict.fromkeys(
        [
            "enumerate_triangles_distributed",
            "enumerate_triangles_congested_clique",
            "enumerate_triangles_broadcast",
            "enumerate_triangles_conversion",
            "TriangleResult",
        ],
        "repro.core.triangles",
    ),
    **dict.fromkeys(
        [
            "enumerate_subgraphs_distributed",
            "enumerate_k4_edges",
            "enumerate_c4_edges",
        ],
        "repro.core.subgraphs",
    ),
    **dict.fromkeys(
        ["distributed_mst", "kruskal_mst", "MSTResult", "DisjointSetUnion"],
        "repro.core.mst",
    ),
    "connected_components_distributed": "repro.core.connectivity",
    "ConnectivityResult": "repro.core.connectivity",
    "distributed_sort": "repro.core.sorting",
    "SortResult": "repro.core.sorting",
    **dict.fromkeys(
        [
            "GeneralLowerBound",
            "general_lower_bound_rounds",
            "pagerank_round_lower_bound",
            "triangle_round_lower_bound",
            "congested_clique_lower_bound",
            "triangle_message_lower_bound",
            "sorting_round_lower_bound",
            "mst_round_lower_bound",
        ],
        "repro.core.lowerbounds",
    ),
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
