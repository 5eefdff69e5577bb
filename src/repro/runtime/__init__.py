"""The runtime layer: algorithm registry + unified execution entry point.

Architecture (bottom-up):

* **engine layer** (:mod:`repro.kmachine.engine`) — *how* a communication
  phase executes (columnar batches in this process, or with a pool of
  shard workers), behind ``Cluster(engine=...)``;
* **runtime layer** (:mod:`repro.kmachine.distgraph` + this package) —
  *what state a run shares*: :class:`~repro.kmachine.distgraph.DistributedGraph`
  materializes the per-machine RVP shards once, and :func:`run` owns
  cluster construction, placement sampling, and metrics collection;
* **registry** (:mod:`repro.runtime.registry`) — *which algorithms
  exist*: each family registers an :class:`AlgorithmSpec` (driver
  adapter, defaults, result type, theorem bounds), making the CLI,
  k-sweeps, and benches generic over families;
* **session layer** (:mod:`repro.runtime.session`) — *who owns the
  substrate under concurrency*: see the ownership contract below.

Result cache
------------
Deterministic engines make completed runs data: with
``run(result_cache=True)`` (or a
:class:`~repro.serve.results.ResultStore`), cacheable runs are persisted
to sqlite keyed by ``(dataset content_key, algo, canonical params, seed,
engine)`` — *canonical params* being the sorted-key JSON of the merged
family parameters plus ``k`` and any explicit ``bandwidth`` — and a
repeat of the same key returns ``RunReport(cached=True)`` with zero
superstep execution.  A run is cacheable exactly when it is a pure
function of that key: dataset-addressed input (the graph carries a
``content_key``), pinned ``seed``, run-built cluster and placement, and
JSON-canonicalizable parameters; anything else simply executes.

Session ownership contract
--------------------------
``runtime.run`` assumes **sole ownership** of the execution substrate:
warm worker pools are held by one engine at a time, the distgraph LRU
and the metrics objects are unsynchronized, and per-machine RNG streams
belong to the holder.  Calling ``run`` from two threads concurrently
violates that contract.  :class:`Session` is the one object allowed to
multiplex concurrent callers over the substrate: it serializes misses
under its substrate lock, answers result-cache hits without the lock,
bounds admitted requests (:class:`~repro.errors.SessionSaturated` /
:class:`~repro.errors.SessionTimeout`), and isolates per-request
failures.  The serve daemon (``python -m repro serve``) multiplexes all
network traffic through one session.

Usage::

    from repro import runtime

    g = repro.gnp_random_graph(1000, 0.01, seed=1)
    report = runtime.run("pagerank", g, k=8, seed=1, engine="vector")
    print(report.rounds, report.result.estimates[:5])
    print(runtime.available())
"""

from repro._lazy import lazy_exports
from repro.runtime.registry import (
    AlgorithmSpec,
    RunReport,
    available,
    get_spec,
    register,
    run,
    specs,
)
from repro.runtime.families import register_builtin_specs

register_builtin_specs()

__all__ = [
    "AlgorithmSpec",
    "RunReport",
    "Session",
    "available",
    "get_spec",
    "register",
    "register_builtin_specs",
    "run",
    "specs",
]

# The session layer (threads, the serve result store) loads on first
# access: a one-shot run never needs it.
__getattr__, __dir__ = lazy_exports(globals(), {"Session": "repro.runtime.session"})
