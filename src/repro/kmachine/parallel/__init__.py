"""Per-shard parallel execution: multiprocessing workers over shared memory.

This subpackage implements the third execution backend of the k-machine
simulator (``Cluster(engine="process", workers=...)``):

* :class:`~repro.kmachine.parallel.store.SharedGraphStore` publishes a
  :class:`~repro.kmachine.distgraph.DistributedGraph`'s CSR shards and
  partition arrays into one :mod:`multiprocessing.shared_memory` segment
  per ``(graph, partition)``, attached zero-copy by every worker;
* :mod:`~repro.kmachine.parallel.worker` is the worker main loop holding
  the per-machine RNG streams and executing superstep kernels;
* :mod:`~repro.kmachine.parallel.pool` owns the *warm worker pools*: a
  :class:`~repro.kmachine.parallel.pool.WorkerPool` (and the graph
  stores it published) survives across engines and ``runtime.run``
  calls, held by one engine at a time and released warm on close —
  :func:`shutdown_worker_pools` is the explicit teardown;
* :mod:`~repro.kmachine.parallel.shipping` moves large per-superstep
  payloads and kernel outbox fragments through per-shipment
  shared-memory segments (pipes remain the small-phase fallback);
* :class:`~repro.kmachine.parallel.engine.ProcessEngine` is the
  scheduler: it pins machine ``i`` to worker ``i % W``, merges shipped
  outbox fragments in emission order, and reuses
  :class:`~repro.kmachine.engine.VectorEngine`'s exchange and
  accounting — so results, rounds, and bits stay bit-identical to the
  inline backends.

:data:`repro.kmachine.engine.ENGINES` lists ``"process"`` by the
module of :class:`ProcessEngine`, so the name always resolves through
``make_engine`` while this package (and :mod:`multiprocessing`) is
imported only on that first lookup.
"""

from repro.kmachine.parallel.engine import ProcessEngine
from repro.kmachine.parallel.pool import (
    WorkerPool,
    active_pools,
    shutdown_worker_pools,
)
from repro.kmachine.parallel.store import SharedGraphStore, SharedGraphView

__all__ = [
    "ProcessEngine",
    "SharedGraphStore",
    "SharedGraphView",
    "WorkerPool",
    "active_pools",
    "shutdown_worker_pools",
]
