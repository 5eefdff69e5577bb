"""Warm worker pools: shard-worker processes that outlive a single run.

PR 3 gave every ``Cluster(engine="process")`` its own worker pool, torn
down when the cluster closed — so a sweep of ``runtime.run`` calls paid
process spawn, module import, and graph-store republication *per run*.
This module hoists pool ownership out of the engine into a process-wide
registry: a :class:`WorkerPool` is acquired by an engine for the span of
its use and *released warm* on :meth:`ProcessEngine.close`, ready for
the next engine that asks for the same worker count.  Two consecutive
``runtime.run(engine="process")`` calls therefore reuse the same worker
processes (and any still-cached shared graph stores) with no respawn.

Exclusivity and reuse
---------------------
A pool is held by at most one engine at a time: workers hold *the
holder's* per-machine RNG streams, so interleaving two clusters over one
pool would clobber state.  ``acquire_pool`` hands out an idle pool with
the requested worker count, or spawns a fresh one; ``release_pool``
marks it idle (or destroys it when the caller discards it after a
crash).
Each new holder ships its own RNG streams on its first superstep, which
replaces the previous holder's, so reuse never leaks randomness across
runs.

Ownership of shared state
-------------------------
The pool — not the engine — owns the published
:class:`~repro.kmachine.parallel.store.SharedGraphStore` segments and
the per-worker sent-store bookkeeping.  A warm pool therefore keeps hot
graph stores mapped in its workers: a second run over the same cached
:class:`~repro.kmachine.distgraph.DistributedGraph` skips publication
*and* worker attachment entirely.  Stores are LRU-bounded per pool
(:data:`MAX_STORES`); evictions tell workers to drop their views.

Lifetime
--------
At most :data:`MAX_IDLE_POOLS` idle pools are kept; releasing beyond
that destroys the oldest idle one.  :func:`shutdown_worker_pools` (also
registered ``atexit``) destroys everything — worker processes joined,
segments unlinked — and is the explicit eviction hook for tests, the
CLI, and long-lived embedding processes.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
from collections import OrderedDict

from repro.errors import ModelError
from repro.kmachine.parallel.store import SharedGraphStore
from repro.kmachine.parallel.worker import worker_main

__all__ = [
    "WorkerPool",
    "acquire_pool",
    "release_pool",
    "shutdown_worker_pools",
    "active_pools",
    "MAX_IDLE_POOLS",
    "MAX_STORES",
]

#: Idle pools kept warm; releasing more destroys the oldest idle pool.
MAX_IDLE_POOLS = 2

#: Published graph stores kept per pool before LRU eviction (one segment
#: is O(n + m) ints; mirrors the distgraph cache's own bound).
MAX_STORES = 8


class WorkerPool:
    """A fixed-size set of shard-worker processes plus their shared state.

    Parameters
    ----------
    workers:
        Worker-process count; machine ``i`` of any holding engine is
        pinned to worker ``i % workers``, so the count is the pool's
        identity for reuse purposes.
    """

    def __init__(self, workers: int) -> None:
        self.workers = int(workers)
        # Fork keeps startup cheap and lets tasks defined in any loaded
        # module pickle by reference; spawn is the portable fallback.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        self._procs: list = []
        self._conns: list = []
        self._sent_stores: list[set[str]] = []
        self._stores: "OrderedDict[int, SharedGraphStore]" = OrderedDict()
        self._store_owners: dict[int, object] = {}  # keep distgraphs alive (stable ids)
        #: The engine currently holding the pool (None when idle).
        self.holder: object | None = None
        self._dead = False
        for w in range(self.workers):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=worker_main,
                args=(child_conn,),
                name=f"repro-shard-worker-{w}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._sent_stores.append(set())

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the pool's processes are (nominally) still running."""
        return not self._dead

    @property
    def pids(self) -> tuple[int, ...]:
        """Worker process ids (stable for the pool's lifetime)."""
        return tuple(proc.pid for proc in self._procs)

    def send(self, worker: int, msg) -> None:
        self._conns[worker].send(msg)

    def recv(self, worker: int):
        return self._conns[worker].recv()

    def poll(self, worker: int, timeout: float = 0.0) -> bool:
        """Whether a reply from ``worker`` is ready within ``timeout``."""
        return self._conns[worker].poll(timeout)

    # ------------------------------------------------------------------
    def ensure_store(self, distgraph) -> SharedGraphStore:
        """The pool's published store for ``distgraph`` (publishing once).

        Stores are keyed by distgraph identity and LRU-bounded at
        :data:`MAX_STORES`; eviction unlinks the segment and tells every
        worker that attached it to drop its view.
        """
        store = self._stores.get(id(distgraph))
        if store is not None:
            self._stores.move_to_end(id(distgraph))
            return store
        store = SharedGraphStore(distgraph)
        self._stores[id(distgraph)] = store
        self._store_owners[id(distgraph)] = distgraph
        while len(self._stores) > MAX_STORES:
            old_id, old_store = self._stores.popitem(last=False)
            self._store_owners.pop(old_id, None)
            for w in range(self.workers):
                if old_store.key in self._sent_stores[w]:
                    self._sent_stores[w].discard(old_store.key)
                    try:
                        self._conns[w].send(("drop-store", old_store.key))
                    except (BrokenPipeError, OSError):  # pragma: no cover
                        pass
            old_store.close()
        return store

    def meta_for_worker(self, worker: int, store: SharedGraphStore):
        """Attachment metadata the first time ``worker`` sees ``store``."""
        if store.key in self._sent_stores[worker]:
            return None
        self._sent_stores[worker].add(store.key)
        return store.meta()

    # ------------------------------------------------------------------
    def destroy(self) -> None:
        """Join the workers and unlink every segment.  Idempotent."""
        if self._dead:
            return
        self._dead = True
        self.holder = None
        for conn in self._conns:
            try:
                conn.send(("close",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover
                pass
        for store in self._stores.values():
            store.close()
        self._stores.clear()
        self._store_owners.clear()
        for sent in self._sent_stores:
            sent.clear()
        if self in _POOLS:
            _POOLS.remove(self)


#: Every live pool, oldest first (idle or held).
_POOLS: list[WorkerPool] = []


def acquire_pool(workers: int, holder: object) -> WorkerPool:
    """An idle pool with ``workers`` processes, spawning one if needed.

    The returned pool is held by ``holder`` until :func:`release_pool`;
    a held pool is never handed to a second engine.
    """
    if holder is None:
        raise ModelError("acquire_pool needs the holding engine")
    for pool in reversed(_POOLS):  # most recently released first
        if pool.holder is None and pool.alive and pool.workers == int(workers):
            pool.holder = holder
            return pool
    pool = WorkerPool(workers)
    pool.holder = holder
    _POOLS.append(pool)
    return pool


def release_pool(pool: WorkerPool, discard: bool = False) -> None:
    """Return a pool to the registry warm, or destroy it.

    ``discard=True`` destroys unconditionally — used after a worker
    crash, when the pool's processes cannot be trusted.  Idle pools
    beyond :data:`MAX_IDLE_POOLS` are destroyed oldest-first.
    """
    pool.holder = None
    if discard or not pool.alive:
        pool.destroy()
        return
    # Move to the registry tail so reuse prefers the freshest pool.
    if pool in _POOLS:
        _POOLS.remove(pool)
    _POOLS.append(pool)
    idle = [p for p in _POOLS if p.holder is None]
    for victim in idle[: max(0, len(idle) - MAX_IDLE_POOLS)]:
        victim.destroy()


def active_pools() -> tuple[WorkerPool, ...]:
    """Every live pool (held and idle), oldest first — introspection aid."""
    return tuple(_POOLS)


def shutdown_worker_pools() -> None:
    """Destroy every pool: join workers, unlink segments.  Idempotent."""
    for pool in list(_POOLS):
        pool.destroy()


atexit.register(shutdown_worker_pools)
