"""``ProcessEngine``: per-shard parallel execution in worker processes.

The third execution backend (``Cluster(engine="process")``).  Exchange
semantics are inherited wholesale from
:class:`~repro.kmachine.engine.VectorEngine` — per-link loads scattered
into dense ``(k, k)`` matrices, canonical ``(dst, src, emission)``
delivery order, identical round accounting — so anything a
driver routes through :meth:`exchange` / :meth:`exchange_batches` is
bit-identical by construction.  What this engine adds is a parallel
implementation of the *superstep scheduler*
(:meth:`~repro.kmachine.engine.Engine.map_machines`): per-machine
compute kernels run in a pool of worker processes instead of a serial
loop.

Design notes
------------
* **Warm pools.**  The engine does not own its worker processes; it
  *holds* a :class:`~repro.kmachine.parallel.pool.WorkerPool` acquired
  from the process-wide registry on the first ``map_machines`` call and
  released warm on :meth:`close`.  Consecutive runs with the same
  worker count reuse the same processes (and any still-published graph
  stores) with no respawn.
* **Machine affinity.**  Machine ``i`` is pinned to worker ``i % W``
  for the span of the hold.  Each machine's private RNG stream lives in
  (and is advanced only by) its owning worker, so the per-machine draw
  order is exactly the inline engines' — which is all bit-identity
  requires, because the streams are independent (results are merged
  with exact integer scatter-adds, which commute).
* **Zero-copy graph state.**  The first ``map_machines`` call for a
  given :class:`~repro.kmachine.distgraph.DistributedGraph` publishes
  its CSR shards and partition arrays into the pool's
  :class:`~repro.kmachine.parallel.store.SharedGraphStore`; workers
  attach views once and reuse them every superstep (and across runs,
  while the pool stays warm).  Kernels that need no graph state run
  with ``distgraph=None`` and a ``None`` context.
* **Shared-memory batch delivery.**  Per-superstep payloads and kernel
  results — the columnar outbox fragments the scheduler assembles into
  :class:`~repro.kmachine.engine.MessageBatch` streams — travel through
  per-shipment shared-memory segments once they are large
  (:mod:`repro.kmachine.parallel.shipping`); small phases stay on the
  pipes.  Either way the scheduler concatenates fragments in machine
  order — the exact emission order of the serial loop — so the merged
  ``(k, k)`` load matrices and round counts are byte-equal to the
  inline engines'.
* **Failure containment.**  A kernel exception is caught in the worker
  and re-raised here as :class:`~repro.errors.ModelError` with the
  worker traceback; the engine is poisoned (its cluster's RNG streams
  have diverged from the inline draw order) but the pool is released
  warm — the next holder ships fresh streams.  A hard worker crash
  severs the pipe; the pool is then destroyed and every shared segment
  unlinked before raising, so crashed runs do not leak memory.
"""

from __future__ import annotations

import os
import time
import weakref
from typing import Sequence

from repro.errors import ModelError
from repro.kmachine.engine import (
    ENGINES,
    _RESIDENT_COUNTER,
    ResidentHandle,
    VectorEngine,
)
from repro.kmachine.network import LinkNetwork
from repro.kmachine.parallel import shipping
from repro.kmachine.parallel.pool import (
    MAX_STORES,
    WorkerPool,
    acquire_pool,
    release_pool,
)

__all__ = ["ProcessEngine", "MAX_STORES"]


class _DelegatedRNG:
    """Placeholder left in ``cluster.machine_rngs`` once a stream ships.

    After the first :meth:`ProcessEngine.map_machines` call the
    authoritative Generator state lives in the owning worker; any
    parent-side draw from the stale parent copy would silently diverge
    from the inline engines.  This sentinel turns that misuse into an
    immediate error instead.
    """

    __slots__ = ("machine",)

    def __init__(self, machine: int) -> None:
        self.machine = machine

    def __getattr__(self, name: str):
        raise ModelError(
            f"machine {self.machine}'s RNG stream is held by a process-engine "
            f"worker; route per-machine draws through map_machines (or use "
            f"a separate cluster for algorithms that draw machine RNGs "
            f"in-process)"
        )


def _release_held_pool(cell: list) -> None:
    """Finalizer target: release an engine's pool if it still holds one."""
    pool = cell[0]
    cell[0] = None
    if pool is not None:
        release_pool(pool)


class ProcessEngine(VectorEngine):
    """Multiprocessing shard workers behind the vectorized exchange layer.

    Parameters
    ----------
    network:
        The bound :class:`~repro.kmachine.network.LinkNetwork`.
    workers:
        Worker-process count; defaults to the available CPU count,
        capped at ``k`` (one worker per machine is the maximum useful
        parallelism).  The pool is acquired lazily on the first
        :meth:`map_machines` call — warm from the registry when one
        with this count is idle, freshly spawned otherwise — so
        clusters that never run a parallel superstep touch no
        processes.
    """

    name = "process"
    supports_workers = True

    def __init__(self, network: LinkNetwork, workers: int | None = None) -> None:
        super().__init__(network)
        if workers is not None and int(workers) < 1:
            raise ModelError(f"workers must be >= 1, got {workers}")
        if workers is None:
            workers = getattr(os, "process_cpu_count", os.cpu_count)() or 1
        self.workers = max(1, min(int(workers), network.k))
        self._closed = False
        self._rngs_shipped = False
        #: Tokens of resident state bundles installed in the held pool's
        #: workers.  Cleared (with best-effort worker-side drops) on
        #: release so a warm pool carries no stale holder state even
        #: before the next holder's rngs shipment wipes it for real.
        self._resident_tokens: set[str] = set()
        # The held pool lives in a one-slot cell so the GC finalizer can
        # release it without keeping the engine alive.
        self._pool_cell: list = [None]
        self._finalizer = weakref.finalize(self, _release_held_pool, self._pool_cell)

    # ------------------------------------------------------------------
    @property
    def pool(self) -> WorkerPool | None:
        """The held worker pool (None before the first map / after close)."""
        return self._pool_cell[0]

    def _machines_of(self, worker: int) -> range:
        return range(worker, self.k, self.workers)

    def _ensure_pool(self) -> WorkerPool:
        pool = self.pool
        if pool is not None:
            return pool
        if self._closed:
            raise ModelError("process engine is closed")
        pool = acquire_pool(self.workers, holder=self)
        self._pool_cell[0] = pool
        return pool

    def _crash(
        self,
        worker: int,
        exc: Exception | None = None,
        in_flight: "dict | None" = None,
        pending: "set[int] | None" = None,
    ):
        """A worker pipe broke: destroy the pool, surface the failure.

        ``in_flight`` maps worker index -> the payload wire shipped to it
        this superstep; ``pending`` is the set of workers whose replies
        were not yet consumed.  Surviving workers' queued replies are
        drained (and their result segments discarded) and every
        undelivered payload segment is released — ``discard`` is a no-op
        for wires whose segment was already consumed — so a hard crash
        leaks no per-shipment shared memory.
        """
        pool = self.pool
        proc = pool._procs[worker] if pool is not None else None
        drain = pending if pool is not None and pending else ()
        try:
            for w in drain:
                if w == worker:
                    continue
                try:
                    if pool.poll(w, timeout=2.0):
                        status, value = pool.recv(w)
                        if status == "ok":
                            shipping.discard(value)
                except (EOFError, OSError):  # that worker's pipe broke too
                    pass
        finally:
            # A bug in the drain surfaces, but only after the pool and
            # the shipments in flight are released.
            for wire in (in_flight or {}).values():
                shipping.discard(wire)
            self._release(discard=True)  # joins workers, populating the exit code
        code = proc.exitcode if proc is not None else None
        raise ModelError(
            f"process engine worker {worker} died (exit code {code}); the pool "
            f"was destroyed and its shared-memory segments were released"
        ) from exc

    def _ship_rngs(self, pool: WorkerPool, rngs) -> None:
        """Hand the per-machine Generators to their owning workers (once).

        Shipping replaces the parent-side slots with sentinels that
        raise on any draw, so code that would silently diverge from the
        inline engines (e.g. another algorithm drawing machine RNGs in
        the parent on the same cluster) fails loudly instead.  The
        shipment also marks this engine as the pool's current holder
        worker-side: any resident state of a previous holder is dropped.
        """
        if self._rngs_shipped:
            return
        for w in range(pool.workers):
            try:
                pool.send(w, ("rngs", {i: rngs[i] for i in self._machines_of(w)}))
            except (BrokenPipeError, OSError) as exc:  # pragma: no cover
                self._crash(w, exc)
        try:
            for i in range(self.k):
                rngs[i] = _DelegatedRNG(i)
        except TypeError:  # immutable sequence: best-effort enforcement only
            pass
        self._rngs_shipped = True

    # ------------------------------------------------------------------
    def map_machines(self, task, distgraph, payloads: Sequence, rngs,
                     common: dict | None = None, resident: ResidentHandle | None = None,
                     assemble=None) -> list:
        """Run a per-machine superstep task across the worker pool.

        See :meth:`Engine.map_machines` for the contract.  On the first
        call the current per-machine Generators are shipped to their
        owning workers, which hold and advance them from then on.  A
        ``None`` ``distgraph`` skips store publication and hands kernels
        a ``None`` context.

        With ``resident`` the kernels additionally receive their
        machine's worker-held state (installed via
        :meth:`install_resident`) — nothing state-sized crosses the
        pipes.  With ``assemble`` each worker packs its machines'
        results into one aggregate before replying, and the returned
        list holds one aggregate per worker (workers ``0..W-1``, each
        covering its machines in ascending order) instead of one entry
        per machine; the worker-side pack time is traced as
        ``assemble_s``.
        """
        self._mark_activity()
        k = self.k
        if len(payloads) != k:
            raise ModelError(f"expected one payload per machine ({k}), got {len(payloads)}")
        token = None
        if resident is not None:
            if resident.states is not None:
                raise ModelError(
                    "resident handle was installed on an inline engine; "
                    "process-engine supersteps need a handle from this "
                    "engine's install_resident"
                )
            if resident.token not in self._resident_tokens:
                raise ModelError(
                    f"resident state {resident.token!r} is not installed in this "
                    f"engine's worker pool (dropped, or installed under a "
                    f"different holder)"
                )
            token = resident.token
        pool = self._ensure_pool()
        self._ship_rngs(pool, rngs)
        store = pool.ensure_store(distgraph) if distgraph is not None else None
        common = dict(common) if common else {}
        trace = self.tracer.enabled
        t0 = time.perf_counter() if trace else 0.0
        in_flight: dict[int, tuple] = {}  # payload wires, for crash cleanup
        pending: set[int] = set()
        for w in range(pool.workers):
            machines = list(self._machines_of(w))
            key = meta = None
            if store is not None:
                key = store.key
                meta = pool.meta_for_worker(w, store)
            wire = shipping.ship(([payloads[i] for i in machines], common))
            in_flight[w] = wire
            try:
                pool.send(w, ("map", task, key, meta, machines, wire, token, assemble))
            except (BrokenPipeError, OSError) as exc:
                self._crash(w, exc, in_flight=in_flight, pending=pending)
            pending.add(w)
        t_shipped = time.perf_counter() if trace else 0.0
        results: list = [None] * (pool.workers if assemble is not None else k)
        failure: str | None = None
        kernel_s = 0.0  # summed worker-side kernel wall-clock
        assemble_s = 0.0  # summed worker-side outbox-assembly wall-clock
        wait_s = 0.0  # parent blocked on replies
        unpack_s = 0.0  # decoding result wires
        for w in range(pool.workers):
            t_wait = time.perf_counter() if trace else 0.0
            try:
                status, value = pool.recv(w)
            except (EOFError, OSError) as exc:
                self._crash(w, exc, in_flight=in_flight, pending=pending)
            t_recv = time.perf_counter() if trace else 0.0
            pending.discard(w)
            if status == "ok":
                # An ok reply proves the worker consumed (and unlinked)
                # its payload segment before running the kernels.
                in_flight.pop(w, None)
                worker_results, worker_kernel_s, worker_assemble_s = shipping.receive(value)
                kernel_s += worker_kernel_s
                assemble_s += worker_assemble_s
                if assemble is not None:
                    results[w] = worker_results
                else:
                    for machine, result in worker_results.items():
                        results[machine] = result
                if trace:
                    wait_s += t_recv - t_wait
                    unpack_s += time.perf_counter() - t_recv
            else:
                # An err reply may predate payload consumption; discard
                # is a no-op when the worker already unlinked it.
                shipping.discard(in_flight.pop(w))
                if failure is None:
                    failure = f"worker {w}: {value}"
        if failure is not None:
            # The other workers (and the failing worker's other machines)
            # already advanced their RNG streams past where the inline
            # serial loop would have stopped, so this engine can no longer
            # reproduce an inline run — poison it rather than let a caller
            # retry into silent divergence.  The pool itself is fine (the
            # next holder ships fresh streams), so it goes back warm.
            self.close()
            raise ModelError(
                f"superstep task failed in a worker; the engine was closed "
                f"(its RNG streams diverged from the inline draw order)\n{failure}"
            )
        if trace:
            t_end = time.perf_counter()
            segments = {
                "ship_s": t_shipped - t0,
                "kernel_s": kernel_s,
                "pool_wait_s": max(0.0, wait_s - kernel_s - assemble_s),
                "unpack_s": unpack_s,
            }
            if assemble is not None:
                segments["assemble_s"] = assemble_s
            self.tracer.phase(
                "map_machines",
                getattr(task, "__name__", str(task)),
                t_end - t0,
                segments=segments,
            )
        return results

    # ------------------------------------------------------------------
    def install_resident(self, states: Sequence, distgraph=None, rngs=None) -> ResidentHandle:
        """Install per-machine driver state into the owning workers.

        ``states[i]`` ships once to machine ``i``'s worker and stays
        there; subsequent :meth:`map_machines` calls with the returned
        handle pass only deltas.  The RNG streams must ship first (the
        shipment is the worker-side holder marker that clears previous
        residents), so ``rngs`` — the cluster's ``machine_rngs`` — is
        required on the first call of a hold.  A non-``None``
        ``distgraph`` publishes its store and binds the bundle's
        worker-side lifetime to it (store eviction drops the bundle).
        """
        self._mark_activity()
        t0 = time.perf_counter() if self.tracer.enabled else 0.0
        k = self.k
        if len(states) != k:
            raise ModelError(f"expected one resident state per machine ({k}), got {len(states)}")
        pool = self._ensure_pool()
        if not self._rngs_shipped:
            if rngs is None:
                raise ModelError(
                    "install_resident before the first superstep needs the "
                    "cluster's machine RNG streams (rngs=) so the holder "
                    "handoff ships them first"
                )
            self._ship_rngs(pool, rngs)
        store = pool.ensure_store(distgraph) if distgraph is not None else None
        store_key = store.key if store is not None else None
        token = f"rs-proc-{next(_RESIDENT_COUNTER)}"
        for w in range(pool.workers):
            wire = shipping.ship({i: states[i] for i in self._machines_of(w)})
            try:
                pool.send(w, ("install-state", token, store_key, wire))
                status, value = pool.recv(w)
            except (EOFError, BrokenPipeError, OSError) as exc:
                shipping.discard(wire)
                self._crash(w, exc)
            if status != "ok":
                raise ModelError(f"install-state failed in worker {w}: {value}")
        self._resident_tokens.add(token)
        if self.tracer.enabled:
            self.tracer.phase("resident", "install", time.perf_counter() - t0)
        return ResidentHandle(token, None, store_key=store_key)

    def pull_resident(self, handle: ResidentHandle) -> list:
        """Fetch the current per-machine resident states (machine order)."""
        self._mark_activity()
        t0 = time.perf_counter() if self.tracer.enabled else 0.0
        if handle.states is not None:
            return list(handle.states)  # inline handle: state never left the parent
        if handle.token not in self._resident_tokens:
            raise ModelError(
                f"resident state {handle.token!r} is not installed in this "
                f"engine's worker pool"
            )
        pool = self.pool
        if pool is None:
            raise ModelError("process engine holds no worker pool")
        merged: dict = {}
        for w in range(pool.workers):
            machines = list(self._machines_of(w))
            try:
                pool.send(w, ("pull-state", handle.token, machines))
                status, value = pool.recv(w)
            except (EOFError, BrokenPipeError, OSError) as exc:
                self._crash(w, exc)
            if status != "ok":
                raise ModelError(f"pull-state failed in worker {w}: {value}")
            merged.update(shipping.receive(value))
        states = [merged[i] for i in range(self.k)]
        if self.tracer.enabled:
            self.tracer.phase("resident", "pull", time.perf_counter() - t0)
        return states

    def drop_resident(self, handle: ResidentHandle) -> None:
        """Release a resident bundle in every worker (idempotent)."""
        handle.states = None
        if handle.token not in self._resident_tokens:
            return
        self._resident_tokens.discard(handle.token)
        pool = self.pool
        if pool is None:
            return
        for w in range(pool.workers):
            try:
                pool.send(w, ("drop-state", handle.token))
            except (BrokenPipeError, OSError):  # pragma: no cover - crash path
                pass

    def _release(self, discard: bool) -> None:
        pool = self.pool
        self._pool_cell[0] = None
        self._closed = True
        self._rngs_shipped = False
        if pool is not None:
            # Free leftover resident bundles before the pool goes back
            # warm — the next holder's rngs shipment would clear them
            # anyway, but an idle pool should not sit on holder state.
            if not discard:
                for token in self._resident_tokens:
                    for w in range(pool.workers):
                        try:
                            pool.send(w, ("drop-state", token))
                        except (BrokenPipeError, OSError):  # pragma: no cover
                            pass
            self._resident_tokens.clear()
            release_pool(pool, discard=discard)

    def close(self) -> None:
        """Release the worker pool (warm) and poison the engine.  Idempotent.

        The pool's processes and shared graph stores survive for the
        next acquirer; use
        :func:`repro.kmachine.parallel.pool.shutdown_worker_pools` to
        tear everything down explicitly.
        """
        self._release(discard=False)


ENGINES[ProcessEngine.name] = ProcessEngine
