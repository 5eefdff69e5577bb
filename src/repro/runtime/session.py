"""The :class:`Session` scheduler: concurrent requests over one substrate.

``runtime.run`` assumes **sole ownership** of the execution substrate —
the warm worker pools, the in-memory distgraph LRU, and the cluster it
builds are all single-owner state (a pool is held by exactly one engine,
per-machine RNG streams are the holder's, and the LRUs are plain
dictionaries).  Two threads calling ``runtime.run`` concurrently would
fight over all of it.  A :class:`Session` is the object that makes
concurrency safe:

* **misses are serialized** on one long-lived *substrate thread* the
  session owns — every run, its dataset load included, executes there
  one at a time, so pools/LRUs always have one owner (and every run's
  big allocations live in that thread's one malloc arena instead of
  growing an arena per request thread);
* **result-cache hits never reach it** — a hit is answered on the
  caller's thread, concurrently with whatever is executing, and reads
  neither the dataset nor the payload: the probe is keyed from the
  resident graph or the graph cache's metadata sidecar, and an
  unchanged row comes from the result store's decoded copy;
* **admission control** bounds the requests in flight: beyond
  ``queue_limit`` a submit raises
  :class:`~repro.errors.SessionSaturated`, and a run that waits longer
  than ``timeout`` for the substrate raises
  :class:`~repro.errors.SessionTimeout` and never starts — callers
  fail fast instead of piling onto an overloaded daemon;
* **per-request isolation** — a failed run frees the substrate, fixes
  the counters, and re-raises to *its* caller only; the session keeps
  serving (run-owned clusters are closed by ``runtime.run`` itself, and
  a crashed process-engine pool is discarded by the engine layer);
* **dataset residency** — materialized dataset graphs are kept in a
  small LRU keyed by content hash, so repeated misses skip the
  on-disk npz read as well as the build.

The serve daemon (:mod:`repro.serve.daemon`) multiplexes every network
request through one session; embedding processes can use one directly::

    from repro.runtime import Session

    with Session(result_cache=True) as session:
        rep = session.run("pagerank", dataset="rmat:n=1e5,avg_deg=8,seed=7",
                          k=8, seed=1, engine="vector")
        hit = session.run("pagerank", dataset="rmat:n=1e5,avg_deg=8,seed=7",
                          k=8, seed=1, engine="vector")
        assert hit.cached
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from types import SimpleNamespace

from repro.errors import AlgorithmError, ServeError, SessionSaturated, SessionTimeout
from repro.obs.registry import obs_registry

__all__ = ["Session"]

#: Spec strings whose probe stand-in a session remembers.
_SHAPES_KEPT = 1024


class Session:
    """A scheduler that owns the execution substrate for concurrent use.

    Parameters
    ----------
    result_cache:
        ``True`` (default store), a path, a
        :class:`~repro.serve.results.ResultStore`, or ``None``/``False``
        to serve without a result cache.  Stores created *by* the
        session (``True`` or a path) are closed with it.
    queue_limit:
        Maximum requests admitted at once (executing + waiting +
        answering from cache); beyond it submits raise
        :class:`SessionSaturated`.
    timeout:
        Default seconds a miss may wait for the substrate before
        :class:`SessionTimeout` (``None`` = wait forever); per-run
        override via ``run(..., timeout=...)``.
    max_datasets:
        Materialized dataset graphs kept resident (LRU by content hash).
    """

    def __init__(
        self,
        *,
        result_cache=True,
        queue_limit: int = 16,
        timeout: float | None = None,
        max_datasets: int = 4,
    ) -> None:
        if queue_limit < 1:
            raise ServeError(f"queue_limit must be >= 1, got {queue_limit}")
        if max_datasets < 1:
            raise ServeError(f"max_datasets must be >= 1, got {max_datasets}")
        self.queue_limit = int(queue_limit)
        self.timeout = timeout
        self.max_datasets = int(max_datasets)
        self._owns_store = False
        if result_cache is None or result_cache is False:
            self.store = None
        elif result_cache is True:
            from repro.serve.results import default_result_store

            self.store = default_result_store()
        elif isinstance(result_cache, (str, bytes)) or hasattr(result_cache, "__fspath__"):
            from repro.serve.results import ResultStore

            self.store = ResultStore(result_cache)
            self._owns_store = True
        else:
            self.store = result_cache
        # Deferred: `import repro` should not pay for concurrent.futures (~5 ms).
        from concurrent.futures import ThreadPoolExecutor

        # One worker: the queue in front of it is the serializer.
        self._substrate = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-substrate"
        )
        self._admit = threading.Lock()
        self._inflight = 0
        self._queued = 0  # runs handed to the substrate and not finished
        self._datasets: "OrderedDict[str, object]" = OrderedDict()
        self._shapes: dict[str, SimpleNamespace] = {}  # see _probe_input
        self._dataset_lock = threading.Lock()
        self._closed = False
        self.started = time.time()
        # Traffic counters (all guarded by _admit; stats() snapshots them).
        self.requests = 0
        self.cache_hits = 0
        self.executed = 0
        self.errors = 0
        self.rejected = 0
        self.timeouts = 0
        # The obs registry holds stats() by weak reference, so this
        # neither leaks the session nor needs the caller to opt in.
        self._obs_token = obs_registry().register("session", self.stats)

    # -- lifecycle ------------------------------------------------------

    def close(self, shutdown_pools: bool = False) -> None:
        """Stop admitting runs; optionally tear down the warm pools.

        Subsequent submits raise :class:`ServeError`; runs already
        queued or executing finish first (the substrate thread is
        joined).  ``shutdown_pools=True`` also destroys the process-wide
        warm worker pools (the daemon does this on shutdown so the host
        process exits clean).
        """
        with self._admit:
            self._closed = True
        obs_registry().unregister(self._obs_token)
        self._substrate.shutdown(wait=True)
        with self._dataset_lock:
            self._datasets.clear()
        if self._owns_store and self.store is not None:
            self.store.close()
        if shutdown_pools:
            from repro.kmachine.parallel import shutdown_worker_pools

            shutdown_worker_pools()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dataset residency ----------------------------------------------
    def materialize(self, dataset):
        """The dataset's graph, from the session LRU / disk cache / build.

        Serialized under one lock: two concurrent requests for the same
        not-yet-resident dataset build it once, not twice.
        """
        from repro import workloads

        spec = workloads.parse_spec(dataset)
        key = spec.content_hash()
        with self._dataset_lock:
            graph = self._datasets.get(key)
            if graph is not None:
                self._datasets.move_to_end(key)
                return graph
            graph = workloads.materialize(spec)
            if spec.cacheable:
                self._datasets[key] = graph
                while len(self._datasets) > self.max_datasets:
                    self._datasets.popitem(last=False)
            return graph

    def prewarm(self, dataset) -> None:
        """Materialize a dataset ahead of its first request.

        The graph is loaded (or built and stored) on the substrate
        thread, like every load, and kept resident.  Shards are not
        prebuilt: each request draws its own placement, whose shards
        its run builds and the in-memory distgraph LRU keeps.
        """
        self._substrate.submit(lambda: self.materialize(dataset)).result()

    def _probe_input(self, dataset):
        """What a result-cache probe needs of ``dataset``, without loading it.

        A stand-in with the graph's ``content_key``, ``n``, ``m`` and
        ``directed`` — from the resident graph, else the graph cache's
        metadata sidecar — remembered per spec string (they are functions
        of the spec).  ``None`` when there is neither (never built,
        evicted from disk, file-backed): the miss path then materializes.
        """
        from repro import workloads

        shape = self._shapes.get(dataset) if isinstance(dataset, str) else None
        if shape is not None:
            return shape
        key = workloads.parse_spec(dataset).content_hash()
        with self._dataset_lock:
            graph = self._datasets.get(key)
        try:
            if graph is not None:
                n, m, directed = graph.n, graph.m, graph.directed
            else:
                meta = workloads.default_cache().read_meta(key)
                n, m, directed = int(meta["n"]), int(meta["m"]), bool(meta["directed"])
        except (TypeError, KeyError, ValueError):
            return None  # no sidecar, or not one of ours
        shape = SimpleNamespace(content_key=key, n=n, m=m, directed=directed)
        if isinstance(dataset, str):
            if len(self._shapes) >= _SHAPES_KEPT:
                self._shapes.clear()  # spellings are unbounded; the memo is not
            self._shapes[dataset] = shape
        return shape

    def _execute(self, name, data, k, dataset, kwargs):
        """A miss, on the substrate thread: load the dataset, then run.

        The family, its parameters and the seed are checked before the
        dataset loads, so a request that ``run`` would reject fails
        without building (and caching) the dataset.
        """
        if dataset is not None:
            import inspect

            from repro._util import check_seed
            from repro.runtime.registry import get_spec, run

            run_args = inspect.signature(run).parameters
            get_spec(name).check_params(
                {key: value for key, value in kwargs.items() if key not in run_args})
            check_seed(kwargs.get("seed"))
            data = self.materialize(dataset)
        return _registry_run(name, data, k, result_cache=self.store, **kwargs)

    def _on_substrate(self, wait, name, *args):
        """Queue :meth:`_execute` and see it through; ``wait`` bounds the queueing only."""
        from concurrent.futures import TimeoutError as FutureTimeout

        with self._admit:
            if self._queued == 0:
                wait = None  # idle substrate: the run starts at once
            self._queued += 1
        try:
            future = self._substrate.submit(self._execute, name, *args)
            try:
                return future.result(wait)
            except FutureTimeout:
                if not future.cancel():  # it started in time: see it through
                    return future.result()
                with self._admit:
                    self.timeouts += 1
                raise SessionTimeout(
                    f"run {name!r} waited over {wait:.3g}s for the execution "
                    f"substrate"
                ) from None
        finally:
            with self._admit:
                self._queued -= 1

    # -- the request path -----------------------------------------------
    def run(self, name, data=None, k=None, *, dataset=None,
            timeout: "float | None | object" = ..., **kwargs):
        """Run one request through the session; the concurrent entry point.

        Same surface as :func:`repro.runtime.run` (plus ``timeout``).
        Hits on the result cache return without touching the substrate
        or the dataset; misses queue for the substrate thread and
        execute there exclusively.
        """
        wait = self.timeout if timeout is ... else timeout
        with self._admit:
            if self._closed:
                raise ServeError("session is closed")
            if self._inflight >= self.queue_limit:
                self.rejected += 1
                raise SessionSaturated(
                    f"session saturated: {self._inflight} requests in flight "
                    f"(queue_limit={self.queue_limit})"
                )
            self._inflight += 1
            self.requests += 1
        try:
            if dataset is not None and data is not None:
                raise AlgorithmError("pass either data or dataset, not both")
            bypass = kwargs.get("cluster") is not None or kwargs.get("placement") is not None
            if self.store is not None and not bypass:
                probe = data if dataset is None else self._probe_input(dataset)
                report = None if probe is None else _registry_run(
                    name, probe, k, result_cache=self.store, cache_only=True,
                    **kwargs,
                )
                if report is not None:
                    with self._admit:
                        self.cache_hits += 1
                    return report
            report = self._on_substrate(wait, name, data, k, dataset, kwargs)
            with self._admit:
                self.executed += 1
            return report
        except Exception as exc:
            # Timeouts have their own counter; "errors" means the run
            # itself failed (and poisoned only this request).
            if not isinstance(exc, SessionTimeout):
                with self._admit:
                    self.errors += 1
            raise
        finally:
            with self._admit:
                self._inflight -= 1

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """Traffic counters plus substrate residency (JSON-ready)."""
        with self._admit:
            out = {
                "uptime_s": time.time() - self.started,
                "requests": self.requests,
                "cache_hits": self.cache_hits,
                "executed": self.executed,
                "errors": self.errors,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "inflight": self._inflight,
                "queue_limit": self.queue_limit,
                "closed": self._closed,
            }
        with self._dataset_lock:
            out["resident_datasets"] = len(self._datasets)
        if self.store is not None:
            out["result_store"] = self.store.stats()
        return out


def _registry_run(name, data, k, **kwargs):
    from repro.runtime.registry import run

    return run(name, data, k, **kwargs)
