"""Tests for the multiprocessing shard-worker subsystem.

Covers the layers of :mod:`repro.kmachine.parallel`:

* :class:`SharedGraphStore` / :class:`SharedGraphView` — publish,
  zero-copy attach, detach, unlink, and idempotent close;
* :mod:`~repro.kmachine.parallel.shipping` — shared-memory shipment of
  payload/result structures with the pipe fallback for small phases;
* :mod:`~repro.kmachine.parallel.pool` — warm pools reused across
  engines (and across ``runtime.run`` calls), exclusivity while held,
  idle-pool trimming, and explicit shutdown;
* :class:`ProcessEngine` — pool lifecycle, machine→worker pinning,
  kernel scheduling (results in machine order, RNG streams advanced
  worker-side exactly as the inline engines advance them), error
  propagation, and shared-segment cleanup when a worker hard-crashes;
* :class:`Cluster` lifecycle — idempotent close and the GC finalizer
  that keeps leaked clusters from stranding held pools;
* engine selection — ``Cluster(engine="process", workers=...)``,
  ``make_engine`` workers validation.
"""

from __future__ import annotations

import gc
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

import repro
from repro.errors import ModelError
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph
from repro.kmachine.engine import make_engine
from repro.kmachine.network import LinkNetwork
from repro.kmachine.parallel import (
    ProcessEngine,
    SharedGraphStore,
    SharedGraphView,
    active_pools,
    shutdown_worker_pools,
)
from repro.kmachine.parallel import pool as ppool
from repro.kmachine.parallel import shipping
from repro.kmachine.partition import random_vertex_partition
from oracles import pool_running

K = 4


@pytest.fixture
def distgraph():
    g = repro.gnp_random_graph(60, 0.15, seed=3)
    return DistributedGraph(g, random_vertex_partition(60, K, seed=7))


def _cluster(k=K, n=60, seed=11, workers=2) -> Cluster:
    return Cluster(k=k, n=n, seed=seed, engine="process", workers=workers)


# -- module-level kernels (workers resolve them by reference) -----------
def _sum_local_degrees(ctx, machine, rng, payload):
    shardverts = ctx.parts[machine]
    deg = ctx.graph.indptr[shardverts + 1] - ctx.graph.indptr[shardverts]
    return int(deg.sum()) + payload


def _draw(ctx, machine, rng, payload):
    return float(rng.random())


def _crash_one(ctx, machine, rng, payload):
    if machine == payload:
        os._exit(9)
    return machine


def _raise_one(ctx, machine, rng, payload):
    if machine == payload:
        raise ValueError("kernel exploded")
    return machine


def _pid(ctx, machine, rng, payload):
    return os.getpid()


def _echo_scaled(ctx, machine, rng, payload):
    # large-array kernel: exercises shared-memory shipment both ways
    return {"doubled": payload * 2, "tag": machine, "empty": payload[:0]}


def _crash_or_big(ctx, machine, rng, payload):
    # machine 0 hard-crashes while the others reply with shm-sized arrays
    if machine == 0:
        os._exit(13)
    return np.arange(50_000, dtype=np.int64)


class TestSharedGraphStore:
    def test_view_exposes_distgraph_surface(self, distgraph):
        store = SharedGraphStore(distgraph)
        try:
            view = SharedGraphView.attach(store.meta())
            g = distgraph.graph
            assert view.k == distgraph.k and view.n == distgraph.n
            assert np.array_equal(view.graph.indptr, g.indptr)
            assert np.array_equal(view.graph.indices, g.indices)
            assert np.array_equal(view.home, distgraph.home)
            assert np.array_equal(view.nbr_home, distgraph.nbr_home)
            assert len(view.parts) == K
            for mine, theirs in zip(view.parts, distgraph.parts):
                assert np.array_equal(mine, theirs)
            for mine, theirs in zip(view.home_groups, distgraph.home_groups):
                assert np.array_equal(mine, theirs)
            view.detach()
        finally:
            store.close()

    def test_views_are_zero_copy(self, distgraph):
        store = SharedGraphStore(distgraph)
        try:
            view = SharedGraphView.attach(store.meta())
            # the view's arrays live in the shared segment, not the heap
            assert view.graph.indptr.base is not None
            seg = shared_memory.SharedMemory(name=store.key)
            seg.close()
            view.detach()
        finally:
            store.close()

    def test_close_unlinks_segment(self, distgraph):
        store = SharedGraphStore(distgraph)
        name = store.key
        store.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent_and_invalidates_meta(self, distgraph):
        store = SharedGraphStore(distgraph)
        store.close()
        store.close()
        with pytest.raises(ModelError):
            store.meta()


class TestProcessEngineScheduling:
    def test_lazy_pool_and_results_in_machine_order(self, distgraph):
        with _cluster() as cluster:
            engine = cluster.engine
            assert isinstance(engine, ProcessEngine)
            assert not pool_running(engine)  # no map yet -> no processes
            results = cluster.map_machines(
                _sum_local_degrees, distgraph, [100 * i for i in range(K)]
            )
            assert pool_running(engine)
            expected = [
                100 * i + int(np.diff(distgraph.graph.indptr)[distgraph.parts[i]].sum())
                for i in range(K)
            ]
            assert results == expected

    def test_kernels_run_in_distinct_worker_processes(self, distgraph):
        if (os.cpu_count() or 1) < 1:  # pragma: no cover
            pytest.skip("no cpu info")
        with _cluster(workers=2) as cluster:
            pids = cluster.map_machines(_pid, distgraph, [None] * K)
            assert os.getpid() not in pids  # never inline
            # machine i is pinned to worker i % 2
            assert pids[0] == pids[2] and pids[1] == pids[3]
            assert len(set(pids)) == 2

    def test_rng_streams_match_inline_engines(self, distgraph):
        with _cluster(seed=5) as proc:
            inline = Cluster(k=K, n=60, seed=5, engine="vector")
            # Three rounds: the worker-held generators advance exactly like
            # the inline ones, not only start from the same state.
            a = [proc.map_machines(_draw, distgraph, [None] * K) for _ in range(3)]
            b = [inline.map_machines(_draw, distgraph, [None] * K) for _ in range(3)]
            assert a == b

    def test_parent_rng_draws_rejected_after_shipping(self, distgraph):
        # Once streams ship to the workers, the parent copies are stale;
        # drawing from them would silently diverge from the inline
        # engines, so the slots are replaced with raising sentinels.
        with _cluster() as cluster:
            cluster.machine_rngs[0].random()  # fine before the first map
            cluster.map_machines(_draw, distgraph, [None] * K)
            with pytest.raises(ModelError, match="worker"):
                cluster.machine_rngs[0].random()
            with pytest.raises(ModelError, match="map_machines"):
                cluster.machine_rngs[K - 1].integers(0, 2)
            # shared randomness is not delegated and keeps working
            cluster.shared_rng.random()

    def test_kernel_exception_propagates_and_poisons_pool(self, distgraph):
        with _cluster() as cluster:
            with pytest.raises(ModelError, match="kernel exploded"):
                cluster.map_machines(_raise_one, distgraph, [2] * K)
            # Other machines' streams already advanced past where the
            # inline serial loop would have stopped, so the pool cannot
            # reproduce inline draws anymore: it must not accept retries.
            assert not pool_running(cluster.engine)
            with pytest.raises(ModelError, match="closed"):
                cluster.map_machines(_draw, distgraph, [None] * K)

    def test_payload_count_validated(self, distgraph):
        with _cluster() as cluster:
            with pytest.raises(ModelError, match="payload"):
                cluster.map_machines(_draw, distgraph, [None] * (K + 1))


class TestStoreEviction:
    def test_store_cache_is_bounded_lru(self):
        from repro.kmachine.parallel import pool as ppool

        g = repro.gnp_random_graph(40, 0.2, seed=1)
        distgraphs = [
            DistributedGraph(g, random_vertex_partition(g.n, K, seed=s))
            for s in range(ppool.MAX_STORES + 2)
        ]
        with _cluster(n=g.n) as cluster:
            keys = []
            for dg in distgraphs:
                cluster.map_machines(_sum_local_degrees, dg, [0] * K)
                keys.append(list(cluster.engine.pool._stores.values())[-1].key)
            assert len(cluster.engine.pool._stores) == ppool.MAX_STORES
            # the two oldest segments were unlinked
            for key in keys[:2]:
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=key)
            # evicted distgraphs republish (and still compute correctly)
            sums = cluster.map_machines(_sum_local_degrees, distgraphs[0], [0] * K)
            assert sum(sums) == int(g.indices.size)


class TestWorkerCrashCleanup:
    def test_crash_shuts_pool_and_unlinks_segments(self, distgraph):
        cluster = _cluster()
        engine = cluster.engine
        # healthy superstep first, so the store is published
        cluster.map_machines(_sum_local_degrees, distgraph, [0] * K)
        segment = engine.pool.ensure_store(distgraph).key
        with pytest.raises(ModelError, match="died"):
            cluster.map_machines(_crash_one, distgraph, [1] * K)
        assert not pool_running(engine)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)
        cluster.close()  # idempotent after crash

    def test_closed_engine_rejects_new_work(self, distgraph):
        cluster = _cluster()
        cluster.map_machines(_sum_local_degrees, distgraph, [0] * K)
        cluster.close()
        with pytest.raises(ModelError, match="closed"):
            cluster.map_machines(_sum_local_degrees, distgraph, [0] * K)

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
    def test_crash_leaks_no_shipping_segments(self, distgraph):
        # Regression: a hard crash mid-superstep must also release the
        # per-shipment segments — the surviving workers' queued replies
        # and every undelivered payload wire — not just the graph store.
        import glob

        shutdown_worker_pools()
        before = set(glob.glob("/dev/shm/psm_*"))
        cluster = _cluster(workers=K)
        with pytest.raises(ModelError, match="died"):
            cluster.map_machines(
                _crash_or_big, distgraph, [np.zeros(20_000)] * K
            )
        shutdown_worker_pools()
        assert set(glob.glob("/dev/shm/psm_*")) - before == set()

    def test_crash_drain_bug_surfaces_after_cleanup(self, distgraph, monkeypatch):
        # The crash handler drains the surviving workers' replies; only a
        # broken pipe may be swallowed there, never a programming error.
        def broken_poll(pool, worker, timeout=0.0):
            raise AttributeError("poll is broken")

        cluster = _cluster(workers=2)
        engine = cluster.engine
        cluster.map_machines(_sum_local_degrees, distgraph, [0] * K)
        segment = engine.pool.ensure_store(distgraph).key
        monkeypatch.setattr(ppool.WorkerPool, "poll", broken_poll)
        # Machine 0 lives on worker 0, so worker 1's reply is still pending.
        with pytest.raises(AttributeError, match="poll is broken"):
            cluster.map_machines(_crash_one, distgraph, [0] * K)
        assert not pool_running(engine)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)
        cluster.close()


class TestEngineSelection:
    def test_cluster_process_engine_and_worker_cap(self):
        c = Cluster(k=3, n=50, seed=1, engine="process", workers=16)
        assert c.engine.name == "process"
        assert c.engine.workers == 3  # capped at k
        c.close()

    def test_workers_rejected_for_inline_engines(self):
        net = LinkNetwork(k=3, bandwidth=8)
        with pytest.raises(ModelError, match="workers"):
            make_engine("vector", net, workers=2)
        with pytest.raises(ModelError, match="workers"):
            Cluster(k=3, n=50, engine="message", workers=2)

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ModelError, match="workers"):
            Cluster(k=3, n=50, engine="process", workers=0)

    def test_exchange_layer_is_vector_inherited(self):
        # the process backend's exchange path is VectorEngine's, verbatim
        from repro.kmachine.engine import VectorEngine

        assert issubclass(ProcessEngine, VectorEngine)
        assert ProcessEngine.exchange_batches is VectorEngine.exchange_batches


class TestAttachCrossProcess:
    def test_worker_attachment_reads_identical_arrays(self, distgraph):
        """A view attached in a real worker sees the published arrays."""
        with _cluster() as cluster:
            sums = cluster.map_machines(_sum_local_degrees, distgraph, [0] * K)
            assert sum(sums) == int(distgraph.graph.indices.size)


class TestShipping:
    def test_small_shipments_stay_inline(self):
        obj = {"a": np.arange(4), "b": None}
        wire = shipping.ship(obj)
        assert wire[0] == "inline" and wire[1] is obj
        assert shipping.receive(wire) is obj

    def test_large_shipment_roundtrips_through_shared_memory(self):
        obj = {
            "cols": {"u": np.arange(500, dtype=np.int64), "v": np.arange(500.0)},
            "pair": (np.ones((7, 2)), "label", 3),
            "empty": np.zeros(0, dtype=np.int32),
            "none": None,
        }
        wire = shipping.ship(obj, threshold=0)
        assert wire[0] == "shm"
        name = wire[2]
        out = shipping.receive(wire)
        assert np.array_equal(out["cols"]["u"], obj["cols"]["u"])
        assert np.array_equal(out["cols"]["v"], obj["cols"]["v"])
        assert np.array_equal(out["pair"][0], obj["pair"][0])
        assert out["pair"][1:] == ("label", 3)
        assert out["empty"].size == 0 and out["empty"].dtype == np.int32
        assert out["none"] is None
        # the receiver consumed (unlinked) the per-shipment segment
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_object_and_structured_arrays_ride_the_pipe(self):
        rec = np.zeros(3, dtype=[("a", np.int64), ("b", np.float64)])
        objarr = np.array([None, "x"], dtype=object)
        wire = shipping.ship({"rec": rec, "obj": objarr}, threshold=0)
        assert wire[0] == "inline"

    def test_discard_releases_an_undelivered_segment(self):
        wire = shipping.ship(np.arange(1000), threshold=0)
        assert wire[0] == "shm"
        shipping.discard(wire)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=wire[2])
        shipping.discard(wire)  # idempotent

    def test_map_machines_results_survive_forced_shm_path(
        self, distgraph, monkeypatch
    ):
        # Force every payload/result shipment through shared memory and
        # check kernels still see (and return) identical data.  The
        # patched threshold is inherited by the freshly forked pool.
        shutdown_worker_pools()
        monkeypatch.setattr(shipping, "SHM_MIN_BYTES", 0)
        try:
            with _cluster() as cluster:
                payloads = [np.arange(100) + i for i in range(K)]
                out = cluster.map_machines(_echo_scaled, distgraph, payloads)
                for i in range(K):
                    assert np.array_equal(out[i]["doubled"], payloads[i] * 2)
                    assert out[i]["tag"] == i
                    assert out[i]["empty"].size == 0
        finally:
            shutdown_worker_pools()  # don't leak a force-shm pool to other tests


class TestWarmPools:
    def test_consecutive_clusters_reuse_the_same_workers(self, distgraph):
        shutdown_worker_pools()
        with _cluster() as c1:
            c1.map_machines(_pid, distgraph, [None] * K)
            pool1 = c1.engine.pool
            pids1 = pool1.pids
        # released warm: same pool object, same worker processes
        with _cluster() as c2:
            pids2 = c2.map_machines(_pid, distgraph, [None] * K)
            assert c2.engine.pool is pool1
        assert set(pids2) == set(pids1)

    def test_warm_pool_keeps_published_stores(self, distgraph):
        shutdown_worker_pools()
        with _cluster() as c1:
            c1.map_machines(_sum_local_degrees, distgraph, [0] * K)
            store_key = c1.engine.pool.ensure_store(distgraph).key
        with _cluster() as c2:
            sums = c2.map_machines(_sum_local_degrees, distgraph, [0] * K)
            assert sum(sums) == int(distgraph.graph.indices.size)
            # same segment, no republication
            assert c2.engine.pool.ensure_store(distgraph).key == store_key

    def test_held_pools_are_exclusive(self, distgraph):
        shutdown_worker_pools()
        c1, c2 = _cluster(), _cluster()
        try:
            c1.map_machines(_pid, distgraph, [None] * K)
            c2.map_machines(_pid, distgraph, [None] * K)
            assert c1.engine.pool is not c2.engine.pool
        finally:
            c1.close()
            c2.close()

    def test_idle_pools_are_trimmed(self, distgraph):
        shutdown_worker_pools()
        clusters = [_cluster(workers=w) for w in (1, 2, 3)]
        try:
            for c in clusters:
                c.map_machines(_pid, distgraph, [None] * K)
        finally:
            for c in clusters:
                c.close()
        idle = [p for p in active_pools() if p.holder is None]
        assert len(idle) == ppool.MAX_IDLE_POOLS

    def test_rng_streams_are_replaced_per_holder(self, distgraph):
        # Pool reuse must not leak randomness: a fresh cluster on a warm
        # pool draws exactly what a fresh cluster on a cold pool draws.
        shutdown_worker_pools()
        with _cluster(seed=5) as warmup:
            warmup.map_machines(_draw, distgraph, [None] * K)
        with _cluster(seed=5) as reused:  # warm pool, fresh streams
            warm_draws = reused.map_machines(_draw, distgraph, [None] * K)
        shutdown_worker_pools()
        with _cluster(seed=5) as cold:
            cold_draws = cold.map_machines(_draw, distgraph, [None] * K)
        assert warm_draws == cold_draws

    def test_kernel_error_releases_pool_warm_but_not_poisoned(self, distgraph):
        shutdown_worker_pools()
        cluster = _cluster(seed=5)
        with pytest.raises(ModelError, match="kernel exploded"):
            cluster.map_machines(_raise_one, distgraph, [2] * K)
        # the pool survived (fresh streams make it reusable) ...
        idle = [p for p in active_pools() if p.holder is None]
        assert len(idle) == 1
        with _cluster(seed=5) as fresh:
            draws = fresh.map_machines(_draw, distgraph, [None] * K)
            assert fresh.engine.pool is idle[0]
        shutdown_worker_pools()
        with _cluster(seed=5) as cold:
            assert cold.map_machines(_draw, distgraph, [None] * K) == draws

    def test_shutdown_worker_pools_joins_and_unlinks(self, distgraph):
        shutdown_worker_pools()
        cluster = _cluster()
        cluster.map_machines(_sum_local_degrees, distgraph, [0] * K)
        pool = cluster.engine.pool
        segment = pool.ensure_store(distgraph).key
        procs = list(pool._procs)
        cluster.close()
        shutdown_worker_pools()
        assert active_pools() == ()
        assert all(not proc.is_alive() for proc in procs)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=segment)


class TestClusterLifecycle:
    def test_close_is_idempotent(self, distgraph):
        cluster = _cluster()
        cluster.map_machines(_pid, distgraph, [None] * K)
        cluster.close()
        cluster.close()
        cluster.close()
        assert not pool_running(cluster.engine)

    def test_leaked_cluster_releases_its_pool(self, distgraph):
        # Regression: a cluster that is never closed must not strand a
        # held worker pool (or its shared-memory segments) — the GC
        # finalizer releases it back to the warm registry.
        shutdown_worker_pools()
        cluster = _cluster()
        cluster.map_machines(_pid, distgraph, [None] * K)
        pool = cluster.engine.pool
        assert pool.holder is cluster.engine
        del cluster
        gc.collect()
        assert pool.holder is None
        assert pool in active_pools() and pool.alive
        # and the next cluster can acquire it
        with _cluster() as fresh:
            fresh.map_machines(_pid, distgraph, [None] * K)
            assert fresh.engine.pool is pool

