"""Lifecycle tests for worker-resident driver state and outbox assembly.

The resident contract (``Engine.install_resident`` / ``pull_resident``
/ ``drop_resident`` + ``map_machines(..., resident=, assemble=)``) keeps
per-machine driver state inside the owning shard workers between
supersteps.  That state must be *holder-scoped*: a warm pool handed from
one cluster to the next must never serve the previous holder's states,
a worker crash must invalidate every installed bundle, and handles must
not cross engine kinds.  These tests pin that lifecycle end to end,
including two sequential ``runtime.run(engine="process")`` calls with
different algorithms sharing one warm pool.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from repro import runtime
from repro.errors import ModelError
from repro.kmachine.cluster import Cluster
from repro.kmachine.distgraph import DistributedGraph
from repro.kmachine.parallel import shutdown_worker_pools
from repro.kmachine.parallel import pool as ppool
from repro.kmachine.partition import random_vertex_partition

K = 4


@pytest.fixture
def distgraph():
    g = repro.gnp_random_graph(60, 0.15, seed=3)
    return DistributedGraph(g, random_vertex_partition(60, K, seed=7))


def _cluster(engine="process", workers=2, k=K, n=60, seed=11) -> Cluster:
    kwargs = {"workers": workers} if engine == "process" else {}
    return Cluster(k=k, n=n, seed=seed, engine=engine, **kwargs)


# -- module-level kernels (workers resolve them by reference) -----------
def _bump(ctx, machine, rng, payload, state):
    state["count"] += payload
    state["seen"].append(machine)
    return state["count"]


def _read_count(ctx, machine, rng, payload, state):
    return state["count"]


def _crash_holder(ctx, machine, rng, payload, state):
    if machine == payload:
        os._exit(11)
    return state["count"]


def _emit_rows(ctx, machine, rng, payload, state):
    state["count"] += 1
    return {"src": np.full(payload, machine, dtype=np.int64),
            "val": np.arange(payload, dtype=np.int64)}


def _concat_rows(machines, results):
    return {
        "src": np.concatenate([r["src"] for r in results]),
        "val": np.concatenate([r["val"] for r in results]),
        "machines": list(machines),
    }


def _fresh_states():
    return [{"count": 0, "seen": []} for _ in range(K)]


class TestResidentRoundTrip:
    @pytest.mark.parametrize("engine", ["message", "vector", "process"])
    def test_install_map_pull_drop(self, engine, distgraph):
        with _cluster(engine=engine) as cluster:
            handle = cluster.install_resident(_fresh_states(), distgraph=distgraph)
            out1 = cluster.map_machines(_bump, distgraph, [2] * K, resident=handle)
            out2 = cluster.map_machines(_bump, distgraph, [3] * K, resident=handle)
            assert out1 == [2] * K
            assert out2 == [5] * K  # mutation persisted between supersteps
            states = cluster.pull_resident(handle)
            assert [s["count"] for s in states] == [5] * K
            assert [s["seen"] for s in states] == [[i, i] for i in range(K)]
            cluster.drop_resident(handle)
            with pytest.raises(ModelError):
                cluster.map_machines(_read_count, distgraph, [None] * K,
                                     resident=handle)

    @pytest.mark.parametrize("engine", ["vector", "process"])
    def test_assemble_groups_cover_all_machines(self, engine, distgraph):
        with _cluster(engine=engine) as cluster:
            handle = cluster.install_resident(_fresh_states(), distgraph=distgraph)
            groups = cluster.map_machines(
                _emit_rows, distgraph, [3] * K, resident=handle,
                assemble=_concat_rows,
            )
            covered = sorted(m for g in groups for m in g["machines"])
            assert covered == list(range(K))
            # Within a group machines are ascending and rows contiguous.
            for g in groups:
                assert g["machines"] == sorted(g["machines"])
                assert np.array_equal(
                    g["src"], np.repeat(np.asarray(g["machines"]), 3))
            if engine == "process":
                assert len(groups) == cluster.engine.workers
            else:
                assert len(groups) == 1

    def test_install_before_first_superstep_ships_rngs(self, distgraph):
        # install_resident as the very first pool interaction must not
        # desync the RNG handoff: draws afterwards match the inline run.
        def draws(engine):
            with _cluster(engine=engine) as cluster:
                handle = cluster.install_resident(
                    _fresh_states(), distgraph=distgraph)
                out = cluster.map_machines(
                    _draw_with_state, distgraph, [None] * K, resident=handle)
                cluster.drop_resident(handle)
                return out

        shutdown_worker_pools()
        assert draws("process") == draws("vector")


def _draw_with_state(ctx, machine, rng, payload, state):
    return float(rng.random())


class TestResidentTraceSpans:
    @pytest.mark.parametrize("engine", ["message", "vector", "process"])
    def test_install_and_pull_emit_resident_spans(self, engine, distgraph):
        from repro.obs.trace import Tracer

        with _cluster(engine=engine) as cluster:
            tracer = Tracer()
            cluster.engine.tracer = tracer
            handle = cluster.install_resident(
                _fresh_states(), distgraph=distgraph)
            cluster.map_machines(_bump, distgraph, [1] * K, resident=handle)
            cluster.pull_resident(handle)
        spans = [e for e in tracer.events
                 if e.get("event") == "phase" and e.get("op") == "resident"]
        labels = [e["label"] for e in spans]
        assert labels == ["install", "pull"]
        assert all(e["wall_s"] >= 0 for e in spans)

    def test_inline_handle_pull_on_process_engine_is_untraced(self, distgraph):
        # The process engine's early return for inline handles is a free
        # parent-side read: no span, so coverage is not polluted with
        # zero-width noise.
        from repro.kmachine.engine import ResidentHandle
        from repro.obs.trace import Tracer

        with _cluster(engine="process") as cluster:
            tracer = Tracer()
            cluster.engine.tracer = tracer
            handle = ResidentHandle("inline-token", _fresh_states())
            cluster.pull_resident(handle)
        assert not any(e.get("op") == "resident" for e in tracer.events)

    def test_resident_spans_fold_into_the_summary(self, distgraph):
        from repro.obs import summarize_trace
        from repro.obs.trace import Tracer

        with _cluster(engine="vector") as cluster:
            tracer = Tracer()
            cluster.engine.tracer = tracer
            handle = cluster.install_resident(
                _fresh_states(), distgraph=distgraph)
            cluster.map_machines(_bump, distgraph, [1] * K, resident=handle)
            cluster.pull_resident(handle)
        summary = summarize_trace(tracer.events)
        resident = [g for g in summary["groups"] if g["op"] == "resident"]
        assert {g["label"] for g in resident} == {"install", "pull"}


class TestHolderScoping:
    def test_warm_pool_handoff_invalidates_previous_residents(self, distgraph):
        shutdown_worker_pools()
        with _cluster() as c1:
            handle = c1.install_resident(_fresh_states(), distgraph=distgraph)
            c1.map_machines(_bump, distgraph, [1] * K, resident=handle)
            pool1 = c1.engine.pool
        # Pool released warm; the next holder reuses the same workers.
        with _cluster() as c2:
            c2.map_machines_plain_ok = c2.map_machines(
                _pid_kernel, distgraph, [None] * K)
            assert c2.engine.pool is pool1
            # The old holder's handle is rejected at the engine boundary.
            with pytest.raises(ModelError, match="not installed"):
                c2.map_machines(_read_count, distgraph, [None] * K,
                                resident=handle)
            # And the worker side really dropped the states: a fresh
            # install under the new holder starts from scratch.
            h2 = c2.install_resident(_fresh_states(), distgraph=distgraph)
            assert c2.map_machines(_read_count, distgraph, [None] * K,
                                   resident=h2) == [0] * K

    def test_two_sequential_runtime_runs_share_a_pool_cleanly(self):
        # Two different algorithms, one warm pool: the second holder's
        # resident supersteps must match its inline-engine run exactly —
        # any stale first-holder state would break bit-identity.
        shutdown_worker_pools()
        graph = repro.gnp_random_graph(150, 8 / 150, seed=5)
        try:
            pr_proc = runtime.run("pagerank", graph, K, seed=1,
                                  engine="process", workers=2)
            cc_proc = runtime.run("connectivity", graph, K, seed=1,
                                  engine="process", workers=2)
        finally:
            shutdown_worker_pools()
        pr_inline = runtime.run("pagerank", graph, K, seed=1, engine="vector")
        cc_inline = runtime.run("connectivity", graph, K, seed=1,
                                engine="vector")
        assert np.array_equal(pr_proc.result.estimates,
                              pr_inline.result.estimates)
        assert np.array_equal(cc_proc.result.labels, cc_inline.result.labels)
        assert pr_proc.metrics.bits == pr_inline.metrics.bits
        assert cc_proc.metrics.bits == cc_inline.metrics.bits

    def test_store_eviction_drops_bound_residents(self, distgraph, monkeypatch):
        # A resident bundle installed with distgraph= is bound to that
        # graph's published store: LRU eviction severs it worker-side.
        monkeypatch.setattr(ppool, "MAX_STORES", 1)
        g2 = repro.gnp_random_graph(60, 0.15, seed=9)
        dg2 = DistributedGraph(g2, random_vertex_partition(60, K, seed=8))
        shutdown_worker_pools()
        try:
            with _cluster() as cluster:
                handle = cluster.install_resident(
                    _fresh_states(), distgraph=distgraph)
                cluster.map_machines(_bump, distgraph, [1] * K, resident=handle)
                # Publishing a second graph evicts the first store (and
                # with it the bound resident bundle in every worker).
                cluster.map_machines(_pid_kernel, dg2, [None] * K)
                with pytest.raises(ModelError, match="invalidated"):
                    cluster.map_machines(_read_count, distgraph, [None] * K,
                                         resident=handle)
        finally:
            shutdown_worker_pools()  # the MAX_STORES=1 pool must not leak


def _pid_kernel(ctx, machine, rng, payload):
    return os.getpid()


class TestCrashInvalidation:
    def test_crash_kills_pool_and_residents(self, distgraph):
        shutdown_worker_pools()
        cluster = _cluster()
        handle = cluster.install_resident(_fresh_states(), distgraph=distgraph)
        with pytest.raises(ModelError, match="died"):
            cluster.map_machines(_crash_holder, distgraph, [0] * K,
                                 resident=handle)
        assert not cluster.engine.running
        with pytest.raises(ModelError):
            cluster.pull_resident(handle)
        cluster.close()
        # A fresh cluster gets a fresh pool and a clean install.
        with _cluster() as c2:
            h2 = c2.install_resident(_fresh_states(), distgraph=distgraph)
            assert c2.map_machines(_read_count, distgraph, [None] * K,
                                   resident=h2) == [0] * K


class TestCrossEngineMisuse:
    def test_inline_handle_rejected_by_process_engine(self, distgraph):
        with _cluster(engine="vector") as inline:
            handle = inline.install_resident(_fresh_states())
        with _cluster(engine="process") as proc:
            with pytest.raises(ModelError, match="inline engine"):
                proc.map_machines(_read_count, distgraph, [None] * K,
                                  resident=handle)

    def test_process_handle_rejected_by_inline_engine(self, distgraph):
        shutdown_worker_pools()
        with _cluster(engine="process") as proc:
            handle = proc.install_resident(_fresh_states(), distgraph=distgraph)
            with _cluster(engine="vector") as inline:
                with pytest.raises(ModelError, match="not readable|inline"):
                    inline.map_machines(_read_count, distgraph, [None] * K,
                                        resident=handle)

    def test_foreign_process_handle_rejected(self, distgraph):
        shutdown_worker_pools()
        c1, c2 = _cluster(), _cluster()
        try:
            h1 = c1.install_resident(_fresh_states(), distgraph=distgraph)
            c2.map_machines(_pid_kernel, distgraph, [None] * K)
            with pytest.raises(ModelError, match="not installed"):
                c2.map_machines(_read_count, distgraph, [None] * K,
                                resident=h1)
        finally:
            c1.close()
            c2.close()

    def test_state_count_must_match_k(self):
        with _cluster(engine="vector") as cluster:
            with pytest.raises(ModelError, match="one resident state per machine"):
                cluster.install_resident([{}] * (K - 1))
