"""Tests for the runtime registry and the unified run() entry point.

Extends the PR-1 cross-engine equivalence suite to the registry: every
registered family, run through ``runtime.run()`` on a small fixed input,
must produce bit-identical results and accounting on all three execution
backends (per-object, vectorized, and multiprocessing shard workers) —
and must match a direct call to the family entry point.
"""

import inspect

import numpy as np
import pytest

import repro
from repro import runtime
from repro.errors import AlgorithmError, ModelError
from repro.kmachine.distgraph import (
    DistributedGraph,
    cached_distgraph,
    clear_distgraph_cache,
)
from repro.kmachine.partition import random_vertex_partition
from repro.runtime.registry import _SUPPLIED, AlgorithmSpec

ENGINES = ("message", "vector", "process")
SEED = 17
K = 4

#: The small fixed graph every family runs on.
FIXED_GRAPH = repro.gnp_random_graph(48, 0.25, seed=5)
#: The fixed value array for "values" families.
FIXED_VALUES = np.random.default_rng(5).random(300)


def _input_for(name):
    return FIXED_VALUES if runtime.get_spec(name).input_kind == "values" else FIXED_GRAPH


def _metrics_signature(metrics):
    """Everything the equivalence contract promises about accounting."""
    return (
        metrics.rounds,
        metrics.phases,
        metrics.messages,
        metrics.bits,
        metrics.local_messages,
        metrics.sent_bits.tolist(),
        metrics.received_bits.tolist(),
        [(p.rounds, p.bits, p.max_link_bits, p.label) for p in metrics.phase_log],
    )


def _result_signature(name, result):
    """A bit-exact fingerprint of the family result."""
    if name in ("pagerank", "pagerank-baseline"):
        return (result.estimates.tobytes(), result.iterations)
    if name in (
        "triangles",
        "subgraphs",
        "congested-clique-triangles",
        "triangles-conversion",
    ):
        return (result.triangles.tobytes(), result.per_machine_output.tobytes())
    if name == "mst":
        return (result.edges.tobytes(), result.total_weight, result.phases)
    if name == "connectivity":
        return (result.labels.tobytes(), result.num_components)
    if name == "sorting":
        return tuple(b.tobytes() for b in result.blocks)
    raise AssertionError(f"no signature rule for {name!r}")


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("name", runtime.available())
    def test_bit_identical_results_and_metrics_across_engines(self, name):
        reports = [
            runtime.run(name, _input_for(name), K, seed=SEED, engine=e)
            for e in ENGINES
        ]
        base = reports[0]
        for other in reports[1:]:
            assert _result_signature(name, base.result) == _result_signature(
                name, other.result
            )
            assert _metrics_signature(base.metrics) == _metrics_signature(
                other.metrics
            )
        assert tuple(r.engine for r in reports) == ENGINES

    @pytest.mark.parametrize("name", runtime.available())
    def test_registry_run_matches_direct_call(self, name):
        rep = runtime.run(name, _input_for(name), K, seed=SEED)
        direct = {
            "pagerank": lambda: repro.distributed_pagerank(
                FIXED_GRAPH, k=K, seed=SEED, c=16.0
            ),
            "pagerank-baseline": lambda: repro.baseline_pagerank(
                FIXED_GRAPH, k=K, seed=SEED, c=16.0
            ),
            "triangles": lambda: repro.enumerate_triangles_distributed(
                FIXED_GRAPH, k=K, seed=SEED
            ),
            "subgraphs": lambda: repro.enumerate_subgraphs_distributed(
                FIXED_GRAPH, k=K, seed=SEED
            ),
            "mst": lambda: repro.distributed_mst(
                FIXED_GRAPH,
                np.random.default_rng(SEED).random(FIXED_GRAPH.m),
                k=K,
                seed=SEED,
            ),
            "connectivity": lambda: repro.connected_components_distributed(
                FIXED_GRAPH, k=K, seed=SEED
            ),
            "sorting": lambda: repro.distributed_sort(FIXED_VALUES, k=K, seed=SEED),
            "congested-clique-triangles": lambda: (
                repro.enumerate_triangles_congested_clique(FIXED_GRAPH, seed=SEED)
            ),
            "triangles-conversion": lambda: repro.enumerate_triangles_conversion(
                FIXED_GRAPH, k=K, seed=SEED
            ),
        }[name]()
        assert _result_signature(name, rep.result) == _result_signature(name, direct)
        assert _metrics_signature(rep.metrics) == _metrics_signature(direct.metrics)


class TestRunReport:
    def test_report_fields(self):
        rep = runtime.run("triangles", FIXED_GRAPH, K, seed=SEED)
        assert rep.name == "triangles"
        assert rep.k == K and rep.n == FIXED_GRAPH.n
        assert rep.rounds == rep.metrics.rounds
        assert rep.bandwidth == rep.metrics.bandwidth
        assert isinstance(rep.result, rep.spec.result_type)
        assert rep.distgraph is not None
        assert rep.distgraph.graph is FIXED_GRAPH

    def test_round_value_uses_spec_metric(self):
        rep = runtime.run("pagerank", FIXED_GRAPH, K, seed=SEED, c=2)
        assert rep.round_value() == rep.result.token_rounds()

    def test_lower_bound_evaluates_cookbook(self):
        rep = runtime.run("sorting", FIXED_VALUES, K, seed=SEED)
        lb = rep.lower_bound()
        assert lb is not None and lb > 0
        expected = repro.sorting_round_lower_bound(
            FIXED_VALUES.size, K, rep.bandwidth
        )
        assert lb == expected

    def test_lower_bound_none_when_spec_has_none(self):
        rep = runtime.run("subgraphs", FIXED_GRAPH, 16, seed=SEED)
        assert rep.lower_bound() is None

    def test_triangle_lower_bound_uses_measured_t(self):
        # Theorem 3's bound needs the output count; the spec threads it
        # through so sparse inputs don't report a bound above the rounds.
        g = repro.gnp_random_graph(300, 4 / 300, seed=2)
        rep = runtime.run("triangles", g, K, seed=SEED)
        expected = repro.triangle_round_lower_bound(
            g.n, K, rep.bandwidth, t=max(1, rep.result.count)
        )
        assert rep.lower_bound() == expected
        assert rep.lower_bound() <= rep.rounds

    def test_params_merge_defaults_and_overrides(self):
        rep = runtime.run("subgraphs", FIXED_GRAPH, 16, seed=SEED, pattern="c4")
        assert rep.params["pattern"] == "c4"
        rep2 = runtime.run("subgraphs", FIXED_GRAPH, 16, seed=SEED)
        assert rep2.params["pattern"] == "k4"


class TestRegistryAPI:
    def test_available_lists_all_families(self):
        names = runtime.available()
        assert names == tuple(sorted(names))
        for expected in (
            "connectivity",
            "mst",
            "pagerank",
            "pagerank-baseline",
            "sorting",
            "subgraphs",
            "triangles",
        ):
            assert expected in names

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(AlgorithmError, match="registered:"):
            runtime.get_spec("nope")
        with pytest.raises(AlgorithmError):
            runtime.run("nope", FIXED_GRAPH, K)

    def test_duplicate_register_rejected(self):
        spec = runtime.get_spec("pagerank")
        with pytest.raises(AlgorithmError, match="already registered"):
            runtime.register(spec)

    def test_spec_validates_input_kind(self):
        with pytest.raises(AlgorithmError):
            AlgorithmSpec(
                name="x",
                title="x",
                runner=lambda *a: None,
                entry="repro.core.sorting.distributed:distributed_sort",
                input_kind="tensor",
                result_type=object,
                bounds="",
            )

    def test_specs_metadata_complete(self):
        for spec in runtime.specs():
            assert spec.title and spec.bounds
            assert spec.input_kind in ("graph", "values")
            assert isinstance(spec.result_type, type)
            # Every default is a parameter the entry point takes (the run
            # seed MST's weights draw from is filled by run() itself), and
            # no family parameter shares a name with a run() argument.
            assert set(spec.default_params) - {"seed"} <= spec.accepted_params
            assert not spec.accepted_params & set(inspect.signature(runtime.run).parameters)

    def test_unknown_param_rejected_naming_the_accepted_ones(self):
        with pytest.raises(AlgorithmError,
                           match="no parameter 'nope'; it accepts: c, enable_heavy_path"):
            runtime.run("pagerank", FIXED_GRAPH, K, seed=SEED, nope=1)
        with pytest.raises(AlgorithmError, match="'partition'.*accepts: none"):
            runtime.run("connectivity", FIXED_GRAPH, K, partition=None)

    @pytest.mark.parametrize("name", runtime.available())
    def test_every_family_rejects_an_unknown_param(self, name):
        # Each family names its entry point, so run() refuses a key the
        # entry point does not take and lists the ones it does.
        accepted = runtime.get_spec(name).accepted_params
        listed = ", ".join(sorted(accepted)) or "none"
        with pytest.raises(AlgorithmError,
                           match=f"no parameter 'zz_unknown'; it accepts: {listed}$"):
            runtime.run(name, _input_for(name), K, seed=SEED, zz_unknown=1)

    @pytest.mark.parametrize("name", runtime.available())
    def test_runner_calls_the_entry_point(self, name, monkeypatch):
        # check_params reads the signature of spec.entry_point, so that
        # must be the function the runner calls; every argument the runner
        # fills itself must be one check_params keeps out of the family's.
        spec = runtime.get_spec(name)
        signature = inspect.signature(spec.entry_point)
        calls = []
        monkeypatch.setitem(spec.__dict__, "entry_point",
                            lambda *args, **kwargs: calls.append((args, kwargs)) or "called")
        params = dict(spec.default_params)
        with repro.Cluster(k=K, n=40, seed=SEED) as cluster:
            assert spec.runner(_input_for(name), cluster, None, params) == "called"
        [(args, kwargs)] = calls
        filled = set(signature.bind(*args, **kwargs).arguments) - set(params)
        assert filled and filled <= _SUPPLIED

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(AlgorithmError, match="seed must be an integer >= 0"):
            runtime.run("triangles", FIXED_GRAPH, K, seed=seed)


class TestPlacementAndCluster:
    def test_explicit_placement_is_used(self):
        part = random_vertex_partition(FIXED_GRAPH.n, K, seed=3)
        rep = runtime.run("triangles", FIXED_GRAPH, K, seed=SEED, placement=part)
        assert rep.distgraph.partition is part

    def test_prebuilt_distgraph_reused(self):
        part = random_vertex_partition(FIXED_GRAPH.n, K, seed=3)
        dg = DistributedGraph(FIXED_GRAPH, part)
        rep = runtime.run("pagerank", FIXED_GRAPH, K, seed=SEED, placement=dg, c=2)
        assert rep.distgraph is dg

    def test_mismatched_cluster_k_rejected(self):
        cluster = repro.Cluster(k=3, n=FIXED_GRAPH.n, seed=0)
        with pytest.raises(AlgorithmError):
            runtime.run("triangles", FIXED_GRAPH, K, cluster=cluster)

    def test_same_partition_same_results_across_engines(self):
        # With a pinned placement, everything downstream is a pure function
        # of the machine RNG streams — identical on every backend.
        part = random_vertex_partition(FIXED_GRAPH.n, K, seed=8)
        sigs = []
        for e in ENGINES:
            rep = runtime.run(
                "pagerank", FIXED_GRAPH, K, seed=SEED, engine=e, placement=part, c=2
            )
            sigs.append(_result_signature("pagerank", rep.result))
        assert all(s == sigs[0] for s in sigs[1:])


class TestProcessEngineKnobs:
    def test_workers_knob_reported(self):
        rep = runtime.run(
            "pagerank", FIXED_GRAPH, K, seed=SEED, engine="process", workers=2, c=2
        )
        assert rep.engine == "process"
        assert rep.workers == 2

    def test_workers_capped_at_k(self):
        rep = runtime.run(
            "pagerank", FIXED_GRAPH, K, seed=SEED, engine="process", workers=64, c=2
        )
        assert rep.workers == K

    def test_inline_engines_report_no_workers(self):
        rep = runtime.run("pagerank", FIXED_GRAPH, K, seed=SEED, engine="vector", c=2)
        assert rep.workers is None

    def test_workers_with_inline_engine_rejected(self):
        with pytest.raises(ModelError, match="workers"):
            runtime.run(
                "pagerank", FIXED_GRAPH, K, seed=SEED, engine="vector", workers=2, c=2
            )

    def test_workers_with_explicit_cluster_rejected(self):
        cluster = repro.Cluster(k=K, n=FIXED_GRAPH.n, seed=0)
        with pytest.raises(AlgorithmError, match="workers"):
            runtime.run(
                "pagerank", FIXED_GRAPH, K, cluster=cluster, workers=2, c=2
            )


class TestWarmPoolReuse:
    def test_consecutive_runs_reuse_the_same_worker_pool(self):
        # The tentpole contract: two consecutive runtime.run calls on the
        # process backend reuse the same worker pool — no respawn.  The
        # run-owned cluster close releases the pool warm instead of
        # destroying it.
        from repro.kmachine.parallel import active_pools, shutdown_worker_pools

        shutdown_worker_pools()
        rep1 = runtime.run(
            "triangles", FIXED_GRAPH, K, seed=SEED, engine="process", workers=2
        )
        pools = active_pools()
        assert len(pools) == 1
        pool = pools[0]
        assert pool.holder is None and pool.alive  # released warm, not destroyed
        pids = pool.pids
        rep2 = runtime.run(
            "triangles", FIXED_GRAPH, K, seed=SEED, engine="process", workers=2
        )
        assert active_pools() == (pool,)
        assert pool.pids == pids and pool.alive
        assert _result_signature("triangles", rep1.result) == _result_signature(
            "triangles", rep2.result
        )
        assert _metrics_signature(rep1.metrics) == _metrics_signature(rep2.metrics)

    def test_warm_reuse_spans_families(self):
        from repro.kmachine.parallel import active_pools, shutdown_worker_pools

        shutdown_worker_pools()
        runtime.run("sorting", FIXED_VALUES, K, seed=SEED, engine="process", workers=2)
        (pool,) = active_pools()
        runtime.run("mst", FIXED_GRAPH, K, seed=SEED, engine="process", workers=2)
        assert active_pools() == (pool,) and pool.alive


class TestFixedKFamilies:
    def test_congested_clique_overrides_k(self):
        rep = runtime.run("congested-clique-triangles", FIXED_GRAPH, 7, seed=SEED)
        assert rep.k == FIXED_GRAPH.n
        assert rep.result.count == repro.count_triangles(FIXED_GRAPH)
        # one machine per vertex, identity placement
        assert np.array_equal(
            rep.distgraph.partition.home, np.arange(FIXED_GRAPH.n)
        )

    def test_congested_clique_rejects_non_identity_partition(self):
        with pytest.raises(AlgorithmError, match="identity"):
            repro.enumerate_triangles_congested_clique(
                FIXED_GRAPH,
                partition=random_vertex_partition(
                    FIXED_GRAPH.n, FIXED_GRAPH.n, seed=1
                ),
            )

    def test_conversion_counts_match_theorem5(self):
        rep = runtime.run("triangles-conversion", FIXED_GRAPH, K, seed=SEED)
        tri = runtime.run("triangles", FIXED_GRAPH, K, seed=SEED)
        assert rep.result.count == tri.result.count
        # the conversion baseline pays the k^{1/3} factor in traffic
        assert rep.metrics.messages > tri.metrics.messages


class TestDistgraphCache:
    def test_repeated_runs_share_shards(self):
        clear_distgraph_cache()
        a = runtime.run("triangles", FIXED_GRAPH, K, seed=SEED)
        b = runtime.run("triangles", FIXED_GRAPH, K, seed=SEED)
        # same graph + same seed -> identical partition draw -> cached hit
        assert a.distgraph is b.distgraph

    def test_pinned_partition_reuses_distgraph_across_engines(self):
        clear_distgraph_cache()
        part = random_vertex_partition(FIXED_GRAPH.n, K, seed=8)
        reps = [
            runtime.run(
                "pagerank", FIXED_GRAPH, K, seed=SEED, engine=e, placement=part, c=2
            )
            for e in ENGINES
        ]
        assert all(r.distgraph is reps[0].distgraph for r in reps[1:])

    def test_different_seed_misses(self):
        clear_distgraph_cache()
        a = runtime.run("triangles", FIXED_GRAPH, K, seed=SEED)
        b = runtime.run("triangles", FIXED_GRAPH, K, seed=SEED + 1)
        assert a.distgraph is not b.distgraph

    def test_equal_content_partitions_hit(self):
        clear_distgraph_cache()
        p1 = random_vertex_partition(FIXED_GRAPH.n, K, seed=8)
        p2 = random_vertex_partition(FIXED_GRAPH.n, K, seed=8)
        assert p1 is not p2
        dg1 = cached_distgraph(FIXED_GRAPH, p1)
        dg2 = cached_distgraph(FIXED_GRAPH, p2)
        assert dg1 is dg2

    def test_cache_never_aliases_different_graphs(self):
        clear_distgraph_cache()
        g2 = repro.gnp_random_graph(48, 0.25, seed=6)
        part = random_vertex_partition(48, K, seed=8)
        assert cached_distgraph(FIXED_GRAPH, part) is not cached_distgraph(g2, part)


class TestMixedIntentRejected:
    """engine=/seed=/bandwidth= configure the cluster run() builds; with an
    explicit cluster= they were silently ignored (the PR-6 bugfix)."""

    def test_engine_with_cluster_rejected(self):
        cluster = repro.Cluster(k=K, n=FIXED_GRAPH.n, seed=0)
        with pytest.raises(AlgorithmError, match="engine"):
            runtime.run("triangles", FIXED_GRAPH, K, cluster=cluster, engine="vector")

    def test_seed_with_cluster_rejected(self):
        cluster = repro.Cluster(k=K, n=FIXED_GRAPH.n, seed=0)
        with pytest.raises(AlgorithmError, match="seed"):
            runtime.run("triangles", FIXED_GRAPH, K, cluster=cluster, seed=SEED)

    def test_bandwidth_with_cluster_rejected(self):
        cluster = repro.Cluster(k=K, n=FIXED_GRAPH.n, seed=0)
        with pytest.raises(AlgorithmError, match="bandwidth"):
            runtime.run("triangles", FIXED_GRAPH, K, cluster=cluster, bandwidth=64)

    def test_cluster_alone_still_works(self):
        cluster = repro.Cluster(k=K, n=FIXED_GRAPH.n, seed=0)
        rep = runtime.run("triangles", FIXED_GRAPH, K, cluster=cluster)
        assert rep.k == K


class TestResultCache:
    """runtime.run(result_cache=...) — hit, miss, and cacheability rules."""

    @pytest.fixture
    def dataset_graph(self, tmp_path):
        from repro.workloads import GraphCache

        return GraphCache(root=tmp_path / "data").materialize(
            "gnp:n=120,avg_deg=5,seed=3"
        )

    @pytest.fixture
    def store(self, tmp_path):
        from repro.serve import ResultStore

        with ResultStore(tmp_path / "results.sqlite") as s:
            yield s

    def test_second_run_hits_without_executing(self, dataset_graph, store, monkeypatch):
        import repro.runtime.registry as registry_mod

        first = runtime.run(
            "pagerank", dataset_graph, K, seed=SEED, result_cache=store, c=2
        )
        assert not first.cached
        assert store.stats() == pytest.approx(
            {**store.stats(), "hits": 0, "misses": 1, "stores": 1}
        )
        # A hit must never build a cluster: poison the constructor.
        monkeypatch.setattr(
            registry_mod, "Cluster",
            lambda *a, **kw: pytest.fail("cache hit built a cluster"),
        )
        second = runtime.run(
            "pagerank", dataset_graph, K, seed=SEED, result_cache=store, c=2
        )
        assert second.cached
        assert second.distgraph is None and second.workers is None
        assert store.stats()["hits"] == 1
        assert np.array_equal(first.result.estimates, second.result.estimates)
        assert second.rounds == first.rounds
        assert second.metrics.messages == first.metrics.messages

    def test_param_change_misses(self, dataset_graph, store):
        runtime.run("pagerank", dataset_graph, K, seed=SEED, result_cache=store, c=2)
        rep = runtime.run(
            "pagerank", dataset_graph, K, seed=SEED, result_cache=store, c=3
        )
        assert not rep.cached
        assert store.stats()["stores"] == 2

    def test_graph_without_content_key_is_not_cached(self, store):
        runtime.run("triangles", FIXED_GRAPH, K, seed=SEED, result_cache=store)
        runtime.run("triangles", FIXED_GRAPH, K, seed=SEED, result_cache=store)
        assert len(store) == 0

    def test_unpinned_seed_is_not_cached(self, dataset_graph, store):
        runtime.run("triangles", dataset_graph, K, result_cache=store)
        assert len(store) == 0

    def test_placement_bypasses_the_cache(self, dataset_graph, store):
        part = random_vertex_partition(dataset_graph.n, K, seed=8)
        runtime.run(
            "triangles", dataset_graph, K, seed=SEED, result_cache=store,
            placement=part,
        )
        assert len(store) == 0

    def test_cache_only_probe(self, dataset_graph, store):
        probe = runtime.run(
            "triangles", dataset_graph, K, seed=SEED,
            result_cache=store, cache_only=True,
        )
        assert probe is None
        assert store.stats()["misses"] == 0, "probes must not count misses"
        runtime.run("triangles", dataset_graph, K, seed=SEED, result_cache=store)
        hit = runtime.run(
            "triangles", dataset_graph, K, seed=SEED,
            result_cache=store, cache_only=True,
        )
        assert hit is not None and hit.cached

    def test_cache_only_without_store_rejected(self, dataset_graph):
        with pytest.raises(AlgorithmError, match="cache_only"):
            runtime.run("triangles", dataset_graph, K, seed=SEED, cache_only=True)
