"""End-to-end tests for ``runtime.run(dataset=...)``.

The acceptance contract of the workload subsystem: a dataset spec
resolves through the on-disk cache, runs bit-identically on all three
execution engines, a second invocation does not regenerate the dataset,
and reloaded datasets reuse materialized :class:`DistributedGraph`
shards via their content key (at suite-friendly sizes; build and load
time at full size are the harness's ``workloads.build_s`` /
``workloads.load_s`` in ``benchmarks/e2e``).
"""

import gc
import os

import numpy as np
import pytest

import repro.workloads.io as io_mod
import repro.workloads.spec as spec_mod
from repro import runtime
from repro.errors import AlgorithmError
from repro.kmachine.distgraph import cached_distgraph, clear_distgraph_cache
from repro.kmachine.partition import random_vertex_partition
from repro.workloads import DATA_DIR_ENV, default_cache, materialize
from repro.workloads.cache import cache_stats

ENGINES = ("message", "vector", "process")
SPEC = "rmat:n=5000,avg_deg=8,seed=7"
SEED = 17
#: One small spec per generated family, run next to ``SPEC``.
FAMILY_SPECS = (
    "rmat:n=400,avg_deg=8,seed=1",
    "gnp:n=400,avg_deg=8,seed=1",
    "chung-lu:n=400,avg_deg=8,seed=1",
    "planted-triangles:n=400,triangles=40,noise_p=0.02,seed=1",
)
ALGOS = ("triangles", "pagerank", "mst")


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "data"))
    clear_distgraph_cache()
    yield
    clear_distgraph_cache()


class TestDatasetRuns:
    @pytest.mark.parametrize(
        "algo,spec",
        [pytest.param(a, SPEC, id=a) for a in ALGOS]
        + [
            pytest.param(a, s, id=f"{a}-{s.partition(':')[0]}")
            for s in FAMILY_SPECS
            for a in ALGOS
        ],
    )
    def test_bit_identical_across_engines(self, algo, spec):
        reports = [
            runtime.run(algo, dataset=spec, k=4, seed=SEED, engine=e)
            for e in ENGINES
        ]
        base = reports[0]
        for other in reports[1:]:
            if algo == "triangles":
                assert np.array_equal(
                    base.result.triangles, other.result.triangles
                )
            elif algo == "pagerank":
                assert base.result.estimates.tobytes() == other.result.estimates.tobytes()
            else:
                assert np.array_equal(base.result.edges, other.result.edges)
            assert base.metrics.rounds == other.metrics.rounds
            assert base.metrics.messages == other.metrics.messages
            assert base.metrics.bits == other.metrics.bits
        assert [r.engine for r in reports] == list(ENGINES)

    def test_default_k_applies(self):
        rep = runtime.run("triangles", dataset="gnp:n=200,avg_deg=6,seed=3", seed=SEED)
        assert rep.k == runtime.registry.DEFAULT_K

    def test_dataset_equals_explicit_data(self):
        g = materialize(SPEC)
        via_dataset = runtime.run("triangles", dataset=SPEC, k=4, seed=SEED)
        via_data = runtime.run("triangles", g, 4, seed=SEED)
        assert np.array_equal(
            via_dataset.result.triangles, via_data.result.triangles
        )
        assert via_dataset.metrics.bits == via_data.metrics.bits

    def test_rejects_conflicting_and_missing_input(self):
        g = materialize("gnp:n=50,avg_deg=4,seed=1")
        with pytest.raises(AlgorithmError, match="not both"):
            runtime.run("triangles", g, 4, dataset=SPEC)
        with pytest.raises(AlgorithmError, match="pass data or dataset"):
            runtime.run("triangles", k=4)
        with pytest.raises(AlgorithmError, match="graphs"):
            runtime.run("sorting", dataset=SPEC, k=4)


class TestCacheIntegration:
    def test_second_run_hits_disk_cache(self, monkeypatch):
        calls = []
        real = spec_mod.build_dataset

        def counted(spec):
            calls.append(str(spec))
            return real(spec)

        monkeypatch.setattr(spec_mod, "build_dataset", counted)
        r1 = runtime.run("triangles", dataset=SPEC, k=4, seed=SEED, engine="vector")
        r2 = runtime.run("triangles", dataset=SPEC, k=4, seed=SEED, engine="vector")
        assert len(calls) == 1, "second runtime.run must load the snapshot"
        assert np.array_equal(r1.result.triangles, r2.result.triangles)
        assert r1.metrics.bits == r2.metrics.bits

    def test_reloaded_dataset_reuses_materialized_shards(self):
        # Two runs of one dataset share one DistributedGraph, keyed by
        # content hash.
        r1 = runtime.run("triangles", dataset=SPEC, k=4, seed=SEED, engine="vector")
        r2 = runtime.run("triangles", dataset=SPEC, k=4, seed=SEED, engine="vector")
        assert r1.distgraph is not None
        assert r1.distgraph is r2.distgraph

    def test_content_key_shard_reuse_is_placement_exact(self):
        g1 = materialize(SPEC)
        g2 = materialize(SPEC, use_cache=False)  # a second object, same content
        assert g1 is not g2 and g1.content_key == g2.content_key
        part = random_vertex_partition(g1.n, 4, seed=3)
        dg1 = cached_distgraph(g1, part)
        dg2 = cached_distgraph(g2, part)
        assert dg1 is dg2
        other = random_vertex_partition(g1.n, 4, seed=4)
        assert cached_distgraph(g2, other) is not dg1

    def test_a_miss_builds_no_view_up_front(self):
        graph = materialize(SPEC)
        dg = cached_distgraph(graph, random_vertex_partition(graph.n, 4, seed=3))
        assert dg._parts is None and dg._nbr_home is None
        assert dg._home_groups is None and dg._incidence is None

    def test_runs_on_a_shared_distgraph_match_a_fresh_build(self):
        # The second run reuses the first run's distgraph, views built;
        # after a clear the third builds its own.  A run that wrote into
        # the shared views would make the reruns drift.
        def run():
            return runtime.run("pagerank", dataset=SPEC, k=4, seed=SEED,
                               engine="vector", result_cache=False)

        first, shared = run(), run()
        assert shared.distgraph is first.distgraph
        clear_distgraph_cache()
        fresh = run()
        assert fresh.distgraph is not first.distgraph
        for other in (shared, fresh):
            assert np.array_equal(other.result.estimates, first.result.estimates)
            assert other.metrics.rounds == first.metrics.rounds
            assert other.metrics.bits == first.metrics.bits

    def test_adhoc_graphs_still_key_on_identity(self):
        import repro

        g = repro.gnp_random_graph(60, 0.1, seed=7)
        twin = repro.gnp_random_graph(60, 0.1, seed=7)
        part = random_vertex_partition(60, 4, seed=3)
        assert cached_distgraph(g, part) is not cached_distgraph(twin, part)


class TestOnlyTheCsrIsStored:
    """A placement's shards stay in memory: a run writes the npz and its
    metadata, nothing else."""

    @staticmethod
    def _stored(tmp_path) -> list[str]:
        return sorted(p.name for p in (tmp_path / "data" / "graphs").iterdir())

    def test_registry_run(self, tmp_path):
        runtime.run("pagerank", dataset=SPEC, k=4, seed=SEED, engine="vector",
                    result_cache=False)
        key = spec_mod.parse_spec(SPEC).content_hash()
        assert self._stored(tmp_path) == [f"{key}.json", f"{key}.npz"]

    def test_session_miss(self, tmp_path):
        from repro.runtime import Session

        spec = FAMILY_SPECS[1]
        with Session(result_cache=False) as session:
            report = session.run("triangles", dataset=spec, k=4, seed=SEED)
        assert not report.cached and report.distgraph is not None
        key = spec_mod.parse_spec(spec).content_hash()
        assert self._stored(tmp_path) == [f"{key}.json", f"{key}.npz"]


def _release_graphs() -> None:
    """Drop what the process holds of earlier loads (the distgraph LRU)."""
    clear_distgraph_cache()
    gc.collect()


@pytest.fixture
def reads(monkeypatch) -> list:
    """The npz paths the graph cache reads, in order."""
    calls = []
    real = io_mod.read_npz

    def counted(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(io_mod, "read_npz", counted)
    return calls


class TestResidentGraphs:
    """A dataset graph the process still holds is handed out again
    instead of being re-read from its npz."""

    def test_two_runs_read_the_npz_once(self, reads):
        materialize(SPEC)  # build and store; nothing holds the graph after
        _release_graphs()
        first = runtime.run("mst", dataset=SPEC, k=4, seed=SEED, result_cache=False)
        second = runtime.run("mst", dataset=SPEC, k=4, seed=SEED + 1, result_cache=False)
        assert len(reads) == 1
        assert second.distgraph.graph is first.distgraph.graph
        assert first.distgraph is not second.distgraph  # other seed, other placement

    def test_a_released_graph_is_read_again(self, reads):
        built = materialize(SPEC)
        assert materialize(SPEC) is built and not reads
        del built
        _release_graphs()
        reloaded = materialize(SPEC)
        assert len(reads) == 1 and reloaded.content_key is not None

    @pytest.mark.parametrize("remove", ["evict", "clear"])
    def test_a_removed_entry_is_a_miss_and_rebuilds(self, reads, monkeypatch, remove):
        held = materialize(SPEC)
        cache = default_cache()
        cache.evict(SPEC) if remove == "evict" else cache.clear()
        builds = []
        real = spec_mod.build_dataset
        monkeypatch.setattr(spec_mod, "build_dataset",
                            lambda spec: builds.append(spec) or real(spec))
        assert cache.load(SPEC) is None
        rebuilt = materialize(SPEC)
        assert len(builds) == 1 and rebuilt is not held and cache.has(SPEC)
        assert materialize(SPEC) is rebuilt and not reads
        assert np.array_equal(rebuilt.edges, held.edges)

    def test_a_memory_hit_bumps_recency_and_counts(self, reads):
        graph = materialize(SPEC)
        npz = default_cache().info(SPEC).path
        os.utime(npz, (1, 1))
        hits = cache_stats()["hits"]
        assert materialize(SPEC) is graph and not reads
        assert npz.stat().st_mtime > 1
        assert cache_stats()["hits"] == hits + 1

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_handed_out_arrays_are_read_only(self, reads, source):
        graph = materialize(SPEC)
        if source == "loaded":
            del graph
            _release_graphs()
            graph = materialize(SPEC)
            assert len(reads) == 1
        for array in (graph.indptr, graph.indices, graph.edges):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]

    def test_an_uncached_build_stays_writable(self):
        graph = materialize(SPEC, use_cache=False)
        graph.indices[0] = graph.indices[0]

    @pytest.mark.parametrize("algo", [
        name for name in runtime.available()
        if runtime.registry.get_spec(name).input_kind == "graph"
    ])
    def test_every_family_runs_on_a_loaded_graph(self, reads, algo):
        spec = "gnp:n=60,avg_deg=6,seed=2"
        materialize(spec)
        _release_graphs()
        graph = materialize(spec)
        assert len(reads) == 1 and not graph.indices.flags.writeable
        report = runtime.run(algo, dataset=spec, k=4, seed=SEED, result_cache=False)
        checks = runtime.registry.get_spec(algo).check(graph, report)
        assert checks and all(ok for _, _, ok in checks), checks
