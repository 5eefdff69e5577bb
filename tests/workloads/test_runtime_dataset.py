"""End-to-end tests for ``runtime.run(dataset=...)``.

The acceptance contract of the workload subsystem: a dataset spec
resolves through the on-disk cache, runs bit-identically on all three
execution engines, a second invocation does not regenerate the dataset,
and reloaded datasets reuse materialized :class:`DistributedGraph`
shards via their content key (at suite-friendly sizes; build and load
time at full size are the harness's ``workloads.build_s`` /
``workloads.load_s`` in ``benchmarks/e2e``).
"""

import numpy as np
import pytest

import repro.workloads.spec as spec_mod
from repro import runtime
from repro.errors import AlgorithmError
from repro.kmachine.distgraph import cached_distgraph, clear_distgraph_cache
from repro.kmachine.partition import random_vertex_partition
from repro.workloads import DATA_DIR_ENV, materialize

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
        # Two runs, two distinct Graph objects (second is loaded from
        # disk) — but one shared DistributedGraph, keyed by content hash.
        r1 = runtime.run("triangles", dataset=SPEC, k=4, seed=SEED, engine="vector")
        r2 = runtime.run("triangles", dataset=SPEC, k=4, seed=SEED, engine="vector")
        assert r1.distgraph is not None
        assert r1.distgraph is r2.distgraph

    def test_content_key_shard_reuse_is_placement_exact(self):
        g1 = materialize(SPEC)
        g2 = materialize(SPEC)
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
