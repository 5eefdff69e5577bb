"""Tests for the Session scheduler (concurrency, admission, residency)."""

import threading

import pytest

import repro.runtime.session as session_mod
from repro.errors import (
    AlgorithmError,
    ServeError,
    SessionSaturated,
    SessionTimeout,
)
from repro.runtime import Session
from repro.serve import ResultStore

DATASET = "gnp:n=150,avg_deg=5,seed=3"


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    from repro.workloads import DATA_DIR_ENV

    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "data"))


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "r.sqlite") as s:
        yield s


class TestRequestPath:
    def test_miss_then_hit(self, store):
        with Session(result_cache=store) as session:
            first = session.run("pagerank", dataset=DATASET, k=4, seed=1)
            second = session.run("pagerank", dataset=DATASET, k=4, seed=1)
        assert not first.cached and second.cached
        stats = session.stats()
        assert stats["requests"] == 2
        assert stats["executed"] == 1
        assert stats["cache_hits"] == 1
        assert stats["result_store"]["hits"] == 1
        assert stats["result_store"]["misses"] == 1, (
            "the optimistic probe must not double-count the miss"
        )

    def test_no_store_always_executes(self):
        with Session(result_cache=None) as session:
            assert session.store is None
            one = session.run("pagerank", dataset=DATASET, k=4, seed=1)
            two = session.run("pagerank", dataset=DATASET, k=4, seed=1)
        assert not one.cached and not two.cached
        assert session.stats()["executed"] == 2

    def test_data_and_dataset_conflict(self, small_gnp):
        with Session(result_cache=None) as session:
            with pytest.raises(AlgorithmError, match="not both"):
                session.run("pagerank", small_gnp, dataset=DATASET, k=4)

    def test_failed_run_counts_and_session_survives(self, store):
        with Session(result_cache=store) as session:
            with pytest.raises(AlgorithmError):
                session.run("no-such-algo", dataset=DATASET, k=4)
            report = session.run("pagerank", dataset=DATASET, k=4, seed=1)
        assert report is not None
        stats = session.stats()
        assert stats["errors"] == 1 and stats["executed"] == 1
        assert stats["inflight"] == 0

    def test_closed_session_rejects(self, store):
        session = Session(result_cache=store)
        session.close()
        with pytest.raises(ServeError, match="closed"):
            session.run("pagerank", dataset=DATASET, k=4, seed=1)

    def test_concurrent_identical_requests(self, store):
        """Many threads, one dataset: one execution, the rest cache hits."""
        session = Session(result_cache=store, queue_limit=32)
        session.run("pagerank", dataset=DATASET, k=4, seed=1)  # warm the key
        errors, reports = [], []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait()
                reports.append(
                    session.run("pagerank", dataset=DATASET, k=4, seed=1)
                )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        session.close()
        assert errors == []
        assert all(r.cached for r in reports)
        assert session.stats()["executed"] == 1
        assert session.stats()["cache_hits"] == 8


class TestHitsNeverLoadTheDataset:
    """A hit is keyed from the resident graph or the cache's sidecar."""

    SPECS = [f"gnp:n={n},avg_deg=4,seed=5" for n in (90, 100, 110)]

    def test_hit_on_an_evicted_dataset_does_not_materialize(self, store, monkeypatch):
        from repro import workloads

        with Session(result_cache=store, max_datasets=1) as session:
            for spec in self.SPECS:  # each load evicts the one before
                session.run("connectivity", dataset=spec, k=4, seed=1)
            assert len(session.resident_datasets()) == 1

            def no_loads(*args, **kwargs):
                raise AssertionError("a hit must not load the dataset")

            monkeypatch.setattr(workloads, "materialize", no_loads)
            for spec, n in zip(self.SPECS, (90, 100, 110)):
                report = session.run("connectivity", dataset=spec, k=4, seed=1)
                assert report.cached and report.n == n
            assert session.stats()["cache_hits"] == 3

    def test_fresh_session_hits_from_the_sidecar_alone(self, store, monkeypatch):
        from repro import workloads

        spec = self.SPECS[0]
        with Session(result_cache=store) as session:
            first = session.run("mst", dataset=spec, k=4, seed=1)
        monkeypatch.setattr(workloads, "materialize", None)  # would raise
        with Session(result_cache=store) as session:
            second = session.run("mst", dataset="gnp:seed=5,avg_deg=4.0,n=90", k=4, seed=1)
            assert second.cached and second.n == first.n == 90
            assert second.result.total_weight == first.result.total_weight
            assert session.resident_datasets() == ()

    def test_no_sidecar_falls_through_to_the_miss_path(self, store):
        from repro import workloads

        spec = self.SPECS[0]
        with Session(result_cache=store) as session:
            session.run("mst", dataset=spec, k=4, seed=1)
        workloads.default_cache().evict(spec)
        with Session(result_cache=store) as session:
            report = session.run("mst", dataset=spec, k=4, seed=1)
            # Rebuilt on the substrate thread; the run itself then finds
            # the stored row.
            assert report.cached
            assert session.stats()["cache_hits"] == 0
            assert len(session.resident_datasets()) == 1
            assert session.run("mst", dataset=spec, k=4, seed=1).cached
            assert session.stats()["cache_hits"] == 1


class TestSubstrateThread:
    def test_every_run_executes_on_one_thread(self, monkeypatch):
        idents, callers = [], set()

        def fake(name, data, k, **kwargs):
            idents.append(threading.get_ident())
            return "done"

        monkeypatch.setattr(session_mod, "_registry_run", fake)
        session = Session(result_cache=None, queue_limit=32)
        barrier = threading.Barrier(8)

        def worker():
            callers.add(threading.get_ident())
            barrier.wait()
            for _ in range(2):
                assert session.run("pagerank", k=4) == "done"

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(idents) == 16 and len(set(idents)) == 1
        assert idents[0] not in callers
        assert session.stats()["executed"] == 16
        session.close()

    def test_dataset_loads_happen_there_too(self, store, monkeypatch):
        from repro import workloads

        loaders = []
        real = workloads.materialize

        def recording(spec, *args, **kwargs):
            loaders.append(threading.current_thread().name)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(workloads, "materialize", recording)
        with Session(result_cache=store) as session:
            session.run("pagerank", dataset=DATASET, k=4, seed=1)
            session.prewarm("gnp:n=100,avg_deg=4,seed=9")
        assert len(loaders) == 2
        assert all(name.startswith("repro-substrate") for name in loaders)

    def test_zero_timeout_runs_on_an_idle_substrate(self, monkeypatch):
        monkeypatch.setattr(session_mod, "_registry_run",
                            lambda name, data, k, **kwargs: "done")
        with Session(result_cache=None, timeout=0.0) as session:
            assert session.run("pagerank", k=4) == "done"
            assert session.stats()["timeouts"] == 0

    def test_timed_out_request_never_starts(self, monkeypatch):
        release, entered, started = threading.Event(), threading.Event(), []

        def fake(name, data, k, **kwargs):
            started.append(name)
            entered.set()
            release.wait(10.0)
            return name

        monkeypatch.setattr(session_mod, "_registry_run", fake)
        session = Session(result_cache=None)
        thread = threading.Thread(target=session.run, args=("first",), kwargs={"k": 4})
        thread.start()
        assert entered.wait(5.0)
        with pytest.raises(SessionTimeout):
            session.run("second", k=4, timeout=0.05)
        release.set()
        thread.join(timeout=10.0)
        assert session.run("third", k=4) == "third"
        session.close()
        assert started == ["first", "third"]


class TestAdmissionControl:
    """Admission limits, tested against a controllable fake substrate."""

    @pytest.fixture
    def slow_run(self, monkeypatch):
        """Replace the registry call with one that blocks until released."""
        release = threading.Event()
        entered = threading.Event()

        def fake(name, data, k, **kwargs):
            if kwargs.get("cache_only"):
                return None
            entered.set()
            release.wait(10.0)
            return "done"

        monkeypatch.setattr(session_mod, "_registry_run", fake)
        return entered, release

    def test_saturation_rejects_fast(self, slow_run):
        entered, release = slow_run
        session = Session(result_cache=None, queue_limit=1)
        thread = threading.Thread(
            target=session.run, args=("pagerank",), kwargs={"k": 4}
        )
        thread.start()
        assert entered.wait(5.0)
        with pytest.raises(SessionSaturated, match="saturated"):
            session.run("pagerank", k=4)
        release.set()
        thread.join()
        assert session.stats()["rejected"] == 1
        session.close()

    def test_substrate_timeout(self, slow_run):
        entered, release = slow_run
        session = Session(result_cache=None, queue_limit=4)
        thread = threading.Thread(
            target=session.run, args=("pagerank",), kwargs={"k": 4}
        )
        thread.start()
        assert entered.wait(5.0)
        with pytest.raises(SessionTimeout, match="waited over"):
            session.run("pagerank", k=4, timeout=0.05)
        release.set()
        thread.join()
        stats = session.stats()
        assert stats["timeouts"] == 1
        assert stats["errors"] == 0, "a timeout is not a run failure"
        session.close()

    def test_bad_limits_rejected(self):
        with pytest.raises(ServeError, match="queue_limit"):
            Session(queue_limit=0)
        with pytest.raises(ServeError, match="max_datasets"):
            Session(max_datasets=0)


class TestDatasetResidency:
    def test_repeat_requests_reuse_the_resident_graph(self, store):
        with Session(result_cache=store) as session:
            g1 = session.materialize(DATASET)
            g2 = session.materialize("gnp:avg_deg=5.0,n=1.5e2,seed=3")
            assert g1 is g2, "equivalent spellings share one resident graph"
            assert len(session.resident_datasets()) == 1

    def test_lru_bound(self, store):
        with Session(result_cache=store, max_datasets=2) as session:
            for seed in (1, 2, 3):
                session.materialize(f"gnp:n=100,avg_deg=4,seed={seed}")
            assert len(session.resident_datasets()) == 2

    def test_close_drops_residency(self, store):
        session = Session(result_cache=store)
        session.materialize(DATASET)
        session.close()
        assert session.resident_datasets() == ()
