"""Tests for the content-addressed on-disk graph cache."""

import gc
import json
import os

import numpy as np
import pytest

import repro.workloads.cache as cache_mod
import repro.workloads.spec as spec_mod
from repro.errors import WorkloadError
from repro.workloads import DATA_DIR_ENV, GraphCache, materialize, parse_spec

SPEC = "rmat:n=500,avg_deg=8,seed=7"


@pytest.fixture
def cache(tmp_path):
    return GraphCache(root=tmp_path / "data")


@pytest.fixture
def counting_builds(monkeypatch):
    """Count build_dataset calls (the 'did the cache regenerate?' probe)."""
    calls = []
    real = spec_mod.build_dataset

    def counted(spec):
        calls.append(parse_spec(spec).canonical())
        return real(spec)

    monkeypatch.setattr(spec_mod, "build_dataset", counted)
    return calls


class TestMaterialize:
    def test_second_materialization_hits_cache(self, cache, counting_builds):
        g1 = cache.materialize(SPEC)
        assert cache.materialize(SPEC) is g1  # still held: handed out again
        built = [array.copy() for array in (g1.edges, g1.indptr, g1.indices)]
        key = g1.content_key
        del g1
        gc.collect()
        g2 = cache.materialize(SPEC)  # nothing holds the graph: a fresh load
        assert len(counting_builds) == 1, "second call must not regenerate"
        for want, got in zip(built, (g2.edges, g2.indptr, g2.indices)):
            assert np.array_equal(want, got)
        assert key == g2.content_key == parse_spec(SPEC).content_hash()

    def test_equivalent_spelling_hits_same_entry(self, cache, counting_builds):
        cache.materialize(SPEC)
        cache.materialize("rmat:seed=7,avg_deg=8.0,n=5e2")
        assert len(counting_builds) == 1

    def test_use_cache_false_rebuilds_and_does_not_store(self, cache, counting_builds):
        cache.materialize(SPEC, use_cache=False)
        assert not cache.has(SPEC)
        cache.materialize(SPEC, use_cache=False)
        assert len(counting_builds) == 2

    def test_file_backed_family_never_cached(self, cache, tmp_path, counting_builds):
        path = tmp_path / "g.tsv"
        graph = spec_mod.build_dataset("gnp:n=30,avg_deg=4,seed=1")
        path.write_text("".join(f"{u}\t{v}\n" for u, v in graph.edges))
        counting_builds.clear()
        spec = f"edgelist:path={path}"
        cache.materialize(spec)
        cache.materialize(spec)
        assert len(counting_builds) == 2
        assert cache.entries() == []

    def test_module_level_materialize_uses_env_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "env-root"))
        materialize(SPEC)
        assert GraphCache().has(SPEC)
        assert (tmp_path / "env-root" / "graphs").is_dir()


class TestEntriesAndRemoval:
    def test_entries_metadata(self, cache):
        g = cache.materialize(SPEC)
        (entry,) = cache.entries()
        assert entry.key == parse_spec(SPEC).content_hash()
        assert entry.n == g.n and entry.m == g.m
        assert entry.family == "rmat"
        assert entry.nbytes > 0 and entry.path.exists()

    def test_info_and_evict_by_hash_prefix(self, cache):
        cache.materialize(SPEC)
        key = parse_spec(SPEC).content_hash()
        assert cache.info(key[:8]).key == key
        assert cache.evict(key[:8])
        assert not cache.has(SPEC)
        assert not cache.evict(key)  # already gone

    def test_info_missing_raises(self, cache):
        with pytest.raises(WorkloadError, match="no cached dataset"):
            cache.info(SPEC)
        # An all-hex token matching no entry is a miss, not a spec error.
        cache.materialize(SPEC)
        key = parse_spec(SPEC).content_hash()
        unknown = ("0" if key[0] != "0" else "1") * 8
        with pytest.raises(WorkloadError, match=f"matches hash prefix '{unknown}'"):
            cache.info(unknown)
        assert not cache.has(unknown) and not cache.evict(unknown)
        assert cache.has(SPEC)
        with pytest.raises(WorkloadError, match="unknown workload family 'rmta'"):
            cache.evict("rmta:n=10")

    def test_ambiguous_prefix_raises(self, cache, monkeypatch):
        cache.materialize(SPEC)
        cache.materialize("rmat:n=500,avg_deg=8,seed=8")
        keys = sorted(e.key for e in cache.entries())
        shared = os.path.commonprefix(keys)
        if shared:  # blake2b prefixes rarely collide at length >= 1
            with pytest.raises(WorkloadError, match="ambiguous"):
                cache.resolve_key(shared)

    def test_clear(self, cache):
        cache.materialize(SPEC)
        cache.materialize("gnp:n=100,avg_deg=4,seed=1")
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_half_written_entry_ignored(self, cache):
        cache.materialize(SPEC)
        (entry,) = cache.entries()
        # Simulate a crash between snapshot and sidecar: orphan npz.
        entry.path.with_suffix(".json").unlink()
        assert cache.entries() == []
        assert not cache.has(SPEC)
        assert cache.load(SPEC) is None

    def test_corrupt_sidecar_ignored(self, cache):
        cache.materialize(SPEC)
        (entry,) = cache.entries()
        entry.path.with_suffix(".json").write_text("{not json")
        assert cache.entries() == []


class TestSizeCap:
    def test_lru_eviction(self, tmp_path):
        cache = GraphCache(root=tmp_path, max_bytes=1)  # evict everything old
        cache.materialize("gnp:n=200,avg_deg=4,seed=1")
        cache.materialize("gnp:n=200,avg_deg=4,seed=2")
        # The just-stored entry is protected even though it exceeds the cap.
        (entry,) = cache.entries()
        assert json.loads(entry.path.with_suffix(".json").read_text())["spec"].endswith(
            "seed=2"
        )

    def test_recency_decides_victim(self, tmp_path):
        cache = GraphCache(root=tmp_path, max_bytes=10**12)
        a = "gnp:n=200,avg_deg=4,seed=1"
        b = "gnp:n=200,avg_deg=4,seed=2"
        cache.materialize(a)
        cache.materialize(b)
        os.utime(cache.info(a).path, (0, 0))  # a is stale
        cache.max_bytes = cache.info(b).nbytes  # room for exactly one
        evicted = cache.enforce_cap()
        assert evicted == [parse_spec(a).content_hash()]
        assert cache.has(b) and not cache.has(a)

    def test_bad_cap_rejected(self, tmp_path):
        with pytest.raises(WorkloadError, match="positive"):
            GraphCache(root=tmp_path, max_bytes=0)

    def test_env_cap_accepts_spec_integer_spellings(self, tmp_path, monkeypatch):
        from repro.workloads import CACHE_BYTES_ENV

        monkeypatch.setenv(CACHE_BYTES_ENV, "2e9")
        assert GraphCache(root=tmp_path).max_bytes == 2_000_000_000
        monkeypatch.setenv(CACHE_BYTES_ENV, "1_000_000")
        assert GraphCache(root=tmp_path).max_bytes == 10**6
        monkeypatch.setenv(CACHE_BYTES_ENV, "lots")
        with pytest.raises(WorkloadError, match="integer byte count"):
            GraphCache(root=tmp_path)


class TestFullPassOnlyWhenDue:
    """Stores charge a running total; the directory walk is occasional."""

    SPECS = [f"gnp:n=200,avg_deg=4,seed={seed}" for seed in range(1, 6)]

    @pytest.fixture
    def full_passes(self, monkeypatch):
        """Count enforce_cap calls; pin the rescan clock."""
        calls, clock = [], {"now": 0.0}
        real = GraphCache.enforce_cap

        def counted(self, protect=None):
            calls.append(protect)
            return real(self, protect=protect)

        monkeypatch.setattr(GraphCache, "enforce_cap", counted)
        monkeypatch.setattr(cache_mod, "_clock", lambda: clock["now"])
        return calls, clock

    def test_first_store_scans_later_ones_only_charge(self, tmp_path, full_passes):
        calls, _ = full_passes
        cache = GraphCache(root=tmp_path)
        graphs = [cache.materialize(spec) for spec in self.SPECS[:3]]
        assert calls == [graphs[0].content_key], "only the root's first store"
        on_disk = sum(p.stat().st_size for p in cache.graphs_dir.iterdir())
        assert cache_mod._FOOTPRINTS[str(cache.root)][0] == on_disk
        # Another instance on the same root (default_cache() builds one
        # per call) shares the total.
        GraphCache(root=tmp_path).materialize(self.SPECS[3])
        assert len(calls) == 1

    def test_cap_enforced_on_the_store_that_crosses_it(self, tmp_path, full_passes):
        calls, _ = full_passes
        probe = GraphCache(root=tmp_path / "probe")
        probe.materialize(self.SPECS[0])
        one = probe.entries()[0].nbytes
        cache = GraphCache(root=tmp_path / "capped", max_bytes=int(2.5 * one))
        for spec in self.SPECS[:2]:
            cache.materialize(spec)
        assert len(calls) == 2 and len(cache.entries()) == 2  # probe's + first store
        cache.materialize(self.SPECS[2])  # would cross: full pass, oldest evicted
        assert len(calls) == 3
        kept = {entry.spec for entry in cache.entries()}
        assert len(kept) == 2 and parse_spec(self.SPECS[2]).canonical() in kept
        assert sum(e.nbytes for e in cache.entries()) <= cache.max_bytes
        # The total restarts from what the scan found: the next store fits
        # only if it says so.
        cache.materialize(self.SPECS[3])
        assert len(calls) == 4 and len(cache.entries()) == 2

    def test_orphans_swept_on_first_store_and_after_the_interval(self, tmp_path, full_passes):
        calls, clock = full_passes
        cache = GraphCache(root=tmp_path)
        cache.graphs_dir.mkdir(parents=True)

        def plant_orphan():
            orphan = cache.graphs_dir / ("0" * 32 + ".shards-k4-deadbeef0123.json")
            orphan.write_text("{}")
            return orphan

        orphan = plant_orphan()
        cache.materialize(self.SPECS[0])  # the process's first store to this root
        assert not orphan.exists()
        orphan = plant_orphan()
        clock["now"] += cache_mod.RESCAN_SECONDS - 1
        cache.materialize(self.SPECS[1])
        assert orphan.exists() and len(calls) == 1, "inside the interval: no walk"
        clock["now"] += 1
        cache.materialize(self.SPECS[2])
        assert not orphan.exists() and len(calls) == 2
        orphan = plant_orphan()
        cache.materialize(self.SPECS[3])
        assert orphan.exists(), "the interval restarts at each full pass"

    def test_info_reads_one_sidecar(self, cache, monkeypatch):
        cache.materialize(SPEC)
        cache.materialize("gnp:n=100,avg_deg=4,seed=1")
        opened = []
        real = cache_mod.Path.read_text

        def recording(self, *args, **kwargs):
            opened.append(self.name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cache_mod.Path, "read_text", recording)
        key = parse_spec(SPEC).content_hash()
        assert cache.info(SPEC).key == key
        assert cache.read_meta(key)["n"] == 500
        assert opened == [f"{key}.json"] * 2
        assert cache.read_meta("0" * 32) is None


class TestEarlierVersionsShardFiles:
    """Shard-snapshot files an earlier version wrote beside an entry."""

    @pytest.mark.parametrize("remove", ["enforce_cap", "evict", "clear"])
    def test_never_listed_and_removed(self, cache, remove):
        key = cache.materialize(SPEC).content_key
        planted = [cache.graphs_dir / f"{key}.shards-k4-deadbeef0123.{ext}"
                   for ext in ("npy", "json")]
        for path in planted:
            path.write_text("{}")
        (entry,) = cache.entries()
        npz, meta = cache._paths(key)
        assert entry.key == key
        assert entry.nbytes == npz.stat().st_size + meta.stat().st_size
        getattr(cache, remove)(*((SPEC,) if remove == "evict" else ()))
        assert not any(path.exists() for path in planted)


class TestAtomicity:
    def test_no_tmp_files_left_behind(self, cache):
        cache.materialize(SPEC)
        leftovers = [p for p in cache.graphs_dir.iterdir() if "tmp" in p.name]
        assert leftovers == []

    def test_store_refuses_uncacheable(self, cache):
        g = spec_mod.build_dataset("gnp:n=30,avg_deg=4,seed=1")
        with pytest.raises(WorkloadError, match="not cacheable"):
            cache.store("edgelist:path=x.tsv", g)
