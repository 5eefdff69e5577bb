"""Shard-snapshot lifecycle: persist, mmap-load, invalidate, fall back.

The PR-7 cold-start path persists materialized
:class:`~repro.kmachine.distgraph.DistributedGraph` arrays as sidecars
next to the CSR npz and maps them back read-only.  These tests pin the
lifecycle contract: a warm load is bit-identical to a fresh build and
genuinely mmap-backed (mutation raises), a format-version bump turns
every existing sidecar into a miss that rebuilds and re-stores, sidecars
never outlive (or predate) their parent entry, and every failure mode —
corrupt, vanished or version-mismatched files — degrades to the serial
rebuild.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import workloads
from repro.kmachine import distgraph as dg_mod
from repro.kmachine.distgraph import (
    DistributedGraph,
    cached_distgraph,
    clear_distgraph_cache,
    warm_shard_snapshots,
)
from repro.kmachine.partition import random_vertex_partition
from repro.workloads import DATA_DIR_ENV, default_cache
from repro.workloads import io as io_mod

SPEC = "gnp:n=300,avg_deg=6,seed=5"


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    """An isolated cache root with a clean in-memory distgraph LRU."""
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "data"))
    clear_distgraph_cache()
    yield tmp_path / "data"
    clear_distgraph_cache()


def _materialized(spec=SPEC, k=4, part_seed=11):
    """A cached dataset graph plus a pinned partition."""
    graph = workloads.materialize(spec)
    return graph, random_vertex_partition(graph.n, k, seed=part_seed)


def _mmap_backed(arr) -> bool:
    """True when ``arr`` is a (plain-ndarray) view over an mmap.

    Snapshot loads strip the ``np.memmap`` subclass with ``np.asarray``
    to keep hot-loop slicing cheap, so the mapping shows up on the
    ``.base`` chain rather than on the array's own type.
    """
    base = arr
    while base is not None:
        if isinstance(base, np.memmap):
            return True
        base = base.base
    return False


def _assert_same_distgraph(dg, ref):
    assert np.array_equal(dg.nbr_home, ref.nbr_home)
    for a, b in zip(dg.parts, ref.parts):
        assert np.array_equal(a, b)
    for sa, sb in zip(dg.shards(), ref.shards()):
        assert np.array_equal(sa.vertices, sb.vertices)
        assert np.array_equal(sa.indptr, sb.indptr)
        assert np.array_equal(sa.indices, sb.indices)
        assert np.array_equal(sa.nbr_home, sb.nbr_home)
        assert np.array_equal(sa.degrees, sb.degrees)


def test_cold_build_writes_sidecar_and_warm_load_maps_it(cache_root):
    graph, partition = _materialized()
    cached_distgraph(graph, partition)  # cold: builds + stores the sidecar
    cache = default_cache()
    assert cache.list_shards(graph.content_key) == [
        (4, dg_mod._home_digest(partition.home).hex()[:12])
    ]

    clear_distgraph_cache()
    graph2, partition2 = _materialized()  # fresh objects, same content
    assert graph2 is not graph
    dg = cached_distgraph(graph2, partition2)
    ref = DistributedGraph(graph2, partition2)
    _assert_same_distgraph(dg, ref)
    # Genuinely snapshot-backed: read-only plain-ndarray mmap views.
    assert _mmap_backed(dg.nbr_home)
    assert not dg.nbr_home.flags.writeable
    assert _mmap_backed(dg.shard(0).indices)
    with pytest.raises(ValueError):
        dg.nbr_home[0] = 99
    with pytest.raises(ValueError):
        dg.shard(1).indptr[0] = 99


def test_version_bump_invalidates_then_restores(cache_root, monkeypatch):
    graph, partition = _materialized()
    cached_distgraph(graph, partition)
    cache = default_cache()
    key = graph.content_key
    digest12 = dg_mod._home_digest(partition.home).hex()[:12]
    assert cache.load_shards(key, 4, digest12) is not None

    # A format bump makes every existing sidecar a miss, never an error.
    monkeypatch.setattr(io_mod, "SHARD_SNAPSHOT_VERSION",
                        io_mod.SHARD_SNAPSHOT_VERSION + 1)
    assert cache.load_shards(key, 4, digest12) is None
    clear_distgraph_cache()
    dg = cached_distgraph(graph, partition)  # rebuilds from the CSR...
    assert not _mmap_backed(dg.nbr_home)
    _assert_same_distgraph(dg, DistributedGraph(graph, partition))
    # ...and re-stored at the new version: the next load hits again.
    clear_distgraph_cache()
    dg2 = cached_distgraph(graph, partition)
    assert _mmap_backed(dg2.nbr_home)


def test_vanished_blob_is_a_miss_not_an_error(cache_root):
    graph, partition = _materialized()
    cached_distgraph(graph, partition)
    cache = default_cache()
    digest12 = dg_mod._home_digest(partition.home).hex()[:12]
    npy, _manifest = cache._shard_paths(graph.content_key, 4, digest12)
    npy.unlink()  # a concurrent eviction raced the manifest read
    assert cache.load_shards(graph.content_key, 4, digest12) is None
    clear_distgraph_cache()
    dg = cached_distgraph(graph, partition)  # falls back to the CSR build
    _assert_same_distgraph(dg, DistributedGraph(graph, partition))


def test_sidecars_never_predate_their_parent_entry(cache_root):
    # use_cache=False builds carry a content key but commit no entry;
    # store_shards must refuse rather than leave an orphaned sidecar.
    graph = workloads.materialize(SPEC, use_cache=False)
    assert graph.content_key is not None
    partition = random_vertex_partition(graph.n, 4, seed=11)
    cached_distgraph(graph, partition)
    assert default_cache().list_shards(graph.content_key) == []


def test_eviction_removes_sidecars_with_the_parent(cache_root):
    graph, partition = _materialized()
    cached_distgraph(graph, partition)
    cache = default_cache()
    assert cache.list_shards(graph.content_key)
    assert cache.evict(SPEC)
    assert cache.list_shards(graph.content_key) == []
    assert list(cache.graphs_dir.glob("*.shards-*")) == []


def test_orphaned_sidecars_are_swept(cache_root):
    graph, partition = _materialized()
    cached_distgraph(graph, partition)
    cache = default_cache()
    # Simulate an older-version eviction that missed the sidecars.
    npz, meta = cache._paths(graph.content_key)
    meta.unlink()
    npz.unlink()
    assert list(cache.graphs_dir.glob("*.shards-*"))
    cache.enforce_cap()
    assert list(cache.graphs_dir.glob("*.shards-*")) == []


def test_sidecar_bytes_count_toward_the_entry(cache_root):
    graph, partition = _materialized()
    cache = default_cache()
    before = cache.info(SPEC).nbytes
    cached_distgraph(graph, partition)
    (entry,) = cache.entries()
    digest12 = dg_mod._home_digest(partition.home).hex()[:12]
    npy, manifest = cache._shard_paths(graph.content_key, 4, digest12)
    assert entry.nbytes == before + npy.stat().st_size + manifest.stat().st_size


def test_warm_shard_snapshots_preloads_every_k(cache_root):
    graph, p4 = _materialized(k=4)
    p7 = random_vertex_partition(graph.n, 7, seed=2)
    cached_distgraph(graph, p4)
    cached_distgraph(graph, p7)

    clear_distgraph_cache()
    graph2 = workloads.materialize(SPEC)
    assert warm_shard_snapshots(graph2) == 2
    # Both placements now resolve from the LRU to mmap-backed distgraphs.
    for part in (p4, p7):
        dg = cached_distgraph(graph2, part)
        assert _mmap_backed(dg.nbr_home)
        _assert_same_distgraph(dg, DistributedGraph(graph2, part))


def test_session_prewarm_loads_snapshots(cache_root):
    from repro.runtime.session import Session

    graph, partition = _materialized()
    cached_distgraph(graph, partition)
    clear_distgraph_cache()
    with Session(result_cache=False) as session:
        assert session.prewarm(SPEC) == 1


def test_snapshot_runs_match_rebuilt_runs(cache_root):
    """End to end: a snapshot-backed run is bit-identical to a cold one."""
    from repro import runtime

    spec = "rmat:n=2000,avg_deg=8,seed=7"
    cold = runtime.run("pagerank", dataset=spec, k=4, seed=1,
                       engine="vector", result_cache=False)
    assert cold.first_superstep_seconds is not None
    clear_distgraph_cache()
    warm = runtime.run("pagerank", dataset=spec, k=4, seed=1,
                       engine="vector", result_cache=False)
    assert _mmap_backed(warm.distgraph.nbr_home)
    assert np.array_equal(cold.result.estimates, warm.result.estimates)
    assert cold.metrics.rounds == warm.metrics.rounds
    assert cold.metrics.bits == warm.metrics.bits
