"""Multiprocessing stress tests for the on-disk graph cache.

The PR-5 cache assumed one process per root; the serve daemon (and any
parallel bench sweep) breaks that assumption.  These tests hammer one
tiny cache root from several processes that materialize, evict, and
enforce the byte cap concurrently, asserting the contract the fixes
establish: no crash ever escapes, and every successfully loaded graph
is bit-identical to a fresh build of its spec.
"""

import hashlib
import multiprocessing as mp
import threading

import numpy as np

from repro.workloads import GraphCache, parse_spec
from repro.workloads.spec import build_dataset

SPECS = [f"gnp:n=120,avg_deg=4,seed={seed}" for seed in range(4)]


def _graph_digest(graph) -> str:
    h = hashlib.blake2b(digest_size=16)
    for arr in (graph.edges, graph.indptr, graph.indices):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _stress_worker(root, worker_id, iterations, queue):
    """Churn one cache root; report (spec, digest) pairs or the crash."""
    try:
        cache = GraphCache(root=root, max_bytes=30_000)  # ~2 graphs fit
        digests = []
        for i in range(iterations):
            spec = SPECS[(worker_id + i) % len(SPECS)]
            graph = cache.materialize(spec)
            digests.append((parse_spec(spec).canonical(), _graph_digest(graph)))
            if i % 3 == worker_id % 3:
                cache.enforce_cap()
            if i % 4 == worker_id % 4:
                cache.evict(spec)
            cache.entries()  # scans race concurrent _remove
        queue.put(("ok", worker_id, digests))
    except BaseException as exc:  # noqa: BLE001 - the assertion subject
        queue.put(("error", worker_id, f"{type(exc).__name__}: {exc}"))


def test_concurrent_processes_share_one_root(tmp_path):
    """N processes materialize/evict/enforce_cap one root: no crash,
    every load bit-identical."""
    root = str(tmp_path / "cache")
    queue = mp.Queue()
    workers = [
        mp.Process(target=_stress_worker, args=(root, wid, 8, queue))
        for wid in range(4)
    ]
    for p in workers:
        p.start()
    results = [queue.get(timeout=120) for _ in workers]
    for p in workers:
        p.join(timeout=30)
        assert p.exitcode == 0
    failures = [r for r in results if r[0] == "error"]
    assert failures == [], f"workers crashed: {failures}"

    expected = {
        parse_spec(spec).canonical(): _graph_digest(build_dataset(spec))
        for spec in SPECS
    }
    for _, worker_id, digests in results:
        assert digests, f"worker {worker_id} loaded nothing"
        for canonical, digest in digests:
            assert digest == expected[canonical], (
                f"worker {worker_id} loaded a non-identical graph "
                f"for {canonical}"
            )


def test_concurrent_threads_share_one_cache(tmp_path):
    """The same contract inside one process (daemon threads share a root)."""
    cache = GraphCache(root=tmp_path / "cache", max_bytes=30_000)
    errors, digests = [], []
    lock = threading.Lock()

    def worker(worker_id):
        try:
            for i in range(6):
                spec = SPECS[(worker_id + i) % len(SPECS)]
                graph = cache.materialize(spec)
                with lock:
                    digests.append((parse_spec(spec).canonical(),
                                    _graph_digest(graph)))
                if i % 2 == worker_id % 2:
                    cache.enforce_cap()
                else:
                    cache.evict(spec)
        except BaseException as exc:  # noqa: BLE001 - the assertion subject
            with lock:
                errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(wid,)) for wid in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    expected = {
        parse_spec(spec).canonical(): _graph_digest(build_dataset(spec))
        for spec in SPECS
    }
    for canonical, digest in digests:
        assert digest == expected[canonical]


def test_load_survives_eviction_mid_read(tmp_path, monkeypatch):
    """A snapshot deleted between the hit check and the npz read is a
    miss (rebuild + re-store), not a FileNotFoundError."""
    import repro.workloads.cache as cache_mod

    cache = GraphCache(root=tmp_path / "cache")
    spec = SPECS[0]
    cache.materialize(spec)

    real_read = cache_mod._io.read_npz
    deleted = []

    def vanishing_read(path):
        if not deleted:
            deleted.append(path)
            path.unlink()  # a concurrent enforce_cap got there first
        return real_read(path)

    monkeypatch.setattr(cache_mod._io, "read_npz", vanishing_read)
    assert cache.load(spec) is None, "vanished snapshot must read as a miss"
    monkeypatch.undo()
    graph = cache.materialize(spec)  # rebuilds and re-stores
    assert cache.has(spec)
    assert _graph_digest(graph) == _graph_digest(build_dataset(spec))


def test_entries_tolerates_vanishing_files(tmp_path):
    """entries() must skip rows whose files vanish mid-scan."""
    cache = GraphCache(root=tmp_path / "cache")
    for spec in SPECS[:2]:
        cache.materialize(spec)
    # Simulate the race: a sidecar disappears after the glob.
    victim = cache.info(SPECS[0]).path
    victim.with_suffix(".json").unlink()
    entries = cache.entries()
    assert len(entries) == 1
    assert entries[0].key == parse_spec(SPECS[1]).content_hash()


def test_sidecar_bytes_count_toward_the_cap(tmp_path):
    """enforce_cap sees the full entry footprint, npz plus sidecar."""
    cache = GraphCache(root=tmp_path / "cache")
    cache.materialize(SPECS[0])
    (entry,) = cache.entries()
    npz_bytes = entry.path.stat().st_size
    sidecar_bytes = entry.path.with_suffix(".json").stat().st_size
    assert sidecar_bytes > 0
    assert entry.nbytes == npz_bytes + sidecar_bytes
