"""Tests for the sqlite result cache (keying, storage, bounds, sharing)."""

import pickle
import sqlite3
import sys
import threading

import numpy as np
import pytest

import repro.serve.results as results_mod
from repro import runtime
from repro.errors import ServeError
from repro.serve import (
    RESULT_DB_ENV,
    ResultStore,
    canonical_params,
    default_result_store,
    result_key,
)


class FakeMetrics:
    def __init__(self, rounds=3):
        self.rounds = rounds
        self.messages = 10
        self.bits = 80


def _put(store, key, **overrides):
    fields = dict(
        content_key="c" * 32, algo="pagerank", params_json="{}",
        seed=1, engine="vector", n=100, k=8,
        result={"pi": [0.1, 0.9]}, metrics=FakeMetrics(),
    )
    fields.update(overrides)
    store.put(key, **fields)


class TestCanonicalParams:
    def test_key_order_is_irrelevant(self):
        a = canonical_params({"c": 2, "eps": 0.1}, k=8)
        b = canonical_params({"eps": 0.1, "c": 2}, k=8)
        assert a == b

    def test_k_and_bandwidth_fold_into_the_surface(self):
        assert canonical_params({}, k=8) != canonical_params({}, k=16)
        assert canonical_params({}, k=8) != canonical_params({}, k=8, bandwidth=64)
        # Default (None) bandwidth leaves the surface untouched.
        assert "__bandwidth__" not in canonical_params({}, k=8)

    def test_numpy_scalars_coerce(self):
        a = canonical_params({"c": np.int64(2), "eps": np.float64(0.5)}, k=8)
        b = canonical_params({"c": 2, "eps": 0.5}, k=8)
        assert a == b

    def test_arrays_are_not_canonicalizable(self):
        with pytest.raises(TypeError, match="not canonicalizable"):
            canonical_params({"weights": np.arange(4)}, k=8)

    def test_result_key_separates_every_field(self):
        base = ("c" * 32, "pagerank", "{}", 1, "vector")
        key = result_key(*base)
        assert len(key) == 32
        for i, changed in enumerate(
            [("d" * 32, "pagerank", "{}", 1, "vector"),
             ("c" * 32, "triangles", "{}", 1, "vector"),
             ("c" * 32, "pagerank", '{"c":2}', 1, "vector"),
             ("c" * 32, "pagerank", "{}", 2, "vector"),
             ("c" * 32, "pagerank", "{}", 1, "message")]
        ):
            assert result_key(*changed) != key, f"field {i} must change the key"


class TestResultStore:
    def test_put_get_roundtrip_and_counters(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            key = result_key("c" * 32, "pagerank", "{}", 1, "vector")
            assert store.get(key) is None
            _put(store, key)
            result, metrics, meta = store.get(key)
            assert result == {"pi": [0.1, 0.9]}
            assert metrics.rounds == 3
            assert meta["algo"] == "pagerank" and meta["k"] == 8
            assert store.stats()["hits"] == 1
            assert store.stats()["misses"] == 1
            assert store.stats()["stores"] == 1

    def test_count_miss_false_skips_the_miss_counter(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert store.get("0" * 32, count_miss=False) is None
            assert store.misses == 0

    def test_lru_eviction_respects_max_entries(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite", max_entries=3) as store:
            keys = [result_key("c" * 32, "pagerank", "{}", seed, "vector")
                    for seed in range(5)]
            for seed, key in enumerate(keys):
                _put(store, key, seed=seed)
            assert len(store) == 3
            survivors = {row["key"] for row in store.rows()}
            assert survivors == set(keys[2:]), "oldest rows are evicted"

    def test_hit_refreshes_lru_rank(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite", max_entries=2) as store:
            keys = [result_key("c" * 32, "pagerank", "{}", seed, "vector")
                    for seed in range(3)]
            _put(store, keys[0], seed=0)
            _put(store, keys[1], seed=1)
            assert store.get(keys[0]) is not None  # 0 is now most recent
            _put(store, keys[2], seed=2)
            survivors = {row["key"] for row in store.rows()}
            assert survivors == {keys[0], keys[2]}

    def test_corrupt_payload_is_dropped_and_raised(self, tmp_path):
        path = tmp_path / "r.sqlite"
        store = ResultStore(path)
        key = result_key("c" * 32, "pagerank", "{}", 1, "vector")
        _put(store, key)
        with store._lock, store._conn:
            store._conn.execute(
                "UPDATE results SET payload = ? WHERE key = ?",
                (b"not a pickle", key),
            )
        with pytest.raises(ServeError, match="corrupt result payload"):
            store.get(key)
        assert len(store) == 0
        store.close()

    def test_two_handles_share_one_file(self, tmp_path):
        path = tmp_path / "r.sqlite"
        key = result_key("c" * 32, "pagerank", "{}", 1, "vector")
        with ResultStore(path) as writer, ResultStore(path) as reader:
            _put(writer, key)
            result, _, _ = reader.get(key)
            assert result == {"pi": [0.1, 0.9]}

    def test_len(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert len(store) == 0
            _put(store, "a" * 32)
            _put(store, "b" * 32)
            assert len(store) == 2

    def test_bad_max_entries_rejected(self, tmp_path):
        with pytest.raises(ServeError, match="positive"):
            ResultStore(tmp_path / "r.sqlite", max_entries=0)

    def test_default_store_follows_the_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(RESULT_DB_ENV, str(tmp_path / "a.sqlite"))
        first = default_result_store()
        assert first is default_result_store()
        monkeypatch.setenv(RESULT_DB_ENV, str(tmp_path / "b.sqlite"))
        second = default_result_store()
        assert second is not first
        assert second.path.endswith("b.sqlite")


def _pin_clock(store, start=1_000.0):
    state = {"now": start}
    store._clock = lambda: state["now"]
    return state


def _row(path, key):
    """``(last_used, hits)`` of ``key`` as a separate connection sees them."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT last_used, hits FROM results WHERE key = ?", (key,)
        ).fetchone()
    finally:
        conn.close()


class TestWriteFreeHits:
    """A hit reads; its stamps ride the next write transaction."""

    def test_synchronous_is_normal(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert store._conn.execute("PRAGMA synchronous").fetchone() == (1,)
            assert store._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)

    def test_hit_writes_nothing_until_the_next_write(self, tmp_path):
        path = tmp_path / "r.sqlite"
        with ResultStore(path) as store:
            clock = _pin_clock(store)
            _put(store, "a" * 32)
            before = store._conn.total_changes
            clock["now"] += 5
            for _ in range(3):
                assert store.get("a" * 32) is not None
            assert store._conn.total_changes == before
            assert not store._conn.in_transaction
            assert _row(path, "a" * 32) == (1_000.0, 0)
            (row,) = store.rows()  # rows() flushes first
            assert (row["last_used"], row["hits"]) == (1_005.0, 3)
            assert _row(path, "a" * 32) == (1_005.0, 3)
            assert store.stats()["hits"] == 3

    def test_eviction_honours_buffered_stamps(self, tmp_path):
        path = tmp_path / "r.sqlite"
        with ResultStore(path, max_entries=3) as store:
            clock = _pin_clock(store)
            for name in "abc":
                clock["now"] += 1
                _put(store, name * 32)
            clock["now"] += 1
            assert store.get("a" * 32) is not None  # the oldest row, touched
            assert _row(path, "a" * 32)[1] == 0, "the touch is still buffered"
            clock["now"] += 1
            _put(store, "d" * 32)  # overflow: the least recently *used* goes
            assert {row["key"][0] for row in store.rows()} == {"a", "c", "d"}

    def test_pending_stamps_flush_at_the_threshold(self, tmp_path):
        path = tmp_path / "r.sqlite"
        with ResultStore(path) as store:
            _put(store, "a" * 32)
            _put(store, "b" * 32)
            for i in range(results_mod.FLUSH_PENDING_HITS - 1):
                store.get(("a", "b")[i % 2] * 32)
            assert _row(path, "a" * 32)[1] == _row(path, "b" * 32)[1] == 0
            store.get("b" * 32)  # the 256th pending hit writes them all
            total = results_mod.FLUSH_PENDING_HITS
            assert _row(path, "a" * 32)[1] == total // 2
            assert _row(path, "b" * 32)[1] == total - total // 2
            assert store._pending == {} and store._pending_hits == 0

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "r.sqlite"
        with ResultStore(path) as store:
            _put(store, "a" * 32)
            store.get("a" * 32)
        assert _row(path, "a" * 32)[1] == 1
        store.close()  # closing twice stays harmless


    def test_no_stamp_is_lost_between_threads(self, tmp_path, monkeypatch):
        """Hits from 8 threads race a writer's flushes: every one is counted."""
        monkeypatch.setattr(results_mod, "FLUSH_PENDING_HITS", 7)
        monkeypatch.setattr(results_mod, "DECODED_BYTES", 400)  # ~2 of the 3 rows fit
        hot = [name * 32 for name in "abc"]
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ResultStore(tmp_path / "r.sqlite") as store:
                for key in hot:
                    _put(store, key)

                def reader(offset):
                    try:
                        for i in range(150):
                            assert store.get(hot[(offset + i) % 3]) is not None
                    except Exception as exc:  # noqa: BLE001 - collected for assert
                        errors.append(exc)

                def writer():
                    try:
                        for i in range(40):
                            _put(store, f"{i:032d}", seed=i)
                            store.rows()
                    except Exception as exc:  # noqa: BLE001 - collected for assert
                        errors.append(exc)

                threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
                threads.append(threading.Thread(target=writer))
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                hits = {row["key"]: row["hits"] for row in store.rows()}
                assert [hits[key] for key in hot] == [400, 400, 400]
                assert store.hits == 1200 and len(store) == 43
                assert store._decoded_bytes == sum(e[1] for e in store._decoded.values())
        finally:
            sys.setswitchinterval(interval)


class TestDecodedRows:
    """The decoded LRU: fast, but sqlite stays the source of truth."""

    def test_unchanged_row_is_not_unpickled_again(self, tmp_path, monkeypatch):
        with ResultStore(tmp_path / "r.sqlite") as store:
            _put(store, "a" * 32)
            first = store.get("a" * 32)
            monkeypatch.setattr(results_mod, "pickle", None)  # any use would raise
            second = store.get("a" * 32)
            assert second[0] is first[0] and second[1] is first[1]
            assert second[2] == first[2] and second[2] is not first[2]

    def test_arrays_are_read_only_and_survive_a_writer(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            payload = {"pi": np.arange(4.0), "nested": [{"x": np.ones(2)}]}
            _put(store, "a" * 32, result=payload)
            result, _, _ = store.get("a" * 32)
            with pytest.raises(ValueError, match="read-only"):
                result["pi"][0] = 99.0
            with pytest.raises(ValueError, match="read-only"):
                result["nested"][0]["x"][0] = 99.0
            again, _, _ = store.get("a" * 32)
            assert np.array_equal(again["pi"], np.arange(4.0))
            assert payload["pi"].flags.writeable, "the caller's own array is untouched"

    def test_other_handle_clears_or_replaces_the_row(self, tmp_path):
        path = tmp_path / "r.sqlite"
        with ResultStore(path) as first, ResultStore(path) as second:
            _pin_clock(first)
            clock = _pin_clock(second)
            _put(first, "a" * 32, result={"v": 1})
            assert first.get("a" * 32)[0] == {"v": 1}  # now decoded in `first`
            clock["now"] += 1
            _put(second, "a" * 32, result={"v": 2})  # replaced elsewhere
            assert first.get("a" * 32)[0] == {"v": 2}, "re-read, not the decoded copy"
            with sqlite3.connect(path) as other:  # another process drops the row
                assert other.execute("DELETE FROM results").rowcount == 1
            assert first.get("a" * 32) is None
            assert first._decoded == {} and first._pending == {}

    def test_own_put_replaces_the_decoded_copy(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            _pin_clock(store)  # same `created` on both puts
            _put(store, "a" * 32, result={"v": 1})
            assert store.get("a" * 32)[0] == {"v": 1}
            _put(store, "a" * 32, result={"v": 2})
            assert store.get("a" * 32)[0] == {"v": 2}

    def test_decoded_rows_are_bounded_by_bytes(self, tmp_path, monkeypatch):
        with ResultStore(tmp_path / "r.sqlite") as store:
            for name in "abc":
                _put(store, name * 32, result=np.zeros(1000))
            one_row = len(pickle.dumps((np.zeros(1000), FakeMetrics()),
                                       protocol=pickle.HIGHEST_PROTOCOL))
            monkeypatch.setattr(results_mod, "DECODED_BYTES", 2 * one_row)
            for name in "abc":
                store.get(name * 32)
            assert list(store._decoded) == ["b" * 32, "c" * 32], "oldest dropped"
            assert store._decoded_bytes == 2 * one_row
            # A row over the whole bound is served but never kept, and
            # its hits are still counted.
            monkeypatch.setattr(results_mod, "DECODED_BYTES", one_row - 1)
            for _ in range(2):
                assert store.get("a" * 32) is not None
            assert "a" * 32 not in store._decoded
            assert {r["key"]: r["hits"] for r in store.rows()}["a" * 32] == 3


class TestRunIntegration:
    """The cache under real runs: payloads must survive the roundtrip."""

    def test_cached_report_is_bit_identical(self, tmp_path):
        from repro.workloads import GraphCache

        g = GraphCache(root=tmp_path / "data").materialize(
            "gnp:n=120,avg_deg=5,seed=3"
        )
        with ResultStore(tmp_path / "r.sqlite") as store:
            first = runtime.run("pagerank", g, k=4, seed=1, result_cache=store)
            second = runtime.run("pagerank", g, k=4, seed=1, result_cache=store)
            assert not first.cached and second.cached
            assert np.array_equal(
                first.result.estimates, second.result.estimates
            )
            assert second.rounds == first.rounds
            assert second.metrics.messages == first.metrics.messages
            # The payload really came from sqlite, not memory.
            raw = sqlite3.connect(store.path).execute(
                "SELECT payload FROM results"
            ).fetchone()[0]
            result, _ = pickle.loads(raw)
            assert np.array_equal(result.estimates, first.result.estimates)

    def test_engine_by_class_and_by_name_share_one_row(self, tmp_path):
        """``engine=VectorEngine`` keys, traces and reports by the class's name."""
        import json

        from repro.kmachine.engine import VectorEngine
        from repro.workloads import GraphCache

        g = GraphCache(root=tmp_path / "data").materialize(
            "gnp:n=120,avg_deg=5,seed=3"
        )
        trace = tmp_path / "trace.jsonl"
        with ResultStore(tmp_path / "r.sqlite") as store:
            first = runtime.run("pagerank", g, k=4, seed=1, engine=VectorEngine,
                                result_cache=store, trace=str(trace))
            second = runtime.run("pagerank", g, k=4, seed=1, engine="vector",
                                 result_cache=store)
            assert not first.cached and second.cached
            assert first.engine == second.engine == "vector"
            (row,) = store.rows()
            assert row["engine"] == "vector" and row["hits"] == 1
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        (start,) = (e for e in events if e["event"] == "run_start")
        assert start["engine"] == "vector"
