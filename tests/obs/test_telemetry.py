"""Telemetry tests: registry, Prometheus rendering, MinuteRing, daemon."""

import gc
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.registry import (
    MinuteRing,
    ObsRegistry,
    obs_registry,
    render_prometheus,
)


class TestObsRegistry:
    def test_register_collect_unregister(self):
        reg = ObsRegistry()

        def stats():
            return {"hits": 3}

        token = reg.register("store", stats)
        assert reg.collect() == {"store": {token: {"hits": 3}}}
        reg.unregister(token)
        assert reg.collect() == {}

    def test_shared_name_collects_every_instance(self):
        reg = ObsRegistry()

        def a():
            return {"x": 1}

        def b():
            return {"x": 2}

        token_a = reg.register("s", a)
        token_b = reg.register("s", b)
        assert token_a != token_b
        assert reg.collect() == {"s": {token_a: {"x": 1}, token_b: {"x": 2}}}
        reg.unregister(token_a)
        assert reg.collect() == {"s": {token_b: {"x": 2}}}

    def test_a_source_keeps_its_label_when_an_earlier_one_goes(self):
        reg = ObsRegistry()

        def a():
            return {"x": 1}

        def b():
            return {"x": 2}

        token_a = reg.register("s", a)
        token_b = reg.register("s", b)
        line_b = f'repro_s_x{{source="{token_b}"}} 2'
        assert render_prometheus({}, sources=reg.collect()) == (
            f'repro_s_x{{source="{token_a}"}} 1\n{line_b}\n')
        reg.unregister(token_a)
        assert render_prometheus({}, sources=reg.collect()) == line_b + "\n"

    def test_two_live_sessions_share_one_series_name(self):
        from repro.graphs import gnp_random_graph
        from repro.runtime import Session

        with Session(result_cache=None) as first, Session(result_cache=None) as second:
            first.run("connectivity", gnp_random_graph(30, 0.2, seed=1), k=4, seed=1)
            text = render_prometheus({}, sources=obs_registry().collect())
        assert "repro_session_2_" not in text
        executed = [line for line in text.splitlines()
                    if line.startswith("repro_session_executed")]
        # Each session's samples carry its own token; the run shows under
        # the first, and the series' lines stay together.
        assert f'repro_session_executed{{source="{first._obs_token}"}} 1' in executed
        assert f'repro_session_executed{{source="{second._obs_token}"}} 0' in executed
        assert all(line.startswith('repro_session_executed{source="') for line in executed)
        first_at = text.splitlines().index(executed[0])
        assert text.splitlines()[first_at:first_at + len(executed)] == executed

    def test_sources_are_weak(self):
        reg = ObsRegistry()

        class Component:
            def stats(self):
                return {"alive": True}

        comp = Component()
        token = reg.register("comp", comp.stats)
        assert reg.collect() == {"comp": {token: {"alive": True}}}
        del comp
        gc.collect()
        assert reg.collect() == {}

    def test_failing_source_is_isolated(self):
        reg = ObsRegistry()

        def bad():
            raise RuntimeError("mid-teardown")

        def good():
            return {"ok": 1}

        bad_token = reg.register("bad", bad)
        good_token = reg.register("good", good)
        out = reg.collect()
        assert out["good"] == {good_token: {"ok": 1}}
        assert "error" in out["bad"][bad_token]

    def test_components_register_into_the_global_registry(self, tmp_path):
        from repro.serve.results import ResultStore

        store = ResultStore(tmp_path / "r.sqlite")
        try:
            assert "result_store" in " ".join(obs_registry().collect())
        finally:
            store.close()
        from repro.workloads.cache import cache_stats

        assert "graph_cache" in obs_registry().collect()
        assert set(cache_stats()) >= {"hits", "misses", "builds", "stores",
                                      "evictions"}


class TestRenderPrometheus:
    def test_flattens_and_skips_strings(self):
        text = render_prometheus({
            "store": {"hits": 3, "path": "/tmp/x", "nested": {"p50": 0.25},
                      "closed": False},
        })
        assert "repro_store_hits 3" in text
        assert "repro_store_nested_p50 0.25" in text
        assert "repro_store_closed 0" in text
        assert "/tmp/x" not in text
        assert text.endswith("\n")

    def test_sources_are_labelled_by_token(self):
        text = render_prometheus({"store": {"hits": 1}},
                                 sources={"session": {12: {"errors": 4}, 3: {"errors": 0}}})
        assert text == ('repro_session_errors{source="3"} 0\n'
                        'repro_session_errors{source="12"} 4\n'
                        "repro_store_hits 1\n")

    def test_sanitizes_names(self):
        text = render_prometheus({"result-store": {"latency p50.s": 1}})
        assert "repro_result_store_latency_p50_s 1" in text


class TestMinuteRing:
    def test_outcomes_land_in_their_buckets(self):
        ring = MinuteRing()
        now = 1_000_000.0
        ring.observe(0.1, kind="hit", now=now)
        ring.observe(0.2, kind="executed", now=now)
        ring.observe(0.3, kind="error", now=now)
        ring.observe(0.4, kind="rejected", now=now)
        ring.observe(0.5, kind="timeout", now=now)
        (row,) = ring.rows()
        assert row["requests"] == 5
        assert row["hits"] == 1 and row["executed"] == 1
        assert row["errors"] == 1
        assert row["rejected"] == 1 and row["timeouts"] == 1

    def test_unknown_kind_raises(self):
        ring = MinuteRing()
        with pytest.raises(ValueError, match="unknown request kind"):
            ring.observe(0.6, kind="???", now=1_000_000.0)

    def test_latency_quantiles(self):
        ring = MinuteRing()
        now = 1_000_000.0
        for i in range(100):
            ring.observe(i / 100, now=now)
        (row,) = ring.rows()
        assert row["latency_p50_s"] == pytest.approx(0.50, abs=0.02)
        assert row["latency_p99_s"] == pytest.approx(0.99, abs=0.02)
        assert row["latency_max_s"] == pytest.approx(0.99)

    def test_ring_is_bounded_and_ordered(self):
        ring = MinuteRing(minutes=3)
        for minute in range(10):
            ring.observe(0.1, now=minute * 60.0)
        rows = ring.rows()
        assert len(rows) == 3
        assert [r["minute"] for r in rows] == [420, 480, 540]
        assert ring.rows(limit=1)[0]["minute"] == 540

    def test_stale_observation_never_evicts_the_newest(self):
        ring = MinuteRing(minutes=3)
        for minute in range(3, 6):
            ring.observe(0.1, now=minute * 60.0)
        # A clock step-back files into an older minute than anything
        # retained: the stale bucket is the one dropped, not the newest.
        ring.observe(0.1, now=0.0)
        assert [r["minute"] for r in ring.rows()] == [180, 240, 300]

    def test_sample_reservoir_is_bounded(self):
        ring = MinuteRing(max_samples=8)
        now = 1_000_000.0
        for _ in range(100):
            ring.observe(1.0, now=now)
        (row,) = ring.rows()
        assert row["requests"] == 100
        assert row["latency_max_s"] == 1.0

    def test_current_is_zero_when_idle(self):
        ring = MinuteRing()
        cur = ring.current(now=60.0)
        assert cur["requests"] == 0 and cur["minute"] == 60

    def test_per_algo_breakdowns(self):
        ring = MinuteRing()
        now = 1_000_000.0
        ring.observe(0.1, kind="executed", now=now, algo="pagerank")
        ring.observe(0.2, kind="hit", now=now, algo="pagerank")
        ring.observe(0.3, kind="error", now=now, algo="mst")
        ring.observe(0.4, kind="executed", now=now)  # unattributed
        (row,) = ring.rows()
        assert row["requests"] == 4
        algos = row["algos"]
        assert algos["pagerank"] == {
            "requests": 2, "hits": 1, "executed": 1, "errors": 0,
            "rejected": 0, "timeouts": 0}
        assert algos["mst"]["errors"] == 1 and algos["mst"]["requests"] == 1
        # Unattributed requests count in the bucket totals only.
        assert sum(a["requests"] for a in algos.values()) == 3

    def test_algo_labels_are_capped(self):
        ring = MinuteRing(max_algos=2)
        now = 1_000_000.0
        for name in ("a", "b", "c", "d", "a"):
            ring.observe(0.1, now=now, algo=name)
        (row,) = ring.rows()
        algos = row["algos"]
        assert set(algos) == {"a", "b", "other"}
        assert algos["a"]["requests"] == 2
        assert algos["other"]["requests"] == 2  # c and d folded

    def test_rows_without_algo_have_no_breakdown(self):
        ring = MinuteRing()
        ring.observe(0.1, now=1_000_000.0)
        (row,) = ring.rows()
        assert "algos" not in row

    def test_cap_boundary_is_exact(self):
        # Exactly max_algos distinct labels: all named, no "other".
        ring = MinuteRing(max_algos=3)
        now = 1_000_000.0
        for name in ("a", "b", "c"):
            ring.observe(0.1, now=now, algo=name)
        (row,) = ring.rows()
        assert set(row["algos"]) == {"a", "b", "c"}
        # The first label past the cap folds; labels seen before the cap
        # keep accruing under their own name.
        ring.observe(0.1, now=now, algo="d")
        ring.observe(0.1, now=now, algo="a")
        (row,) = ring.rows()
        assert set(row["algos"]) == {"a", "b", "c", "other"}
        assert row["algos"]["a"]["requests"] == 2
        assert row["algos"]["other"]["requests"] == 1

    def test_cap_is_per_bucket_not_global(self):
        ring = MinuteRing(max_algos=1)
        ring.observe(0.1, now=0.0, algo="a")
        ring.observe(0.1, now=0.0, algo="b")       # folded in minute 0
        ring.observe(0.1, now=60.0, algo="b")      # fresh bucket: named
        rows = ring.rows()
        assert set(rows[0]["algos"]) == {"a", "other"}
        assert set(rows[1]["algos"]) == {"b"}

    def test_quantiles_under_threaded_mixed_algo_storm(self):
        import threading

        # 8 threads x 64 observations = 512 samples: exactly the
        # reservoir cap, so the quantiles are over the full population.
        ring = MinuteRing(max_samples=512)
        now = 1_000_000.0
        threads = []

        def storm(t):
            for i in range(64):
                ring.observe((t * 64 + i) / 512, now=now,
                             kind="error" if t == 0 else "executed",
                             algo=f"algo-{t}")

        for t in range(8):
            threads.append(threading.Thread(target=storm, args=(t,)))
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        (row,) = ring.rows()
        assert row["requests"] == 512
        assert row["errors"] == 64 and row["executed"] == 448
        # Latencies form {0..511}/512 regardless of interleaving.
        assert row["latency_p50_s"] == pytest.approx(0.5, abs=0.01)
        assert row["latency_p99_s"] == pytest.approx(0.99, abs=0.01)
        assert row["latency_max_s"] == pytest.approx(511 / 512)
        # 8 labels, under the default cap: every one attributed exactly.
        algos = row["algos"]
        assert set(algos) == {f"algo-{t}" for t in range(8)}
        assert all(a["requests"] == 64 for a in algos.values())


DATASET = "gnp:n=120,avg_deg=5,seed=3"


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    from repro.serve import RESULT_DB_ENV
    from repro.workloads import DATA_DIR_ENV

    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "data"))
    monkeypatch.setenv(RESULT_DB_ENV, str(tmp_path / "results.sqlite"))


@pytest.fixture
def daemon():
    from repro.serve import ReproServer, ServeClient

    server = ReproServer(port=0)
    with server.start_in_thread() as handle:
        client = ServeClient(handle.host, handle.port)
        client.wait_until_ready()
        yield server, client


def _get(client, path):
    url = f"http://{client.host}:{client.port}{path}"
    with urllib.request.urlopen(url, timeout=30) as reply:
        return reply.status, reply.headers.get("Content-Type"), reply.read()


class TestDaemonTelemetry:
    def test_metrics_endpoint_serves_prometheus_text(self, daemon):
        server, client = daemon
        client.run("pagerank", dataset=DATASET, k=4, seed=1)
        status, content_type, body = _get(client, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        text = body.decode()
        assert "repro_server_served 1" in text
        token = server.session._obs_token
        assert f'repro_session_executed{{source="{token}"}} 1' in text
        assert "repro_serve_minute_requests 1" in text

    def test_status_history_returns_the_ring(self, daemon):
        server, client = daemon
        client.run("pagerank", dataset=DATASET, k=4, seed=1)
        client.run("pagerank", dataset=DATASET, k=4, seed=1)  # result-cache hit
        plain = client.status()
        assert "history" not in plain
        import json as _json

        status, _, body = _get(client, "/status?history=1")
        assert status == 200
        history = _json.loads(body)["history"]
        assert sum(row["requests"] for row in history) == 2
        assert sum(row["executed"] for row in history) == 1
        assert sum(row["hits"] for row in history) == 1
        assert any("latency_p50_s" in row for row in history)
        # Per-algo attribution rides along in the same rows.
        pagerank = [row["algos"]["pagerank"] for row in history
                    if "algos" in row]
        assert sum(a["requests"] for a in pagerank) == 2
        assert sum(a["hits"] for a in pagerank) == 1

    def test_run_response_carries_timing_and_bound(self, daemon):
        server, client = daemon
        report = client.run("pagerank", dataset=DATASET, k=4, seed=1)
        assert report["wall_seconds"] > 0
        assert report["first_superstep_seconds"] is not None
        bound = report["bound"]
        assert bound["algo"] == "pagerank"
        assert bound["ok"] is True
        assert bound["measured_rounds"] == report["rounds"]
        hit = client.run("pagerank", dataset=DATASET, k=4, seed=1)
        assert hit["cached"] is True
        assert hit["wall_seconds"] is not None
        assert hit["bound"]["measured_rounds"] == report["rounds"]

    def test_bad_requests_count_as_errors_in_the_ring(self, daemon):
        server, client = daemon
        url = f"http://{client.host}:{client.port}/run"
        request = urllib.request.Request(
            url, data=b'{"algo": "no-such-algo", "dataset": "%s", "k": 4}'
            % DATASET.encode(), method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(request)
        assert server.ring.current()["errors"] >= 1

    def test_telemetry_under_concurrent_load(self, daemon):
        server, client = daemon
        client.run("pagerank", dataset=DATASET, k=4, seed=1)  # warm the cache
        errors = []

        def hammer():
            try:
                for _ in range(3):
                    client.run("pagerank", dataset=DATASET, k=4, seed=1)
                    _get(client, "/metrics")
                    _get(client, "/status?history=1")
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        rows = server.ring.rows()
        total = sum(row["requests"] for row in rows)
        assert total == 13  # 1 warmup + 4 threads x 3 runs
        assert sum(row["hits"] for row in rows) == 12
        _, _, body = _get(client, "/metrics")
        assert b"repro_server_served 13" in body
