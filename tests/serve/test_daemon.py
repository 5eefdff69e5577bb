"""End-to-end daemon tests: HTTP surface, concurrency, fault isolation."""

import inspect
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.core.mst.distributed import boruvka_forest
from repro.errors import ServeError
from repro.serve import ReproServer, ServeClient
from oracles import path_graph

DATASET = "gnp:n=150,avg_deg=5,seed=3"


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    from repro.serve import RESULT_DB_ENV
    from repro.workloads import DATA_DIR_ENV

    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path / "data"))
    monkeypatch.setenv(RESULT_DB_ENV, str(tmp_path / "results.sqlite"))


@pytest.fixture
def daemon():
    """A live daemon on an ephemeral port, with a bound client."""
    server = ReproServer(port=0)
    with server.start_in_thread() as handle, ServeClient(handle.host, handle.port) as client:
        client.wait_until_ready()
        yield server, client


class TestHTTPSurface:
    def test_health_and_status(self, daemon):
        server, client = daemon
        assert client.health()["ok"]
        status = client.status()
        assert status["served"] == 0  # counts completed /run requests only
        assert status["session"]["requests"] == 0
        assert status["uptime_s"] >= 0

    def test_unknown_path_404(self, daemon):
        _, client = daemon
        url = f"http://{client.host}:{client.port}/nope"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url)
        assert err.value.code == 404

    def test_wrong_method_405(self, daemon):
        _, client = daemon
        url = f"http://{client.host}:{client.port}/health"
        request = urllib.request.Request(url, data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 405

    def test_malformed_json_400(self, daemon):
        _, client = daemon
        url = f"http://{client.host}:{client.port}/run"
        request = urllib.request.Request(
            url, data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        body = json.loads(err.value.read())
        assert body["ok"] is False


def _exchange(sock, request: bytes) -> tuple[int, dict, dict]:
    """Send one raw request; ``(status, headers, json body)`` of the reply."""
    sock.sendall(request)
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        assert chunk, f"connection closed mid-reply after {buffer!r}"
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {name.strip().lower(): value.strip()
               for name, _, value in (line.partition(":") for line in lines)}
    while len(body) < int(headers["content-length"]):
        body += sock.recv(65536)
    return int(status_line.split()[1]), headers, json.loads(body)


def _run_request(version="HTTP/1.1", extra="", **fields) -> bytes:
    body = json.dumps({"algo": "triangles", "dataset": DATASET, "k": 4, **fields}).encode()
    return (f"POST /run {version}\r\nHost: test\r\n{extra}"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def _closed_by_peer(sock) -> bool:
    sock.settimeout(5.0)
    return sock.recv(1) == b""


class TestPersistentConnections:
    def test_two_runs_on_one_socket(self, daemon):
        _, client = daemon
        with socket.create_connection((client.host, client.port)) as sock:
            status, headers, first = _exchange(sock, _run_request(seed=9))
            assert status == 200 and headers["connection"] == "keep-alive"
            assert first["report"]["cached"] is False
            # Both at once: the daemon answers them in order.
            sock.sendall(_run_request(seed=9) + _run_request(seed=10))
            _, _, second = _exchange(sock, b"")
            _, _, third = _exchange(sock, b"")
            assert second["report"]["cached"] is True
            assert second["report"]["rounds"] == first["report"]["rounds"]
            assert third["report"]["cached"] is False
        assert client.status()["session"]["executed"] == 2

    @pytest.mark.parametrize("version, extra", [
        ("HTTP/1.1", "Connection: close\r\n"),
        ("HTTP/1.0", ""),
        ("HTTP/1.0", "Connection: keep-alive\r\n"),
    ])
    def test_close_and_http10_get_one_reply(self, daemon, version, extra):
        _, client = daemon
        with socket.create_connection((client.host, client.port)) as sock:
            status, headers, reply = _exchange(sock, _run_request(version, extra, seed=9))
            assert status == 200 and reply["ok"]
            assert headers["connection"] == "close"
            assert _closed_by_peer(sock)

    @pytest.mark.parametrize("request_bytes, expected", [
        (b"NONSENSE\r\n\r\n", 400),
        (b"GET /health SPDY/9\r\n\r\n", 400),
        (b"POST /run HTTP/1.1\r\nContent-Length: many\r\n\r\n", 400),
        (b"POST /run HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n", 413),
        (b"POST /run HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 413),
        (b"GET /health HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", 400),
        (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 400),
    ], ids=["no-version", "not-http", "length-not-a-number", "length-over-1MiB",
            "negative-length", "101-header-lines", "70kB-request-line"])
    def test_unparseable_request_is_answered_then_closed(self, daemon, request_bytes,
                                                         expected):
        _, client = daemon
        with socket.create_connection((client.host, client.port)) as sock:
            status, headers, reply = _exchange(sock, request_bytes)
            assert status == expected and reply["ok"] is False
            assert headers["connection"] == "close"
            assert _closed_by_peer(sock), "the stream cannot be resynchronised"
        assert client.health()["ok"], "the daemon keeps serving"

    def test_body_at_the_cap_is_read(self, daemon):
        _, client = daemon
        body = b" " * (1024**2 - 2) + b"{}"
        with socket.create_connection((client.host, client.port)) as sock:
            status, headers, reply = _exchange(
                sock, b"POST /run HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n" + body)
            assert status == 400 and "algo" in reply["message"]
            assert headers["connection"] == "keep-alive", "parsed fine: stays open"

    def test_client_reuses_its_connection(self, daemon):
        _, client = daemon
        client.health()
        ((sock, _),) = client._conns.values()
        client.run("triangles", dataset=DATASET, k=4, seed=9)
        client.status()
        assert list(client._conns.values())[0][0] is sock and len(client._conns) == 1

    def test_one_client_shared_by_eight_threads(self, daemon):
        _, client = daemon
        client.run("pagerank", dataset=DATASET, k=4, seed=1)  # warm the key
        errors, reports, socks = [], [], set()
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait()
                for _ in range(3):
                    reports.append(client.run("pagerank", dataset=DATASET, k=4, seed=1))
                socks.add(client._conns[threading.get_ident()][0])
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []
        assert len(reports) == 24 and all(r["cached"] and r["n"] == 150 for r in reports)
        assert len(socks) == 8, "one connection per calling thread"

    def test_client_reconnects_after_a_daemon_restart(self):
        with ReproServer(port=0).start_in_thread() as handle:
            port = handle.port
            client = ServeClient(handle.host, port)
            first = client.run("triangles", dataset=DATASET, k=4, seed=9)
        # The old daemon closed the idle connection; a new one owns the port.
        with ReproServer(port=port).start_in_thread():
            again = client.run("triangles", dataset=DATASET, k=4, seed=9)
            assert again["cached"] is True and again["rounds"] == first["rounds"]
        with pytest.raises(ServeError, match="no daemon"):
            client.health()  # reused and dropped, then refused afresh
        with pytest.raises(ServeError, match="no daemon"):
            client.health()  # a fresh connection that is refused


    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{\"ok\": tr",
        b"HTTP/1.1 200 OK\r\nContent-Le",
        b"garbage\r\n\r\n",
    ], ids=["truncated-body", "truncated-headers", "not-http"])
    def test_broken_reply_is_an_error_and_is_not_replayed(self, reply):
        """Only a connection dropped *before any reply byte* earns a resend."""
        requests = []
        ok = b'{"ok": true}'
        good = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(ok), ok)

        def serve(listener):
            conn, _ = listener.accept()
            with conn:
                for answer in (good, reply):  # the second reply is the broken one
                    requests.append(conn.recv(65536))
                    conn.sendall(answer)

        with socket.create_server(("127.0.0.1", 0)) as listener:
            server = threading.Thread(target=serve, args=(listener,))
            server.start()
            with ServeClient(port=listener.getsockname()[1], timeout=5.0) as client:
                assert client.health() == {"ok": True}
                with pytest.raises(ServeError, match="no daemon"):
                    client.health()
                assert client._conns == {}, "the broken connection is dropped"
            server.join(timeout=5.0)
        assert not server.is_alive() and len(requests) == 2


class TestRunRequests:
    def test_miss_then_result_cache_hit(self, daemon):
        server, client = daemon
        first = client.run("triangles", dataset=DATASET, k=4, seed=9)
        second = client.run("triangles", dataset=DATASET, k=4, seed=9)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["rounds"] == first["rounds"]
        assert second["messages"] == first["messages"]
        status = client.status()
        assert status["session"]["executed"] == 1
        assert status["session"]["cache_hits"] == 1
        assert status["session"]["result_store"]["hits"] == 1

    def test_one_default_engine_over_every_door(self, daemon):
        """Session, runtime.run and POST /run with no engine share one row."""
        from repro import runtime
        from repro.kmachine.engine import DEFAULT_ENGINE

        server, client = daemon
        store = server.session.store
        first = server.session.run("triangles", dataset=DATASET, k=4, seed=9)
        second = runtime.run("triangles", dataset=DATASET, k=4, seed=9,
                             result_cache=store)
        third = client.run("triangles", dataset=DATASET, k=4, seed=9)
        assert (first.cached, second.cached, third["cached"]) == (False, True, True)
        assert first.engine == second.engine == third["engine"] == DEFAULT_ENGINE
        (row,) = store.rows()
        assert row["engine"] == DEFAULT_ENGINE and row["hits"] == 2
        assert store.stats()["hits"] == 2 and store.stats()["stores"] == 1

    def test_summary_rows_are_json_clean(self, daemon):
        _, client = daemon
        report = client.run("pagerank", dataset=DATASET, k=4, seed=1)
        assert report["algo"] == "pagerank"
        assert report["n"] == 150 and report["k"] == 4
        assert isinstance(report["summary"], list)
        json.dumps(report)  # the whole report must round-trip

    def test_poisoned_request_leaves_the_daemon_serving(self, daemon):
        _, client = daemon
        with pytest.raises(ServeError, match="AlgorithmError"):
            client.run("no-such-algo", dataset=DATASET, k=4)
        with pytest.raises(ServeError):
            client.run("pagerank", dataset="bogus-spec", k=4)
        report = client.run("pagerank", dataset=DATASET, k=4, seed=1)
        assert report["cached"] is False
        status = client.status()
        assert status["session"]["errors"] == 2
        assert status["session"]["executed"] == 1

    def test_unknown_algorithm_is_a_400_that_builds_no_dataset(self, daemon):
        from repro import workloads

        _, client = daemon
        with pytest.raises(ServeError, match="400"):
            client.run("no-such-algo", dataset=DATASET, k=4)
        assert not workloads.default_cache().has(DATASET)

    def test_unknown_request_field_rejected(self, daemon):
        _, client = daemon
        url = f"http://{client.host}:{client.port}/run"
        payload = json.dumps(
            {"algo": "pagerank", "dataset": DATASET, "k": 4, "bogus": 1}
        ).encode()
        request = urllib.request.Request(
            url, data=payload, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400

    def test_uncoercible_fields_are_400s_naming_the_field(self, daemon):
        _, client = daemon
        with socket.create_connection((client.host, client.port)) as sock:
            for field, value in (("k", "eight"), ("timeout", "soon")):
                status, _, reply = _exchange(sock, _run_request(**{field: value}))
                assert status == 400, reply
                assert reply["error"] == "ServeError"
                assert repr(field) in reply["message"]
            status, _, reply = _exchange(sock, _run_request(k="8", seed=9))
            assert status == 200 and reply["report"]["k"] == 8

    def test_resident_is_not_a_parameter(self, daemon):
        """Each family has one driver: nothing accepts a switch between two."""
        graph = path_graph(4)
        entry_points = [
            (repro.distributed_pagerank, (graph,)),
            (repro.enumerate_triangles_distributed, (graph,)),
            (boruvka_forest, (graph, np.ones(3))),
            (repro.distributed_mst, (graph, np.ones(3))),
            (repro.connected_components_distributed, (graph,)),
        ]
        for fn, args in entry_points:
            assert "resident" not in inspect.signature(fn).parameters, fn.__name__
            with pytest.raises(TypeError, match="resident"):
                fn(*args, k=2, seed=1, resident=True)
        _, client = daemon
        payload = json.dumps({"algo": "pagerank", "dataset": DATASET, "k": 4,
                              "params": {"resident": False}}).encode()
        request = urllib.request.Request(
            f"http://{client.host}:{client.port}/run", data=payload, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        reply = json.loads(err.value.read())
        assert reply["error"] == "AlgorithmError"
        assert "'resident'" in reply["message"] and "max_iterations" in reply["message"]

    @pytest.mark.parametrize("fields, error, named", [
        ({"dataset": "rmat:n=0,avg_deg=2,seed=1"}, "WorkloadError", "'n'"),
        ({"dataset": "gnp:n=50,seed=-3"}, "WorkloadError", "'seed'"),
        ({"seed": -1}, "AlgorithmError", "seed"),
        ({"params": {"nope": 1}}, "AlgorithmError", "'nope'"),
        ({"k": 0}, "ModelError", "k >= 2"),
    ])
    def test_bad_inputs_are_400s_naming_the_value(self, daemon, fields, error, named):
        _, client = daemon
        with socket.create_connection((client.host, client.port)) as sock:
            status, _, reply = _exchange(sock, _run_request(**fields))
            assert status == 400, reply
            assert reply["error"] == error and named in reply["message"]
            status, _, reply = _exchange(sock, _run_request(seed=9))
            assert status == 200, reply

    def test_concurrent_clients(self, daemon):
        """Eight clients at once; every reply correct, one execution."""
        _, client = daemon
        client.run("pagerank", dataset=DATASET, k=4, seed=1)  # warm the key
        errors, reports = [], []
        barrier = threading.Barrier(8)

        def worker():
            try:
                barrier.wait()
                with ServeClient(client.host, client.port) as own:
                    reports.append(
                        own.run("pagerank", dataset=DATASET, k=4, seed=1)
                    )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(reports) == 8
        assert all(r["cached"] for r in reports)
        status = client.status()
        assert status["session"]["executed"] == 1
        assert status["session"]["cache_hits"] == 8

    def test_run_reply_carries_the_ledger(self, daemon):
        _, client = daemon
        report = client.run("pagerank", dataset=DATASET, k=4, seed=1)
        bound = report["bound"]
        assert bound["ok"] is True
        assert bound["algo"] == "pagerank"
        assert bound["measured_phases"] > 0
        assert bound["violation_count"] == 0

    def test_run_reply_carries_one_bound_verdict(self, daemon):
        """A miss and its result-cache hit answer with the same single verdict."""
        _, client = daemon
        miss = client.run("pagerank", dataset=DATASET, k=4, seed=1)
        hit = client.run("pagerank", dataset=DATASET, k=4, seed=1)
        assert (miss["cached"], hit["cached"]) == (False, True)
        for reply in (miss, hit):
            assert "ledger" not in reply
            bound = reply["bound"]
            assert bound["measured_max_link_bits"] > 0
            assert bound["violation_count"] == 0 and bound["violations"] == []
            assert bound["ok"] is True
        assert hit["bound"] == miss["bound"]


class TestLifecycle:
    def test_shutdown_endpoint_stops_the_daemon(self):
        server = ReproServer(port=0)
        handle = server.start_in_thread()
        client = ServeClient(handle.host, handle.port)
        client.wait_until_ready()
        assert client.shutdown()["ok"]
        handle._thread.join(timeout=10.0)
        assert not handle._thread.is_alive()
        with pytest.raises(ServeError, match="no daemon"):
            client.health()

    @pytest.mark.parametrize("how", ["endpoint", "handle"])
    def test_shutdown_does_not_wait_for_idle_connections(self, how):
        server = ReproServer(port=0)
        handle = server.start_in_thread()
        client = ServeClient(handle.host, handle.port)
        client.wait_until_ready()
        idle = [socket.create_connection((handle.host, handle.port)) for _ in range(3)]
        assert _exchange(idle[0], b"GET /health HTTP/1.1\r\n\r\n")[0] == 200
        idle[1].sendall(b"POST /run HTTP/1.1\r\nContent-Le")  # stalled mid-request
        started = time.monotonic()
        if how == "endpoint":
            assert ServeClient(handle.host, handle.port).shutdown()["stopping"]
            handle._thread.join(timeout=10.0)
        else:
            handle.stop()
        assert not handle._thread.is_alive()
        assert time.monotonic() - started < 5.0
        assert _closed_by_peer(idle[0]) and _closed_by_peer(idle[2])
        for sock in idle:
            sock.close()
        with pytest.raises(ServeError, match="no daemon"):
            client.health()

    def test_shutdown_lets_a_running_request_reply(self, monkeypatch):
        import repro.runtime.session as session_mod

        entered, release = threading.Event(), threading.Event()
        real = session_mod._registry_run

        def slow(name, data, k, **kwargs):
            if not kwargs.get("cache_only"):
                entered.set()
                release.wait(10.0)
            return real(name, data, k, **kwargs)

        monkeypatch.setattr(session_mod, "_registry_run", slow)
        handle = ReproServer(port=0).start_in_thread()
        client = ServeClient(handle.host, handle.port)
        replies = []
        runner = threading.Thread(target=lambda: replies.append(
            client.run("triangles", dataset=DATASET, k=4, seed=9)))
        runner.start()
        assert entered.wait(10.0)
        assert ServeClient(handle.host, handle.port).shutdown()["stopping"]
        release.set()
        runner.join(timeout=10.0)
        handle._thread.join(timeout=10.0)
        assert not handle._thread.is_alive()
        assert len(replies) == 1 and replies[0]["cached"] is False

    def test_client_error_when_no_daemon(self):
        client = ServeClient(port=1)  # nothing listens on port 1
        with pytest.raises(ServeError, match="no daemon"):
            client.health()

    def test_prewarm_materializes_before_traffic(self, reads):
        import gc

        from repro import workloads
        from repro.kmachine.distgraph import clear_distgraph_cache
        from repro.workloads.cache import cache_stats

        server = ReproServer(port=0, prewarm=(DATASET,))
        with server.start_in_thread() as handle, \
                ServeClient(handle.host, handle.port) as client:
            client.wait_until_ready()
            assert client.status()["session"]["resident_datasets"] >= 1
            clear_distgraph_cache()
            gc.collect()  # only the daemon's session holds the graph now
            builds = cache_stats()["builds"]
            assert workloads.materialize(DATASET) is not None
            assert not reads and cache_stats()["builds"] == builds


def _metrics(client) -> dict[str, float]:
    """``GET /metrics`` parsed into ``{series: value}``.

    Registered sources label their samples ``{source="N"}``; samples of
    one series (a store another test has not released yet beside this
    daemon's) are summed, since only this daemon's counters move.
    """
    url = f"http://{client.host}:{client.port}/metrics"
    with urllib.request.urlopen(url, timeout=30) as reply:
        lines = reply.read().decode().splitlines()
    out: dict[str, float] = {}
    for sample, value in (line.split() for line in lines):
        name = sample.partition("{")[0]
        out[name] = out.get(name, 0.0) + float(value)
    return out


class TestMetricsSurface:
    """``/metrics`` carries every series an external alerter reads."""

    def test_error_storm_and_cache_hit_show_as_series(self, daemon):
        _, client = daemon
        # serve_minute is the current minute's bucket: keep the storm
        # clear of a minute boundary so it lands in one bucket.
        if time.time() % 60 > 55:
            time.sleep(60 - time.time() % 60 + 0.1)
        for _ in range(4):
            with pytest.raises(ServeError):
                client.run("no-such-algo", dataset=DATASET, k=4, seed=1)
        before = _metrics(client)
        assert before["repro_session_errors"] == 4
        assert before["repro_serve_minute_errors"] == 4

        for _ in range(2):
            client.run("triangles", dataset=DATASET, k=4, seed=1)
        after = _metrics(client)
        hits = "repro_result_store_hits"
        assert after[hits] == before.get(hits, 0) + 1
        for series in ("repro_session_queue_limit", "repro_session_inflight",
                       "repro_serve_minute_latency_p99_s"):
            assert series in after
