"""The analytics daemon: an asyncio HTTP-JSON front end over one Session.

``python -m repro serve`` turns the runtime into a long-lived service:
the warm worker pools, the shared-memory graph stores, the distgraph
LRU, the materialized datasets, and the sqlite result cache all stay
resident across requests, and an asyncio socket front end multiplexes
any number of concurrent clients over them.  Request execution follows
the :class:`~repro.runtime.Session` contract — misses serialize over
the substrate, result-cache hits are answered concurrently — and a
failed run poisons only its own request.

Protocol (HTTP/1.1, JSON bodies, persistent connections): a client may
send any number of requests down one connection, one at a time.  The
daemon closes it after replying to a request that asked for that
(``Connection: close``, or HTTP/1.0), after answering one it could not
parse (``400``, or ``413`` for a body over :data:`MAX_BODY_BYTES` — the
stream cannot be resynchronised), and at shutdown: idle connections at
once, busy ones after their reply, so a stop never waits on a client
that merely stays connected.

``GET /health``
    ``{"ok": true, "uptime_s": ...}`` — liveness.
``GET /status``
    Session traffic counters, result-store stats, resident datasets.
    ``?history=1`` adds the per-minute telemetry ring (requests,
    outcome counts, latency quantiles for up to the last 3 hours).
``GET /metrics``
    Prometheus text exposition: server counters, the current minute's
    telemetry bucket, and every source registered with the process-wide
    :func:`repro.obs.registry.obs_registry` (session, result store,
    graph cache).
``POST /run``
    Body: ``{"algo": "pagerank", "dataset": "rmat:n=1e6,avg_deg=16,seed=7",
    "k": 8, "seed": 1, "engine": "vector", "params": {"c": 2}}``
    (``engine`` defaults to
    :data:`~repro.kmachine.engine.DEFAULT_ENGINE`, as everywhere;
    ``workers``/``bandwidth``/``timeout`` optional).  Replies with the
    run report: counts, metrics, ``cached`` flag, and the family's
    summary rows.  Graph families only — inputs are named by dataset
    spec, resolved through the content-addressed graph cache.
``GET /alerts``
    Alert-rule state: configured rules, which are active, last observed
    values.  Rules come from ``--alert-rules rules.json`` (or
    ``default`` / ``$REPRO_ALERT_RULES``) and are evaluated by a
    background loop every ``alert_interval`` seconds against a snapshot
    of the telemetry ring's recent window, the session counters, and the
    obs registry.  With no rules configured the endpoint reports
    ``enabled: false``, no loop runs, and the request path is untouched.
``POST /shutdown``
    Graceful stop (in-flight requests finish).

Error mapping: saturation → 429, substrate timeout → 503, any other
:class:`~repro.errors.ReproError` (bad spec, unknown algo, failed run)
→ 400, unexpected exceptions → 500 — in every case the daemon keeps
serving.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ReproError, ServeError, SessionSaturated, SessionTimeout
from repro.obs.alerts import AlertEngine, resolve_alert_rules, stderr_sink
from repro.obs.registry import MinuteRing, obs_registry, render_prometheus
from repro.runtime.session import Session

__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "ReproServer", "ServerHandle"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Largest request body read; a larger ``Content-Length`` is answered 413.
MAX_BODY_BYTES = 1024**2
#: Header lines read per request before it is answered 400.
MAX_HEADER_LINES = 100

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


#: The one method each endpoint answers (anything else is a 405).
_METHODS = {"/health": "GET", "/status": "GET", "/metrics": "GET",
            "/alerts": "GET", "/shutdown": "POST", "/run": "POST"}

#: How a failed ``/run`` is answered and counted: (exception types, HTTP
#: status, telemetry kind), first match wins.
_RUN_FAILURES = (
    (SessionSaturated, 429, "rejected"),
    (SessionTimeout, 503, "timeout"),
    ((ReproError, json.JSONDecodeError, TypeError), 400, "error"),
    (Exception, 500, "error"),
)


class _BadRequest(Exception):
    """A request that cannot be parsed: answered, then the connection closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _jsonable(value):
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(value)


class ReproServer:
    """The long-lived daemon multiplexing run requests over one session.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port` after startup).
    session:
        An existing :class:`Session` to serve over, or ``None`` to own a
        fresh one built from the remaining knobs (closed — including
        warm-pool teardown — when the daemon stops).
    result_cache / queue_limit / timeout / max_datasets:
        Forwarded to the owned :class:`Session`.
    prewarm:
        Dataset specs to materialize before accepting traffic — and
        whose on-disk shard snapshots are preloaded into the distgraph
        LRU (:meth:`Session.prewarm`) — so the first request pays
        neither the build/load nor the shard construction.
    alert_rules:
        Alert configuration, as accepted by
        :func:`~repro.obs.alerts.resolve_alert_rules`: a rule list, a
        JSON file path, ``"default"``, or ``None`` to consult
        ``$REPRO_ALERT_RULES``.  When the resolved set is empty no
        :class:`AlertEngine` is built and no evaluation loop runs.
    alert_interval:
        Seconds between alert evaluations (when rules are configured).
    alert_sinks:
        Callables receiving fire/resolve event dicts; defaults to
        :func:`~repro.obs.alerts.stderr_sink`.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        session: Session | None = None,
        result_cache=True,
        queue_limit: int = 16,
        timeout: float | None = None,
        max_datasets: int = 4,
        prewarm=(),
        alert_rules=None,
        alert_interval: float = 5.0,
        alert_sinks=None,
    ) -> None:
        self.host = host
        self.port = port
        self._own_session = session is None
        self.session = session if session is not None else Session(
            result_cache=result_cache, queue_limit=queue_limit,
            timeout=timeout, max_datasets=max_datasets,
        )
        self.prewarm = tuple(prewarm)
        # Executor threads mostly wait (on the substrate lock or sqlite),
        # so sizing past the admission limit just burns memory.
        self._executor = ThreadPoolExecutor(
            max_workers=self.session.queue_limit + 2,
            thread_name_prefix="repro-serve",
        )
        self.served = 0
        self.started = time.time()
        # Per-minute request telemetry (outcome counts + latency
        # quantiles); served by /status?history=1 and /metrics.
        self.ring = MinuteRing()
        rules = resolve_alert_rules(alert_rules)
        self.alert_interval = float(alert_interval)
        if self.alert_interval <= 0:
            raise ServeError("alert_interval must be positive")
        #: None when no rules are configured — the hot path never checks
        #: alerting state beyond this one attribute.
        self.alerts: AlertEngine | None = None
        if rules:
            sinks = (stderr_sink,) if alert_sinks is None else tuple(alert_sinks)
            self.alerts = AlertEngine(rules, self._alert_snapshot, sinks=sinks)
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._shutdown_requested = False
        #: Connections between requests (or mid-read): closed at shutdown.
        self._idle: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()  # one per open connection

    # -- alert evaluation -----------------------------------------------
    def _alert_snapshot(self) -> dict:
        """The nested metric dict alert rules select from.

        ``serve.*`` holds the derived health metrics (recent-window error
        rate and latency quantiles, queue occupancy, result-cache hit
        rate); every :func:`obs_registry` source rides along by name so
        rules can also target raw component counters.
        """
        snapshot = obs_registry().collect()
        window = self.ring.window(minutes=2)
        session = self.session.stats()
        store = session.get("result_store") or {}
        inflight = session.get("inflight", 0)
        queue_limit = session.get("queue_limit") or 0
        lookups = store.get("hits", 0) + store.get("misses", 0)
        snapshot["serve"] = {
            "served": self.served,
            "uptime_s": time.time() - self.started,
            "window": window,
            "error_rate": window["error_rate"],
            "latency_p50_s": window.get("latency_p50_s"),
            "latency_p99_s": window.get("latency_p99_s"),
            "queue_depth": inflight,
            "queue_limit": queue_limit,
            "queue_utilization": inflight / queue_limit if queue_limit else None,
            # Hit rate needs a minimum of traffic to mean anything — a
            # daemon two requests into its life is not "collapsed".
            "result_hit_rate": (
                store.get("hits", 0) / lookups if lookups >= 20 else None
            ),
        }
        return snapshot

    async def _alert_loop(self) -> None:
        """Evaluate the rule set every ``alert_interval`` s until stop."""
        while True:
            try:
                await asyncio.wait_for(self._stop.wait(), self.alert_interval)
                return
            except asyncio.TimeoutError:
                pass
            try:
                self.alerts.evaluate()
            except Exception:  # noqa: BLE001 - alerting must not kill serving
                pass

    # -- asyncio core ---------------------------------------------------
    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            for spec in self.prewarm:
                await self._loop.run_in_executor(
                    self._executor, self.session.prewarm, spec
                )
            server = await asyncio.start_server(
                self._handle_conn, self.host, self.port
            )
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        alert_task = (
            self._loop.create_task(self._alert_loop())
            if self.alerts is not None else None
        )
        try:
            async with server:
                await self._stop.wait()
                server.close()  # stop accepting
                # An idle keep-alive peer must not hold the stop (Python
                # >= 3.12's Server.wait_closed() waits for every connection);
                # a busy one gets its reply first, then its handler closes it.
                for writer in self._idle:
                    writer.close()
                if self._handlers:
                    await asyncio.wait(self._handlers)
        finally:
            if alert_task is not None:
                alert_task.cancel()
            self._executor.shutdown(wait=True)
            if self._own_session:
                self.session.close(shutdown_pools=True)

    @staticmethod
    async def _read_request(reader) -> "tuple[str, str, bytes, bool] | None":
        """``(method, path, body, keep_alive)``, or ``None`` at a clean EOF."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(400, "malformed HTTP request line")
        headers = {}
        for _ in range(MAX_HEADER_LINES + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _BadRequest(400, "connection closed inside the HTTP headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(400, f"over {MAX_HEADER_LINES} HTTP header lines")
        length = int(headers.get("content-length") or 0)
        if not 0 <= length <= MAX_BODY_BYTES:
            raise _BadRequest(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        keep_alive = (parts[2] != "HTTP/1.0"
                      and headers.get("connection", "").lower() != "close")
        return parts[0].upper(), parts[1], body, keep_alive

    async def _handle_conn(self, reader, writer) -> None:
        """Serve one connection: request, reply, until either side is done."""
        keep_alive = not self._stop.is_set()
        self._handlers.add(asyncio.current_task())
        try:
            while keep_alive:
                self._idle.add(writer)
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        break
                    method, path, body, keep_alive = request
                    self._idle.discard(writer)
                    status, payload = await self._dispatch(method, path, body)
                except (_BadRequest, asyncio.IncompleteReadError, ValueError) as exc:
                    # Includes a line over the reader's limit (ValueError).
                    keep_alive = False
                    status, payload = getattr(exc, "status", 400), {
                        "ok": False, "error": "BadRequest", "message": str(exc)}
                except OSError:
                    raise  # the peer is gone (reset mid-read): nobody to answer
                except Exception as exc:  # isolation: one bad request, not the daemon
                    status, payload = 500, {"ok": False, "error": type(exc).__name__,
                                            "message": str(exc)}
                keep_alive = (keep_alive and not self._stop.is_set()
                              and not self._shutdown_requested)
                if isinstance(payload, str):  # /metrics: Prometheus text
                    data = payload.encode()
                    content_type = "text/plain; version=0.0.4"
                else:
                    data = json.dumps(payload).encode()
                    content_type = "application/json"
                writer.write((
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
                ).encode() + data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to salvage
        finally:
            self._idle.discard(writer)
            self._handlers.discard(asyncio.current_task())
            writer.close()
        if self._shutdown_requested:
            self._stop.set()

    async def _dispatch(self, method: str, path: str, body: bytes):
        path, _, raw_query = path.partition("?")
        query = {}
        for pair in raw_query.split("&"):
            if pair:
                name, _, value = pair.partition("=")
                query[name] = value
        if _METHODS.get(path, method) != method:
            return 405, {"ok": False, "error": "MethodNotAllowed",
                         "message": f"{method} {path}"}
        if path == "/health":
            return 200, {"ok": True, "uptime_s": time.time() - self.started}
        if path == "/status":
            out = {"ok": True, "served": self.served,
                   "uptime_s": time.time() - self.started,
                   "session": self.session.stats()}
            if query.get("history") not in (None, "", "0", "false"):
                out["history"] = self.ring.rows()
            return 200, out
        if path == "/metrics":
            stats = {
                "server": {"served": self.served,
                           "uptime_s": time.time() - self.started},
                "serve_minute": self.ring.current(),
            }
            stats.update(obs_registry().collect())
            text = render_prometheus(stats)
            if self.alerts is not None:
                text += self.alerts.prometheus_lines()
            return 200, text
        if path == "/alerts":
            if self.alerts is None:
                return 200, {"ok": True, "enabled": False, "evaluations": 0,
                             "rules": [], "active": [], "resolved": []}
            return 200, {"ok": True, "enabled": True, **self.alerts.status()}
        if path == "/shutdown":
            self._shutdown_requested = True  # applied after the response
            return 200, {"ok": True, "stopping": True}
        if path == "/run":
            arrived = time.perf_counter()
            algo = None  # best-effort attribution, set once parsed
            try:
                payload = json.loads(body.decode() or "{}")
                if not isinstance(payload, dict):
                    raise ServeError("request body must be a JSON object")
                if isinstance(payload.get("algo"), str):
                    algo = payload["algo"]
                report = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._run_request, payload
                )
                self.served += 1
                self.ring.observe(
                    time.perf_counter() - arrived,
                    kind="hit" if report.get("cached") else "executed",
                    algo=algo,
                )
                return 200, {"ok": True, "report": report}
            except Exception as exc:  # isolation: this request only
                status, kind = next((status, kind) for types, status, kind in _RUN_FAILURES
                                    if isinstance(exc, types))
                self.ring.observe(time.perf_counter() - arrived, kind=kind, algo=algo)
                return status, {"ok": False, "error": type(exc).__name__,
                                "message": str(exc)}
        return 404, {"ok": False, "error": "NotFound", "message": path}

    # -- request execution (runs on executor threads) -------------------
    def _run_request(self, payload: dict) -> dict:
        known = {"algo", "dataset", "k", "seed", "engine", "workers",
                 "bandwidth", "timeout", "params"}
        unknown = set(payload) - known
        if unknown:
            raise ServeError(
                f"unknown request fields: {', '.join(sorted(unknown))} "
                f"(expected a subset of {', '.join(sorted(known))})"
            )
        algo = payload.get("algo")
        if not algo or not isinstance(algo, str):
            raise ServeError("request needs an 'algo' field")
        dataset = payload.get("dataset")
        if not dataset:
            raise ServeError(
                "request needs a 'dataset' spec — serve inputs are named "
                "workloads (e.g. 'rmat:n=1e6,avg_deg=16,seed=7')"
            )
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ServeError("'params' must be a JSON object")
        kwargs = {}
        if payload.get("timeout") is not None:
            kwargs["timeout"] = float(payload["timeout"])
        start = time.perf_counter()
        for name in ("k", "seed", "workers", "bandwidth"):
            kwargs[name] = int(payload[name]) if payload.get(name) is not None else None
        report = self.session.run(
            algo,
            dataset=dataset,
            engine=payload.get("engine") or None,  # runtime.run fills the default
            **kwargs,
            **params,
        )
        elapsed = time.perf_counter() - start
        out = {
            "algo": report.name,
            "n": report.n,
            "k": report.k,
            "engine": report.engine,
            "workers": report.workers,
            "cached": report.cached,
            "rounds": report.metrics.rounds,
            "phases": report.metrics.phases,
            "messages": report.metrics.messages,
            "bits": report.metrics.bits,
            "bandwidth": report.bandwidth,
            "elapsed_s": elapsed,
            "wall_seconds": report.wall_seconds,
            "first_superstep_seconds": report.first_superstep_seconds,
            "result_type": type(report.result).__name__,
        }
        if report.bound_report is not None:
            out["bound"] = report.bound_report.as_dict()
        if report.ledger_report is not None:
            out["ledger"] = report.ledger_report.as_dict()
        if report.spec.summarize is not None:
            out["summary"] = [
                [label, _jsonable(value)]
                for label, value in report.spec.summarize(report.result)
            ]
        return out

    # -- entry points ---------------------------------------------------
    def serve_forever(self) -> None:
        """Run the daemon in this thread until shutdown (CLI entry)."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass

    def start_in_thread(self, ready_timeout: float = 30.0) -> "ServerHandle":
        """Run the daemon in a background thread; returns once bound.

        The returned :class:`ServerHandle` exposes the bound port and a
        thread-safe :meth:`~ServerHandle.stop`.  Used by tests, the
        bench harness, and embedding processes.
        """
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-daemon", daemon=True
        )
        thread.start()
        if not self._ready.wait(ready_timeout):
            raise ServeError("daemon did not start within "
                             f"{ready_timeout:.1f}s")
        if self._startup_error is not None:
            thread.join(timeout=5.0)
            raise ServeError(
                f"daemon failed to start: {self._startup_error}"
            ) from self._startup_error
        return ServerHandle(self, thread)


class ServerHandle:
    """A running daemon started by :meth:`ReproServer.start_in_thread`."""

    def __init__(self, server: ReproServer, thread: threading.Thread) -> None:
        self.server = server
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, join_timeout: float = 10.0) -> None:
        """Request shutdown from any thread and wait for the daemon."""
        loop, stop = self.server._loop, self.server._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already shut down
        self._thread.join(timeout=join_timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
