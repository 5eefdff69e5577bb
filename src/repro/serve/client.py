"""The blocking client for the analytics daemon (``repro client``).

Stdlib sockets only, over persistent connections: one HTTP/1.1
connection per calling thread (so a ``ServeClient`` may be shared by
threads), speaking exactly what the daemon speaks — one request at a
time, bodies framed by ``Content-Length`` — without ``http.client``,
whose general header handling cost more than the daemon spends on a
result-cache hit.  The daemon may close an idle connection at any time
(a restart, a shutdown): when a *reused* connection turns out to have
been dropped before any byte of the reply, the request is sent once more
on a fresh one (runs are deterministic, a replay is harmless); a fresh
connection that fails is an error at once.  Every method returns the
decoded JSON payload; protocol-level failures and ``ok: false`` replies
raise :class:`~repro.errors.ServeError` with the daemon's error class and
message preserved.  Keys and string values of a reply are interned: a
caller that keeps thousands of replies keeps one copy of their ~50
distinct strings, not one per reply.

Usage::

    from repro.serve import ServeClient

    with ServeClient(port=8642) as client:
        client.wait_until_ready()
        report = client.run("pagerank", dataset="rmat:n=1e6,avg_deg=16,seed=7",
                            k=8, seed=1, params={"c": 2})
        assert report["cached"] in (False, True)
        print(client.status()["session"]["result_store"])
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

from repro.errors import ServeError
from repro.serve.daemon import DEFAULT_HOST, DEFAULT_PORT

__all__ = ["ServeClient"]


class _Dropped(ConnectionError):
    """The peer closed or reset the connection before any byte of a reply."""


def _interned(pairs: list) -> dict:
    """``json`` object hook: one shared copy of every key and string value."""
    return {sys.intern(key): sys.intern(value) if type(value) is str else value
            for key, value in pairs}


class ServeClient:
    """A blocking HTTP-JSON client bound to one daemon address."""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 timeout: float = 600.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        #: thread ident -> ``(socket, buffered reader)``; idents are reused, so
        #: short-lived threads do not grow it without bound.
        self._conns: dict[int, tuple] = {}

    def close(self) -> None:
        """Close every thread's connection (the next request reconnects)."""
        for ident in list(self._conns):
            self._drop(ident)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _drop(self, ident: int) -> None:
        sock, reader = self._conns.pop(ident, (None, None))
        if sock is not None:
            reader.close()
            sock.close()

    def _exchange(self, ident: int, request: bytes) -> tuple[int, bytes]:
        """Send ``request`` down the thread's connection; ``(status, body)``."""
        if ident not in self._conns:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conns[ident] = sock, sock.makefile("rb")
        sock, reader = self._conns[ident]
        try:
            sock.sendall(request)
            status_line = reader.readline()
        except ConnectionError as exc:
            raise _Dropped(str(exc)) from exc
        if not status_line:
            raise _Dropped("connection closed without a reply")
        status, length, keep_alive = int(status_line.split()[1]), 0, True
        for line in iter(reader.readline, b"\r\n"):
            name, colon, value = line.partition(b":")
            if not colon:
                raise ValueError(f"malformed reply header {line!r}")
            if name.lower() == b"content-length":
                length = int(value)
            elif name.lower() == b"connection":
                keep_alive = value.strip().lower() != b"close"
        body = reader.read(length)
        if len(body) < length:
            raise ConnectionResetError("connection closed inside a reply")
        if not keep_alive:
            self._drop(ident)
        return status, body

    def _request(self, method: str, path: str, payload: dict | None = None) -> dict:
        body = json.dumps(payload).encode() if payload is not None else b""
        request = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
                   f"Content-Type: application/json\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        ident = threading.get_ident()
        while True:
            reused = ident in self._conns
            try:
                status, raw = self._exchange(ident, request)
                break
            except (OSError, ValueError, IndexError) as exc:
                self._drop(ident)
                if reused and isinstance(exc, _Dropped):
                    continue  # dropped while idle, nothing received: once more
                raise ServeError(
                    f"no daemon at {self.host}:{self.port} ({exc})"
                ) from exc
        try:
            data = json.loads(raw.decode() or "{}", object_pairs_hook=_interned)
        except json.JSONDecodeError as exc:
            raise ServeError(
                f"daemon at {self.host}:{self.port} returned non-JSON "
                f"(HTTP {status})"
            ) from exc
        if not data.get("ok"):
            raise ServeError(
                f"{data.get('error', 'Error')}: {data.get('message', '')} "
                f"(HTTP {status})"
            )
        return data

    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness probe (raises :class:`ServeError` when unreachable)."""
        return self._request("GET", "/health")

    def wait_until_ready(self, deadline: float = 10.0,
                         interval: float = 0.05) -> dict:
        """Poll ``/health`` until the daemon answers (or the deadline)."""
        end = time.monotonic() + deadline
        while True:
            try:
                return self.health()
            except ServeError:
                if time.monotonic() >= end:
                    raise
                time.sleep(interval)

    def status(self) -> dict:
        """Daemon + session + result-store counters."""
        return self._request("GET", "/status")

    def alerts(self) -> dict:
        """Alert-rule state (``enabled``, ``rules``, ``active``)."""
        return self._request("GET", "/alerts")

    def shutdown(self) -> dict:
        """Ask the daemon to stop gracefully."""
        return self._request("POST", "/shutdown")

    def run(
        self,
        algo: str,
        *,
        dataset: str,
        k: int | None = None,
        seed: int | None = None,
        engine: str | None = None,
        workers: int | None = None,
        bandwidth: int | None = None,
        timeout: float | None = None,
        params: dict | None = None,
    ) -> dict:
        """Submit one run request; returns the daemon's report dict.

        The report carries counts and metrics (``rounds``, ``messages``,
        ``bits``), the ``cached`` flag (True when the sqlite result
        cache answered with zero superstep execution), the daemon-side
        ``elapsed_s``, and the family's ``summary`` rows.
        """
        payload = {"algo": algo, "dataset": dataset}
        for key, value in (("k", k), ("seed", seed), ("engine", engine),
                           ("workers", workers), ("bandwidth", bandwidth),
                           ("timeout", timeout), ("params", params)):
            if value is not None:
                payload[key] = value
        return self._request("POST", "/run", payload)["report"]
