"""Execution tracing: JSONL phase events with a versioned schema.

A :class:`Tracer` collects timestamped events emitted by the engines
(one per communication phase or superstep kernel dispatch) and the
runtime (one ``run_start`` / ``run_end`` pair per :func:`repro.runtime.run`).
Events are appended to a JSONL file when the tracer is bound to a path,
and always kept in-memory on ``tracer.events`` unless writing to a file
(pass ``keep_events=True`` to retain both).

The disabled path is a shared :data:`NULL_TRACER` singleton whose
``enabled`` attribute is ``False``; engines guard every timing site with
``if self.tracer.enabled`` so an untraced run pays one attribute load
and one branch per phase — no clocks, no dict allocations.

Schema (``schema`` field of the leading ``trace_start`` event, currently
version ``1``):

``trace_start``
    ``{"event", "schema", "unix_time"}`` — always the first line.
``run_start``
    ``{"event", "seq", "at", "algo", "n", "m", "k", "bandwidth",
    "engine", "workers"}``.
``phase``
    ``{"event", "seq", "at", "op", "label", "wall_s", "driver_s",
    "segments", "rounds", "messages", "bits", "max_link_bits",
    "top_links"}`` — ``op`` is the engine entry point
    (``exchange_batches``, ``account_phase``, ``map_machines``, or
    ``resident`` for installing and pulling per-machine state),
    ``segments`` a dict of wall-clock sub-spans in seconds (e.g.
    ``pack_s`` / ``account_s`` / ``deliver_s`` on the vector backend,
    ``ship_s`` / ``kernel_s`` / ``pool_wait_s`` / ``unpack_s`` on the
    process backend), ``top_links`` the heaviest ``[src, dst, bits]``
    links of the phase when the backend can compute them cheaply.
    ``wall_s`` is the engine-internal span; ``driver_s`` is the
    parent-side gap since the previous trace point, attributed to this
    phase as the local compute that produced it (BSP superstep = local
    compute + communication).  Drivers that only *account* traffic
    (``account_phase``) spend nearly all their wall-clock in that gap,
    so without the attribution their traces would be empty of time.
``run_end``
    ``{"event", "seq", "at", "algo", "cached", "wall_s", "setup_s",
    "rounds", "phases", "messages", "bits"}`` — ``setup_s`` is the
    pre-superstep span (materialize + partition + shard), so
    ``wall_s - setup_s`` is the window the ``phase`` events cover.

``at`` is seconds since the tracer was created (one monotonic clock per
trace); ``seq`` is a per-tracer monotonically increasing integer so
interleaved writers (a sweep sharing one tracer) stay ordered.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import IO, Any

from repro.errors import ReproError

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "TRACE_ENV",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "resolve_tracer",
    "read_trace",
]

#: Version stamped into every trace's ``trace_start`` header.  Bump on
#: any backwards-incompatible change to event fields.
TRACE_SCHEMA_VERSION = 1

#: Environment variable holding a default trace output path; honored by
#: :func:`resolve_tracer` when no explicit ``trace=`` is given.
TRACE_ENV = "REPRO_TRACE"


class TraceError(ReproError):
    """A trace file could not be read or failed schema validation."""


class NullTracer:
    """The disabled tracer: every hook is a no-op.

    Shared as the :data:`NULL_TRACER` singleton so that engine
    construction allocates nothing for the untraced case.
    """

    __slots__ = ()

    enabled = False
    top_links = 0

    def emit(self, event: dict) -> None:
        pass

    def phase(self, op: str, label: str, wall_s: float, **extra: Any) -> None:
        pass

    def mark(self, t: float | None = None) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Collects trace events, optionally streaming them to a JSONL file.

    Parameters
    ----------
    path:
        Destination JSONL file.  ``None`` keeps events in-memory only.
    top_links:
        How many heaviest links a backend should attach per phase event
        (``0`` disables link attribution).
    keep_events:
        Retain events on ``self.events`` even when writing to a file.
        Defaults to ``True`` without a path, ``False`` with one.
    """

    enabled = True

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        top_links: int = 3,
        keep_events: bool | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.top_links = int(top_links)
        if keep_events is None:
            keep_events = self.path is None
        self.events: list[dict] | None = [] if keep_events else None
        self._fh: IO[str] | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0
        self._t0 = time.perf_counter()
        #: Last attribution point: ``phase`` charges the parent-side gap
        #: since this mark as ``driver_s``.  ``None`` until an engine
        #: marks its first activity (the setup/superstep boundary), so
        #: setup is never mis-attributed to the first phase.
        self._mark: float | None = None
        self._write(
            {
                "event": "trace_start",
                "schema": TRACE_SCHEMA_VERSION,
                "unix_time": time.time(),
            }
        )

    # -- low-level emission --------------------------------------------
    def _write_locked(self, event: dict) -> None:
        if self.events is not None:
            self.events.append(event)
        if self._fh is not None:
            line = json.dumps(event, default=str, separators=(",", ":"))
            self._fh.write(line + "\n")

    def _write(self, event: dict) -> None:
        with self._lock:
            self._write_locked(event)

    def _emit_locked(self, event: dict) -> None:
        self._seq += 1
        event["seq"] = self._seq
        event["at"] = round(time.perf_counter() - self._t0, 9)
        self._write_locked(event)

    def emit(self, event: dict) -> None:
        """Stamp ``seq``/``at`` onto ``event`` and record it.

        ``seq`` assignment, the ``at`` stamp, and the write happen under
        one lock acquisition so a tracer shared across threads (a sweep,
        a daemon session) keeps its JSONL in ``seq`` order with ``at``
        monotone in that order.
        """
        with self._lock:
            self._emit_locked(event)

    # -- structured helpers (schema lives here, not in callers) --------
    def phase(
        self,
        op: str,
        label: str,
        wall_s: float,
        *,
        segments: dict[str, float] | None = None,
        stats=None,
        top_links: list[list[int]] | None = None,
    ) -> None:
        """Record one engine phase; ``stats`` is the phase's PhaseStats."""
        now = time.perf_counter()
        event: dict[str, Any] = {
            "event": "phase",
            "op": op,
            "label": label,
            "wall_s": round(wall_s, 9),
            "driver_s": 0.0,
        }
        if segments:
            event["segments"] = {k: round(v, 9) for k, v in segments.items()}
        if stats is not None:
            event["rounds"] = stats.rounds
            event["messages"] = stats.messages
            event["bits"] = stats.bits
            event["max_link_bits"] = stats.max_link_bits
        if top_links:
            event["top_links"] = top_links
        # The _mark read-update and the emit share one lock acquisition:
        # concurrent phases each get a non-negative gap against the mark
        # they advance, instead of racing to garbage driver_s values.
        with self._lock:
            if self._mark is not None:
                event["driver_s"] = round(
                    max(0.0, (now - wall_s) - self._mark), 9
                )
            self._mark = now
            self._emit_locked(event)

    def run_start(
        self,
        *,
        algo: str,
        n: int,
        k: int,
        bandwidth: int,
        engine: str,
        m: int | None = None,
        workers: int | None = None,
    ) -> None:
        self.emit(
            {
                "event": "run_start",
                "algo": algo,
                "n": n,
                "m": m,
                "k": k,
                "bandwidth": bandwidth,
                "engine": engine,
                "workers": workers,
            }
        )

    def run_end(
        self,
        *,
        algo: str,
        cached: bool,
        wall_s: float,
        setup_s: float | None,
        metrics=None,
    ) -> None:
        event: dict[str, Any] = {
            "event": "run_end",
            "algo": algo,
            "cached": bool(cached),
            "wall_s": round(wall_s, 9),
            "setup_s": round(setup_s, 9) if setup_s is not None else None,
        }
        if metrics is not None:
            event["rounds"] = metrics.rounds
            event["phases"] = metrics.phases
            event["messages"] = metrics.messages
            event["bits"] = metrics.bits
        with self._lock:
            self._emit_locked(event)
            self._mark = None  # never charge inter-run gaps to the next run

    def mark(self, t: float | None = None) -> None:
        """Set the ``driver_s`` attribution point (engines call this at
        their first activity, the runtime's setup/superstep boundary)."""
        now = time.perf_counter() if t is None else t
        with self._lock:
            self._mark = now

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Flush and close the output file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def resolve_tracer(trace) -> tuple["Tracer | NullTracer", bool]:
    """Resolve a ``trace=`` argument into ``(tracer, owned)``.

    ``trace`` may be ``None`` (consult ``$REPRO_TRACE``; disabled when
    unset), a :class:`Tracer`/:class:`NullTracer` instance (used as-is,
    caller keeps ownership), ``True`` (fresh in-memory tracer), or a
    path (fresh file tracer).  ``owned`` tells the caller whether it is
    responsible for closing the tracer when the run finishes.
    """
    if isinstance(trace, (Tracer, NullTracer)):
        return trace, False
    if trace is None:
        env = os.environ.get(TRACE_ENV, "").strip()
        if not env:
            return NULL_TRACER, False
        trace = env
    if trace is True:
        return Tracer(), True
    if trace is False:
        return NULL_TRACER, False
    return Tracer(trace), True


def read_trace(path: str | os.PathLike) -> list[dict]:
    """Load and validate a JSONL trace written by :class:`Tracer`.

    Raises :class:`TraceError` on malformed lines, a missing
    ``trace_start`` header, or a schema version newer than this reader.
    """
    events: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(f"{path}:{lineno}: not valid JSON ({exc})") from None
                if not isinstance(event, dict):
                    raise TraceError(f"{path}:{lineno}: expected an object per line")
                events.append(event)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None
    if not events or events[0].get("event") != "trace_start":
        raise TraceError(f"{path}: missing trace_start header")
    schema = events[0].get("schema")
    if not isinstance(schema, int) or schema > TRACE_SCHEMA_VERSION:
        raise TraceError(
            f"{path}: schema {schema!r} is newer than supported "
            f"version {TRACE_SCHEMA_VERSION}"
        )
    return events
