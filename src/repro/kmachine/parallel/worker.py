"""The worker-process main loop of the :class:`ProcessEngine`.

One worker owns a fixed subset of the ``k`` simulated machines for as
long as the holding engine keeps its pool: it holds those machines'
private :class:`numpy.random.Generator` streams (shipped once per
holder, then advanced *only* here so per-machine draw order matches the
inline engines draw for draw), keeps zero-copy :class:`SharedGraphView`
attachments per published store, holds any *resident* per-machine driver
state the holder installed, and executes superstep tasks sent over its
pipe.  Because pools are warm (see
:mod:`repro.kmachine.parallel.pool`), the same worker process may serve
many engines in sequence; each new holder's ``rngs`` shipment replaces
the previous one's streams **and clears every resident state** — the
invalidation point that makes warm-pool reuse safe across holders.

Protocol (parent -> worker over one duplex pipe, processed in order):

``("rngs", {machine: Generator})``
    Install / replace the worker's machine RNG streams.  Marks a new
    holder: all resident states of the previous holder are dropped.
``("map", task, store_key_or_None, meta_or_None, machines, wire, resident_token_or_None)``
    ``wire`` is a :func:`~repro.kmachine.parallel.shipping.ship` tuple
    decoding to ``(payloads, common)``; large payloads arrive through a
    per-superstep shared-memory segment, small ones inline on the pipe.
    Run the group kernel once, ``task(view, machines, rngs, payloads,
    states, **common)``, over the owned ``machines`` (their streams in
    ``rngs``, their resident states in ``states`` when
    ``resident_token`` names an installed bundle, else ``None``) and
    reply ``("ok", wire)`` with the wire decoding to ``(result,
    kernel_seconds)`` — the one result :func:`shipping.ship` puts on the
    pipe or in shared memory, and the worker-side wall-clock the tracer
    attributes as ``kernel_s`` — or ``("err", traceback)``.  ``meta`` is
    included the first time the parent references a store; a ``None``
    store key runs the task with ``view=None``.
``("install-state", token, store_key_or_None, wire)``
    ``wire`` decodes to ``{machine: state}``; install it as the resident
    state bundle named ``token``.  A non-``None`` ``store_key`` binds
    the bundle's lifetime to that graph store: ``drop-store`` for the
    key also drops the bundle.  Replies ``("ok", None)`` / ``("err",
    traceback)``.
``("pull-state", token, machines)``
    Reply ``("ok", wire)`` decoding to ``{machine: state}`` for the
    requested machines (state inspection / final result assembly).
``("drop-state", token)``
    Release one resident bundle (no reply; unknown tokens are ignored).
``("drop-store", store_key)``
    Detach the cached view of an evicted store and drop the resident
    bundles bound to it (no reply; ordering with later ``map`` commands
    is guaranteed by the pipe).
``("close",)``
    Detach all views, drop all resident state, and exit cleanly.

Tasks must be module-level callables (they are pickled by reference).
Any exception inside a task is caught and shipped back as a formatted
traceback; only a hard crash (signal, ``os._exit``) severs the pipe,
which the parent detects and turns into pool destruction plus a
:class:`~repro.errors.ModelError` — resident states die with the
processes, so a crashed holder can never leak state into the next.
"""

from __future__ import annotations

import time
import traceback

from repro.kmachine.parallel import shipping
from repro.kmachine.parallel.store import SharedGraphView

__all__ = ["worker_main"]


def worker_main(conn) -> None:
    """Run the worker loop until ``close`` or pipe EOF (parent died)."""
    rngs: dict = {}
    views: dict[str, SharedGraphView] = {}
    residents: dict[str, dict] = {}  # token -> {machine: state}
    resident_store: dict[str, str] = {}  # token -> binding store key
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            cmd = msg[0]
            if cmd == "close":
                break
            if cmd == "rngs":
                rngs.update(msg[1])
                # A fresh stream shipment marks a new pool holder; the
                # previous holder's resident state must never leak into
                # (or be mistaken for) the new holder's.
                residents.clear()
                resident_store.clear()
                continue
            if cmd == "drop-store":
                view = views.pop(msg[1], None)
                if view is not None:
                    view.detach()
                for token in [t for t, key in resident_store.items() if key == msg[1]]:
                    residents.pop(token, None)
                    resident_store.pop(token, None)
                continue
            if cmd == "install-state":
                _, token, store_key, wire = msg
                try:
                    residents[token] = shipping.receive(wire)
                    if store_key is not None:
                        resident_store[token] = store_key
                    conn.send(("ok", None))
                except BaseException:
                    conn.send(("err", traceback.format_exc()))
                continue
            if cmd == "pull-state":
                _, token, machines = msg
                try:
                    states = residents[token]
                    conn.send(("ok", shipping.ship({i: states[i] for i in machines})))
                except BaseException:
                    conn.send(("err", traceback.format_exc()))
                continue
            if cmd == "drop-state":
                residents.pop(msg[1], None)
                resident_store.pop(msg[1], None)
                continue
            if cmd == "map":
                _, task, key, meta, machines, wire, token = msg
                try:
                    payloads, common = shipping.receive(wire)
                    if key is None:
                        view = None
                    else:
                        if key not in views:
                            views[key] = SharedGraphView.attach(meta)
                        view = views[key]
                    states = None
                    if token is not None:
                        if token not in residents:
                            raise RuntimeError(
                                f"resident state {token!r} is not installed in this "
                                f"worker (invalidated by a holder change, store "
                                f"eviction, or drop)"
                            )
                        states = [residents[token][m] for m in machines]
                    t0 = time.perf_counter()
                    result = task(view, machines, [rngs[m] for m in machines],
                                  payloads, states, **common)
                    kernel_s = time.perf_counter() - t0
                    conn.send(("ok", shipping.ship((result, kernel_s))))
                except BaseException:
                    conn.send(("err", traceback.format_exc()))
                continue
            conn.send(("err", f"unknown command {cmd!r}"))
    finally:
        for view in views.values():
            try:
                view.detach()
            except Exception:  # pragma: no cover - shutdown best-effort
                pass
        try:
            conn.close()
        except Exception:  # pragma: no cover
            pass
