"""The per-object oracle engine the cross-engine suites compare against.

:class:`MessageEngine` executes a columnar phase the slow, literal way:
every batch row is one message, tallied onto its link and delivered to
its destination's inbox one at a time in Python, and the batches are
reassembled from what was delivered.  It shares no batch code with
:class:`~repro.kmachine.engine.VectorEngine` (only the
:meth:`LinkNetwork.account_phase` primitive every phase ends in), which
is what makes it a reference: ``tests/conftest.py`` registers it in
:data:`repro.kmachine.engine.ENGINES` under ``"message"`` (the way
:mod:`repro.kmachine.parallel` registers ``"process"``), so every suite
that names ``engine="message"`` runs the product drivers on it.  It is
not importable from ``src/`` and not selectable outside the tests.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.kmachine.engine import DeliveredBatch, Engine, MessageBatch


class MessageEngine(Engine):
    """The per-object engine: every batch row is tallied and delivered on its own."""

    name = "message"

    def exchange_batches(
        self, batches: Sequence[MessageBatch], label: str = ""
    ) -> list[DeliveredBatch]:
        self._mark_activity()
        self._validate_batches(batches)
        trace = self.tracer.enabled
        t0 = time.perf_counter() if trace else 0.0
        k = self.k
        bits = np.zeros((k, k), dtype=np.int64)
        msgs = np.zeros((k, k), dtype=np.int64)
        local = 0
        # inboxes[j] holds (src, batch, row) of every message machine j receives.
        inboxes: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
        for b, batch in enumerate(batches):
            for r in range(len(batch)):
                s, d = int(batch.src[r]), int(batch.dst[r])
                if s == d:
                    local += 1
                else:
                    bits[s, d] += int(batch.bits[r])
                    msgs[s, d] += 1
                inboxes[d].append((s, b, r))
        t1 = time.perf_counter() if trace else 0.0
        self.network.account_phase(bits, msgs, label=label, local_messages=local)
        t2 = time.perf_counter() if trace else 0.0

        # Reassemble each batch from the delivered messages in canonical
        # order: destination, then source, then emission order.
        rows_per_batch: list[list[tuple[int, int, int]]] = [[] for _ in batches]
        for j, inbox in enumerate(inboxes):
            for s, b, r in inbox:
                rows_per_batch[b].append((j, s, r))
        delivered: list[DeliveredBatch] = []
        for batch, rows in zip(batches, rows_per_batch):
            arr = np.array(sorted(rows), dtype=np.int64).reshape(-1, 3)
            order, dst = arr[:, 2], arr[:, 0]
            delivered.append(
                DeliveredBatch(
                    kind=batch.kind,
                    src=batch.src[order],
                    dst=dst,
                    bits=batch.bits[order],
                    columns={n: c[order] for n, c in batch.columns.items()},
                    offsets=np.searchsorted(dst, np.arange(k + 1)),
                )
            )
        if trace:
            t3 = time.perf_counter()
            self.tracer.phase(
                "exchange_batches",
                label,
                t3 - t0,
                segments={
                    "pack_s": t1 - t0,
                    "account_s": t2 - t1,
                    "deliver_s": t3 - t2,
                },
                stats=self.metrics.phase_log[-1],
            )
        return delivered
