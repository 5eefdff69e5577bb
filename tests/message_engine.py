"""The per-object oracle engine the cross-engine suites compare against.

:class:`MessageEngine` executes a columnar phase the slow, literal way:
one :class:`~repro.kmachine.message.Message` per batch row, routed
through :meth:`LinkNetwork.exchange` and reassembled from what was
physically delivered.  It shares no batch code with
:class:`~repro.kmachine.engine.VectorEngine`, which is what makes it a
reference: ``tests/conftest.py`` registers it in
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
from repro.kmachine.message import Message


class MessageEngine(Engine):
    """The per-object engine: every batch row becomes a :class:`Message`."""

    name = "message"

    def exchange_batches(
        self, batches: Sequence[MessageBatch], label: str = ""
    ) -> list[DeliveredBatch]:
        self._mark_activity()
        self._validate_batches(batches)
        trace = self.tracer.enabled
        t0 = time.perf_counter() if trace else 0.0
        k = self.k
        outboxes: list[list[Message]] = [[] for _ in range(k)]
        for b, batch in enumerate(batches):
            src, dst, bits = batch.src, batch.dst, batch.bits
            for r in range(len(batch)):
                outboxes[int(src[r])].append(
                    Message(
                        src=int(src[r]),
                        dst=int(dst[r]),
                        kind=batch.kind,
                        payload=(b, r),
                        bits=int(bits[r]),
                    )
                )
        t1 = time.perf_counter() if trace else 0.0
        inboxes = self.network.exchange(outboxes, label=label)
        t2 = time.perf_counter() if trace else 0.0

        # Reassemble each batch from the physically delivered messages in
        # canonical order: destination, then source, then emission order.
        delivered: list[DeliveredBatch] = []
        rows_per_batch: list[list[tuple[int, int, int]]] = [[] for _ in batches]
        for j, inbox in enumerate(inboxes):
            for msg in inbox:
                b, r = msg.payload
                rows_per_batch[b].append((j, msg.src, r))
        for batch, rows in zip(batches, rows_per_batch):
            if rows:
                arr = np.array(sorted(rows), dtype=np.int64)
                order = arr[:, 2]
                dst = arr[:, 0]
            else:
                order = np.zeros(0, dtype=np.int64)
                dst = np.zeros(0, dtype=np.int64)
            offsets = np.searchsorted(dst, np.arange(k + 1))
            delivered.append(
                DeliveredBatch(
                    kind=batch.kind,
                    src=batch.src[order],
                    dst=dst,
                    bits=batch.bits[order],
                    columns={n: c[order] for n, c in batch.columns.items()},
                    offsets=offsets,
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
                    "exchange_s": t2 - t1,
                    "deliver_s": t3 - t2,
                },
                stats=self.metrics.phase_log[-1],
            )
        return delivered
