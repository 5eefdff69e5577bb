"""The pairwise link network with exact per-link round accounting.

A communication phase with per-link bit loads ``L_ij`` costs
``max_ij ceil(L_ij / B)`` rounds.  This is exact for the oblivious
schedule in which every link drains its own queue, ``B`` bits per round,
which is the schedule all of the paper's upper-bound proofs charge
(messages between a fixed pair of machines always use the direct link;
cf. Lemma 13): draining a link's FIFO queue round by round, messages
packed into each round's ``B`` bits, takes exactly ``ceil(L_ij / B)``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro._util import check_positive_int
from repro.errors import ModelError
from repro.kmachine.message import Message
from repro.kmachine.metrics import Metrics

__all__ = ["LinkNetwork"]


class LinkNetwork:
    """A complete network of ``k`` machines with ``B``-bit links.

    Parameters
    ----------
    k:
        Number of machines (``k >= 2``).
    bandwidth:
        Link bandwidth ``B`` in bits per round.
    """

    def __init__(self, k: int, bandwidth: int) -> None:
        # k arrives from the command line and from /run requests: any
        # integer below 2 is the model's error, not a generic ValueError.
        if isinstance(k, (int, np.integer)) and k < 2:
            raise ModelError(f"the k-machine model requires k >= 2, got k={k}")
        check_positive_int(k, "k")
        check_positive_int(bandwidth, "bandwidth")
        self.k = int(k)
        self.bandwidth = int(bandwidth)
        self.metrics = Metrics(k=self.k, bandwidth=self.bandwidth)

    # ------------------------------------------------------------------
    def _validate(self, outboxes: Sequence[Iterable[Message]]) -> None:
        if len(outboxes) != self.k:
            raise ModelError(
                f"expected one outbox per machine ({self.k}), got {len(outboxes)}"
            )

    def exchange(
        self,
        outboxes: Sequence[Iterable[Message]],
        label: str = "",
    ) -> list[list[Message]]:
        """Deliver one communication phase and account its cost.

        ``outboxes[i]`` are the messages machine ``i`` sends this phase.
        Returns ``inboxes`` where ``inboxes[j]`` lists the messages machine
        ``j`` receives (remote first in link order, then local), and
        accumulates rounds/messages/bits into :attr:`metrics`.
        """
        self._validate(outboxes)
        k = self.k
        bits = np.zeros((k, k), dtype=np.int64)
        msgs = np.zeros((k, k), dtype=np.int64)
        inboxes: list[list[Message]] = [[] for _ in range(k)]
        local = 0
        per_link: dict[tuple[int, int], list[Message]] = {}

        for i, outbox in enumerate(outboxes):
            for msg in outbox:
                if msg.src != i:
                    raise ModelError(
                        f"machine {i} tried to send a message with src={msg.src}"
                    )
                if not (0 <= msg.dst < k):
                    raise ModelError(
                        f"message destination {msg.dst} out of range [0, {k})"
                    )
                if msg.is_local:
                    local += msg.multiplicity
                    inboxes[msg.dst].append(msg)
                    continue
                bits[msg.src, msg.dst] += msg.bits
                msgs[msg.src, msg.dst] += msg.multiplicity
                per_link.setdefault((msg.src, msg.dst), []).append(msg)

        self.account_phase(bits, msgs, label=label, local_messages=local)

        for (_, dst), batch in sorted(per_link.items()):
            inboxes[dst].extend(batch)
        return inboxes

    # ------------------------------------------------------------------
    def account_phase(
        self,
        bits_matrix: np.ndarray,
        messages_matrix: np.ndarray,
        label: str = "",
        local_messages: int = 0,
    ) -> int:
        """Account one phase from its aggregate ``(k, k)`` loads; returns its rounds.

        The accounting primitive every exchange ends in: :meth:`exchange`
        and the engines' batch exchanges pass the loads they scattered,
        and analytically-simulated phases (whose message volume would be
        prohibitive to materialize) pass their loads directly.
        """
        stats = self.metrics.record_phase(
            bits_matrix, messages_matrix, label=label, local_messages=local_messages
        )
        return stats.rounds

    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Total rounds accounted so far."""
        return self.metrics.rounds

    def reset_metrics(self) -> None:
        """Discard accumulated metrics (e.g. between benchmark repetitions)."""
        self.metrics = Metrics(k=self.k, bandwidth=self.bandwidth)
