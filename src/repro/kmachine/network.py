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

import numpy as np

from repro._util import check_positive_int
from repro.errors import ModelError
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
    def account_phase(
        self,
        bits_matrix: np.ndarray,
        messages_matrix: np.ndarray,
        label: str = "",
        local_messages: int = 0,
    ) -> int:
        """Account one phase from its aggregate ``(k, k)`` loads; returns its rounds.

        The accounting primitive every phase ends in: the engines' batch
        exchanges pass the loads they scattered, and aggregate-only phases
        (whose messages are never delivered, or whose volume would be
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
