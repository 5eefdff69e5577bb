"""Round / message / bit accounting for simulated executions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PhaseStats", "Metrics", "unit_load_matrix"]


def unit_load_matrix(src: np.ndarray, dst: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Load matrix of one flow of unit messages ``src[i] -> dst[i]``.

    Returns ``(msgs, local_count)``: the ``(k, k)`` int64 count of remote
    messages per directed link, diagonal zero as
    :meth:`Metrics.record_phase` requires, and the number of messages
    whose endpoints share a machine (free, reported as
    ``local_messages``).  A flow of ``b``-bit messages has bits matrix
    ``msgs * b``.  One ``bincount`` over ``src * k + dst``.
    """
    msgs = np.bincount(src * k + dst, minlength=k * k).reshape(k, k)
    local = int(np.trace(msgs))
    np.fill_diagonal(msgs, 0)
    return msgs, local


@dataclass(slots=True)
class PhaseStats:
    """Statistics of a single communication phase (superstep).

    Attributes
    ----------
    rounds:
        Rounds charged for this phase: ``max_ij ceil(L_ij / B)`` over
        ordered machine pairs ``i != j``.
    messages:
        Number of remote messages delivered in the phase.
    bits:
        Total remote bits delivered in the phase.
    max_link_bits:
        The heaviest per-link bit load of the phase.
    max_machine_sent / max_machine_received:
        Heaviest per-machine send/receive load (in messages); used to
        verify the per-machine load lemmas (e.g. Lemma 12).
    label:
        Optional human-readable phase label.
    """

    rounds: int
    messages: int
    bits: int
    max_link_bits: int
    max_machine_sent: int
    max_machine_received: int
    label: str = ""

    def as_dict(self) -> dict:
        """JSON-ready view (phase summaries, the communication ledger)."""
        return {
            "label": self.label,
            "rounds": self.rounds,
            "messages": self.messages,
            "bits": self.bits,
            "max_link_bits": self.max_link_bits,
            "max_machine_sent": self.max_machine_sent,
            "max_machine_received": self.max_machine_received,
        }


@dataclass
class Metrics:
    """Cumulative execution metrics of a simulated k-machine algorithm."""

    k: int
    bandwidth: int
    rounds: int = 0
    phases: int = 0
    messages: int = 0
    bits: int = 0
    local_messages: int = 0
    phase_log: list[PhaseStats] = field(default_factory=list)
    sent_messages: np.ndarray | None = None
    received_messages: np.ndarray | None = None
    sent_bits: np.ndarray | None = None
    received_bits: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.sent_messages is None:
            self.sent_messages = np.zeros(self.k, dtype=np.int64)
        if self.received_messages is None:
            self.received_messages = np.zeros(self.k, dtype=np.int64)
        if self.sent_bits is None:
            self.sent_bits = np.zeros(self.k, dtype=np.int64)
        if self.received_bits is None:
            self.received_bits = np.zeros(self.k, dtype=np.int64)

    # ------------------------------------------------------------------
    def record_phase(
        self,
        bits_matrix: np.ndarray,
        messages_matrix: np.ndarray,
        label: str = "",
        local_messages: int = 0,
    ) -> PhaseStats:
        """Account one communication phase.

        Parameters
        ----------
        bits_matrix, messages_matrix:
            ``(k, k)`` arrays; entry ``[i, j]`` is the load on the directed
            link from machine ``i`` to machine ``j``.  Diagonals must be
            zero (local traffic is free and reported via
            ``local_messages``).
        """
        bits_matrix = np.asarray(bits_matrix, dtype=np.int64)
        messages_matrix = np.asarray(messages_matrix, dtype=np.int64)
        if bits_matrix.shape != (self.k, self.k) or messages_matrix.shape != (self.k, self.k):
            raise ValueError(
                f"load matrices must have shape ({self.k}, {self.k}), "
                f"got {bits_matrix.shape} and {messages_matrix.shape}"
            )
        if np.any(np.diagonal(bits_matrix)) or np.any(np.diagonal(messages_matrix)):
            raise ValueError("diagonal (local) link loads must be zero")
        if np.any(bits_matrix < 0) or np.any(messages_matrix < 0):
            raise ValueError("link loads must be non-negative")

        max_link = int(bits_matrix.max(initial=0))
        rounds = -(-max_link // self.bandwidth)  # ceil
        stats = PhaseStats(
            rounds=int(rounds),
            messages=int(messages_matrix.sum()),
            bits=int(bits_matrix.sum()),
            max_link_bits=max_link,
            max_machine_sent=int(messages_matrix.sum(axis=1).max(initial=0)),
            max_machine_received=int(messages_matrix.sum(axis=0).max(initial=0)),
            label=label,
        )
        self.rounds += stats.rounds
        self.phases += 1
        self.messages += stats.messages
        self.bits += stats.bits
        self.local_messages += int(local_messages)
        self.sent_messages += messages_matrix.sum(axis=1)
        self.received_messages += messages_matrix.sum(axis=0)
        self.sent_bits += bits_matrix.sum(axis=1)
        self.received_bits += bits_matrix.sum(axis=0)
        self.phase_log.append(stats)
        return stats

    @property
    def max_machine_sent(self) -> int:
        """Largest number of messages sent by a single machine overall."""
        return int(self.sent_messages.max(initial=0))

    @property
    def max_machine_received(self) -> int:
        """Largest number of messages received by a single machine overall."""
        return int(self.received_messages.max(initial=0))

    @property
    def max_link_bits(self) -> int:
        """Heaviest single-phase link load across the whole execution."""
        return max((p.max_link_bits for p in self.phase_log), default=0)

    def as_dict(self) -> dict:
        """Summary dictionary (for bench table rows)."""
        return {
            "k": self.k,
            "bandwidth": self.bandwidth,
            "rounds": self.rounds,
            "phases": self.phases,
            "messages": self.messages,
            "bits": self.bits,
            "local_messages": self.local_messages,
            "max_machine_sent": self.max_machine_sent,
            "max_machine_received": self.max_machine_received,
            "max_link_bits": self.max_link_bits,
            "phase_summary": [p.as_dict() for p in self.phase_log],
        }

    def check_conservation(self) -> None:
        """Internal consistency: totals match per-machine aggregates.

        Also validates the phase log against the cumulative counters and
        the per-machine arrays against the configured shape — so a buggy
        accounting path (mismatched ``k``, dropped phases, corrupted
        arrays) is caught here rather than in downstream reports.
        """
        for name in ("sent_messages", "received_messages", "sent_bits", "received_bits"):
            arr = getattr(self, name)
            if arr.shape != (self.k,):
                raise AssertionError(
                    f"{name} must have shape ({self.k},), got {arr.shape}"
                )
            if np.any(arr < 0):
                raise AssertionError(f"{name} has negative per-machine entries")
        if int(self.sent_messages.sum()) != self.messages:
            raise AssertionError("sent message totals do not match")
        if int(self.received_messages.sum()) != self.messages:
            raise AssertionError("received message totals do not match")
        if int(self.sent_bits.sum()) != self.bits or int(self.received_bits.sum()) != self.bits:
            raise AssertionError("bit totals do not match")
        if self.phases != len(self.phase_log):
            raise AssertionError("phase count does not match phase log")
        if self.rounds != sum(p.rounds for p in self.phase_log):
            raise AssertionError("round total does not match phase log")
        if self.messages != sum(p.messages for p in self.phase_log):
            raise AssertionError("message total does not match phase log")
        if self.bits != sum(p.bits for p in self.phase_log):
            raise AssertionError("bit total does not match phase log")
