"""Result container and per-iteration bookkeeping for distributed PageRank runs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kmachine.metrics import Metrics

__all__ = ["PageRankResult", "IterationStats", "close_iteration"]


@dataclass(frozen=True)
class IterationStats:
    """Per-iteration instrumentation (used to verify Lemmas 12 and 14)."""

    iteration: int
    rounds: int
    messages: int
    max_machine_sent: int
    max_machine_received: int
    live_tokens: int


def close_iteration(
    cluster, iteration: int, live: int, report_label: str, verdict_label: str
) -> IterationStats:
    """Stats of the iteration whose token phase was charged last, then its termination check.

    The check is two accounted control phases whose 1-bit messages no
    driver reads (the parent sees ``live`` directly): every machine
    ``i > 0`` reports a liveness flag to machine 0 (``report_label``),
    which broadcasts the verdict (``verdict_label``).  Callers pass
    literal labels, so every iteration's phase log shares one string
    object per label.
    """
    phase = cluster.metrics.phase_log[-1]
    stats = IterationStats(
        iteration=iteration,
        rounds=phase.rounds,
        messages=phase.messages,
        max_machine_sent=phase.max_machine_sent,
        max_machine_received=phase.max_machine_received,
        live_tokens=live,
    )
    flags = np.zeros((cluster.k, cluster.k), dtype=np.int64)
    flags[1:, 0] = 1
    cluster.account_phase(flags, flags, label=report_label)
    cluster.broadcast(0, bits=1, label=verdict_label)
    return stats


@dataclass
class PageRankResult:
    """Output of a distributed PageRank execution.

    Attributes
    ----------
    estimates:
        ``(n,)`` PageRank estimates indexed by vertex id.
    metrics:
        Full communication metrics of the run.
    iterations:
        Number of token-walk iterations executed.
    tokens_per_vertex:
        Initial token count ``Θ(log n)`` per vertex.
    eps:
        Reset probability.
    iteration_stats:
        One :class:`IterationStats` per iteration.
    """

    estimates: np.ndarray
    metrics: Metrics
    iterations: int
    tokens_per_vertex: int
    eps: float
    iteration_stats: list[IterationStats] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        """Total rounds charged."""
        return self.metrics.rounds

    def token_rounds(self) -> int:
        """Rounds spent delivering token messages (excludes control phases).

        The ``Õ(n/k²)`` bound of Theorem 4 concerns these; the termination-
        detection control phases add only the ``polylog`` additive term.
        """
        return sum(p.rounds for p in self.metrics.phase_log if "/tokens" in p.label)

    def linf_relative_error(self, reference: np.ndarray, floor: float = 1e-15) -> float:
        """``max_v |est(v) - ref(v)| / max(ref(v), floor)``."""
        ref = np.asarray(reference, dtype=np.float64)
        return float(np.max(np.abs(self.estimates - ref) / np.maximum(ref, floor)))

    def l1_error(self, reference: np.ndarray) -> float:
        """Total variation style error ``sum_v |est(v) - ref(v)|``."""
        return float(np.abs(self.estimates - np.asarray(reference, dtype=np.float64)).sum())
