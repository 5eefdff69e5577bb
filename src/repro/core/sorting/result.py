"""Result container for distributed sorting runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kmachine.metrics import Metrics

__all__ = ["SortResult"]


@dataclass
class SortResult:
    """Output of a distributed sort.

    Attributes
    ----------
    blocks:
        Per-machine sorted arrays; concatenating them in machine order is
        the globally sorted sequence.
    metrics:
        Communication metrics.
    splitters:
        The broadcast splitters.
    """

    blocks: list[np.ndarray]
    metrics: Metrics
    splitters: np.ndarray

    @property
    def rounds(self) -> int:
        """Total rounds charged."""
        return self.metrics.rounds

    def concatenated(self) -> np.ndarray:
        """The full output sequence in machine order."""
        return np.concatenate(self.blocks) if self.blocks else np.zeros(0)

    def max_block_imbalance(self) -> float:
        """``max block size / (n/k)``."""
        n = sum(b.size for b in self.blocks)
        if n == 0:
            return 0.0
        return max(b.size for b in self.blocks) / (n / len(self.blocks))
