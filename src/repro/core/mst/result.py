"""Result container for distributed MST runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kmachine.metrics import Metrics

__all__ = ["MSTResult"]


@dataclass
class MSTResult:
    """Output of the distributed MST computation.

    Attributes
    ----------
    edges:
        ``(t, 2)`` spanning-forest edge rows (canonical order).
    total_weight:
        Sum of the chosen edges' weights.
    metrics:
        Communication metrics.
    phases:
        Number of Borůvka phases executed.
    num_components:
        Final component count (1 for connected inputs).
    """

    edges: np.ndarray
    total_weight: float
    metrics: Metrics
    phases: int
    num_components: int

    @property
    def rounds(self) -> int:
        """Total rounds charged."""
        return self.metrics.rounds
