"""Result container for distributed connected-components runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kmachine.metrics import Metrics

__all__ = ["ConnectivityResult"]


@dataclass
class ConnectivityResult:
    """Output of distributed connected components.

    Attributes
    ----------
    labels:
        ``(n,)`` array; vertices share a label iff they are connected.
        Labels are canonical: the minimum vertex id of the component.
    num_components:
        Number of connected components.
    spanning_forest:
        ``(n - num_components, 2)`` spanning-forest edges.
    metrics:
        Communication metrics of the underlying Borůvka run.
    """

    labels: np.ndarray
    num_components: int
    spanning_forest: np.ndarray
    metrics: Metrics

    @property
    def rounds(self) -> int:
        """Total rounds charged."""
        return self.metrics.rounds

    def is_connected(self) -> bool:
        """Whether the input graph was connected."""
        return self.num_components <= 1
