"""Result container for distributed triangle enumeration runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kmachine.metrics import Metrics

__all__ = ["TriangleResult"]


@dataclass
class TriangleResult:
    """Output of a distributed triangle/triad enumeration.

    Attributes
    ----------
    triangles:
        ``(t, r)`` occurrence rows, lexicographically ordered, each
        occurrence exactly once: sorted vertex triples for triangles,
        the rows of :mod:`repro.core.subgraphs.local` for K4/C4.
    metrics:
        Communication metrics of the run.
    per_machine_output:
        ``(k,)`` number of triangles output by each machine (the balance
        of this vector is what Corollary 2's message bound rests on).
    num_colors:
        ``q = floor(k^{1/r})`` used by the color partition (0 when the
        algorithm does not use colors).
    open_triads:
        Optional ``(s, 3)`` array of open triads (center first) when triad
        enumeration was requested.
    """

    triangles: np.ndarray
    metrics: Metrics
    per_machine_output: np.ndarray
    num_colors: int = 0
    open_triads: np.ndarray | None = None

    @property
    def count(self) -> int:
        """Number of triangles enumerated."""
        return int(self.triangles.shape[0])

    @property
    def rounds(self) -> int:
        """Total rounds charged."""
        return self.metrics.rounds

    def assert_no_duplicates(self) -> None:
        """Raise if any triangle appears twice in the output."""
        if self.count == 0:
            return
        uniq = np.unique(self.triangles, axis=0)
        if uniq.shape[0] != self.count:
            raise AssertionError(
                f"duplicate triangles in output: {self.count} rows, {uniq.shape[0]} distinct"
            )
