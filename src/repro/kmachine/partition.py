"""Input partitions: random vertex partition (RVP) and random edge partition (REP).

The paper assumes the RVP model: every vertex (with its incident edges) is
assigned independently and uniformly at random to one of the ``k`` machines
(Section 1.1).  The assignment is drawn from a seeded generator (the
cluster's shared randomness), so every machine can recompute it.

Footnote 3 of the paper notes that an REP input can be converted to an RVP
input in ``Õ(m/k² + n/k)`` rounds; :func:`rep_to_rvp` implements that
conversion as an actual protocol on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import as_rng, check_positive_int
from repro.errors import PartitionError
from repro.kmachine import encoding
from repro.kmachine.metrics import Metrics, unit_load_matrix

__all__ = [
    "VertexPartition",
    "EdgePartition",
    "random_vertex_partition",
    "random_edge_partition",
    "rep_to_rvp",
]


@dataclass(frozen=True)
class VertexPartition:
    """An assignment of ``n`` vertices to ``k`` machines.

    Attributes
    ----------
    home:
        ``(n,)`` int array; ``home[v]`` is the home machine of vertex ``v``.
    k:
        Number of machines.
    """

    home: np.ndarray
    k: int

    def __post_init__(self) -> None:
        home = np.asarray(self.home, dtype=np.int64)
        object.__setattr__(self, "home", home)
        check_positive_int(self.k, "k")
        if home.ndim != 1:
            raise PartitionError(f"home must be 1-D, got shape {home.shape}")
        if home.size and (home.min() < 0 or home.max() >= self.k):
            raise PartitionError(
                f"home machine indices must lie in [0, {self.k}), "
                f"got range [{home.min()}, {home.max()}]"
            )

    @property
    def n(self) -> int:
        """Number of vertices."""
        return int(self.home.size)

    def machine_vertices(self, i: int) -> np.ndarray:
        """Vertices hosted by machine ``i`` (sorted)."""
        if not (0 <= i < self.k):
            raise PartitionError(f"machine index {i} out of range [0, {self.k})")
        return np.flatnonzero(self.home == i)

    def vertices_by_machine(self) -> list[np.ndarray]:
        """List of per-machine vertex arrays (index = machine)."""
        order = np.argsort(self.home, kind="stable")
        counts = np.bincount(self.home, minlength=self.k)
        splits = np.cumsum(counts)[:-1]
        return [np.sort(part) for part in np.split(order, splits)]

    def counts(self) -> np.ndarray:
        """``(k,)`` array of vertices per machine."""
        return np.bincount(self.home, minlength=self.k)

    def balance_ratio(self) -> float:
        """``max load / (n/k)`` — the RVP guarantees ``Θ̃(1)`` whp."""
        if self.n == 0:
            return 0.0
        return float(self.counts().max()) / (self.n / self.k)

    def is_balanced(self, slack: float = 4.0) -> bool:
        """Whether every machine hosts at most ``slack * max(1, log2 n) * n/k`` vertices."""
        if self.n == 0:
            return True
        bound = slack * max(1.0, np.log2(max(2, self.n))) * self.n / self.k
        return bool(self.counts().max() <= bound)


@dataclass(frozen=True)
class EdgePartition:
    """An assignment of ``m`` edges to ``k`` machines (the REP model)."""

    home: np.ndarray
    k: int

    def __post_init__(self) -> None:
        home = np.asarray(self.home, dtype=np.int64)
        object.__setattr__(self, "home", home)
        check_positive_int(self.k, "k")
        if home.ndim != 1:
            raise PartitionError(f"home must be 1-D, got shape {home.shape}")
        if home.size and (home.min() < 0 or home.max() >= self.k):
            raise PartitionError(f"edge home indices must lie in [0, {self.k})")

    @property
    def m(self) -> int:
        """Number of edges."""
        return int(self.home.size)

    def machine_edges(self, i: int) -> np.ndarray:
        """Edge indices assigned to machine ``i``."""
        if not (0 <= i < self.k):
            raise PartitionError(f"machine index {i} out of range [0, {self.k})")
        return np.flatnonzero(self.home == i)

    def counts(self) -> np.ndarray:
        """``(k,)`` array of edges per machine."""
        return np.bincount(self.home, minlength=self.k)


# ----------------------------------------------------------------------
def random_vertex_partition(
    n: int, k: int, seed: int | np.random.Generator | None = None
) -> VertexPartition:
    """Sample an RVP: each vertex goes to a uniform random machine."""
    check_positive_int(n, "n")
    check_positive_int(k, "k")
    rng = as_rng(seed)
    return VertexPartition(home=rng.integers(0, k, size=n), k=k)


def random_edge_partition(
    m: int, k: int, seed: int | np.random.Generator | None = None
) -> EdgePartition:
    """Sample an REP: each edge goes to a uniform random machine."""
    if m < 0:
        raise PartitionError(f"m must be non-negative, got {m}")
    check_positive_int(k, "k")
    rng = as_rng(seed)
    return EdgePartition(home=rng.integers(0, k, size=m), k=k)


# ----------------------------------------------------------------------
def rep_to_rvp(
    edges: np.ndarray,
    n: int,
    edge_partition: EdgePartition,
    network,
    vertex_partition: VertexPartition | None = None,
    seed: int | np.random.Generator | None = None,
) -> tuple[VertexPartition, Metrics]:
    """Convert an REP input into an RVP input (paper footnote 3).

    Every machine sends each edge it holds to the home machines of both
    endpoints under a (fresh or supplied) random vertex partition.  Edge
    messages have random *sources* (the REP) and random *destinations*
    (the RVP), so by Lemma 13 the exchange takes ``Õ(m/k²)`` rounds, plus
    ``Õ(n/k)`` rounds to announce vertex ids — which is free here because
    every machine recomputes the homes from the shared randomness.

    Parameters
    ----------
    edges:
        ``(m, 2)`` int array of edge endpoints.
    n:
        Number of vertices.
    edge_partition:
        The REP input placement.
    network:
        A :class:`~repro.kmachine.network.LinkNetwork`; rounds are
        accounted into its metrics.
    vertex_partition:
        Target RVP; freshly sampled when omitted.

    Returns
    -------
    (VertexPartition, Metrics)
        The target partition and the metrics of the conversion (a view of
        the network's metrics object).
    """
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 2 or (edges.size and edges.shape[1] != 2):
        raise PartitionError(f"edges must have shape (m, 2), got {edges.shape}")
    if edges.shape[0] != edge_partition.m:
        raise PartitionError(
            f"edge partition covers {edge_partition.m} edges but {edges.shape[0]} were given"
        )
    k = edge_partition.k
    if vertex_partition is None:
        vertex_partition = random_vertex_partition(n, k, seed=seed)
    elif vertex_partition.k != k:
        raise PartitionError("vertex and edge partitions must use the same k")

    # Every edge goes from its holder to the homes of both endpoints.
    src = np.repeat(edge_partition.home, 2)
    dst = vertex_partition.home[edges.ravel()]
    msgs, local = unit_load_matrix(src, dst, k)
    network.account_phase(
        msgs * encoding.edge_message_bits(n), msgs, label="rep-to-rvp", local_messages=local
    )
    return vertex_partition, network.metrics
