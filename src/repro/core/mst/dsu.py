"""Union-find (disjoint set union) with path compression and union by size."""

from __future__ import annotations

import numpy as np

__all__ = ["DisjointSetUnion"]


class DisjointSetUnion:
    """Classic DSU over elements ``0 .. n-1``.

    ``find`` uses iterative path halving; ``union`` by size.  Amortized
    near-constant operations; used by Kruskal, and by tests as the
    component oracle.
    """

    __slots__ = ("parent", "size", "num_components")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.num_components = n

    def find(self, x: int) -> int:
        """Representative of ``x``'s component."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]  # path halving
            x = int(p[x])
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``; True if they differed."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.num_components -= 1
        return True

